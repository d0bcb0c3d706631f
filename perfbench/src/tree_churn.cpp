// tree-churn: the paper's microbenchmark on a bare SFTree at a size where
// descent misses cache. A closed loop of 3 client threads over 2^20 keys
// drawn from a 2^21 range; the tree's own maintenance thread is the fourth
// thread. 40% of operations are update attempts (half insert, half erase,
// uniform keys), which at half occupancy is the paper's 20% effective
// update ratio; the rest are contains/get. The run is a fixed amount of
// work per --seconds, not a fixed time, because the node arena grows with
// the number of updates performed (CHANGES.md, FOUND: arena stranding).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "stm/domain.hpp"
#include "trees/sftree.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace trees = sftree::trees;
namespace stm = sftree::stm;

constexpr int kClients = 3;
constexpr std::uint64_t kRange = std::uint64_t{1} << 21;
constexpr std::uint64_t kInitial = std::uint64_t{1} << 20;
constexpr std::uint64_t kAnchors = 4096;
constexpr std::uint64_t kOpsPerSecondOfRun = 1'000'000;
// One call in this many is timed for the end-to-end latency figures.
constexpr std::uint64_t kLatencyStride = 8;
constexpr std::size_t kMaxKeptSpans = 100'000;
// Each client's work is cut into this many equal slices; ops_per_s sums
// the clients' median slice rates, so a stretch of the run in which the
// host stalls the process moves a few slices, not the figure.
constexpr std::uint64_t kSlices = 50;

enum class Op : std::uint8_t { kInsert, kErase, kContains, kGet };

struct Client {
  std::vector<std::int32_t> net;  // successful inserts - erases, per key
  std::uint64_t inserts = 0, erases = 0;
  std::uint64_t badValue = 0, anchorMiss = 0;
  std::vector<double> readNs, updateNs;
  std::vector<std::int64_t> sliceEnds;  // start, then each slice's end
  std::uint64_t vqMax = 0, limboMax = 0;
};

Value valueOf(Key k, std::uint64_t seed) {
  return static_cast<Value>(mix64(static_cast<std::uint64_t>(k) ^
                                  (seed * 0x9e3779b97f4a7c15ULL)) >>
                            1);
}


}  // namespace

void runTreeChurn(const Options& opt, Result& r) {
  // --- inputs, from the seed -------------------------------------------------
  Rng keyRng(opt.seed, 1);
  std::vector<std::uint8_t> initial(kRange, 0);
  std::vector<Key> initialKeys;
  initialKeys.reserve(kInitial);
  while (initialKeys.size() < kInitial) {
    const Key k = static_cast<Key>(keyRng.below(kRange));
    if (initial[static_cast<std::size_t>(k)] != 0) continue;
    initial[static_cast<std::size_t>(k)] = 1;
    initialKeys.push_back(k);
  }
  // Anchors: present keys no update ever draws; every read of one must hit
  // with its known value.
  std::vector<std::uint8_t> isAnchor(kRange, 0);
  const std::vector<Key> anchors(initialKeys.begin(),
                                 initialKeys.begin() + kAnchors);
  for (const Key k : anchors) isAnchor[static_cast<std::size_t>(k)] = 1;

  // --- set-up: construct, populate, wait for maintenance to go idle ----------
  stm::Domain domain;
  trees::SFTreeConfig cfg;
  cfg.ops = trees::OpsVariant::Optimized;
  cfg.domain = &domain;
  trees::SFTree tree(cfg);
  std::atomic<std::uint64_t> populateFailures{0};
  {
    // The main thread is the third loader: with the maintenance thread,
    // set-up uses the same 4 threads as the measured phase.
    const auto load = [&](int c) {
      for (std::size_t i = static_cast<std::size_t>(c); i < kInitial;
           i += kClients) {
        const Key k = initialKeys[i];
        if (!tree.insert(k, valueOf(k, opt.seed))) populateFailures.fetch_add(1);
      }
    };
    std::vector<std::thread> loaders;
    for (int c = 1; c < kClients; ++c) loaders.emplace_back(load, c);
    load(0);
    for (auto& t : loaders) t.join();
  }
  r.check(populateFailures.load() == 0, "populate: an insert of a fresh key "
                                        "returned false");
  waitMaintenanceIdle([&tree] {
    const trees::MaintenanceStats s = tree.maintenanceStats();
    return std::make_pair(s.rotations + s.removals,
                          tree.violationQueueDepth());
  });
  const double setupS =
      static_cast<double>(nowNs() - processStartNs()) / 1e9;

  // --- measured phase ----------------------------------------------------------
  const std::uint64_t perClient =
      static_cast<std::uint64_t>(opt.seconds) * kOpsPerSecondOfRun / kClients;
  r.attempted = perClient * kClients;
  const std::uint64_t sliceOps = perClient / kSlices;
  std::vector<Client> clients(kClients);
  for (Client& c : clients) {
    c.net.assign(kRange, 0);
    if (!opt.trace) {
      c.readNs.reserve(perClient / kLatencyStride + 1);
      c.updateNs.reserve(perClient / kLatencyStride + 1);
    }
  }
  SpanLog spans(kClients, r.attempted / kMaxKeptSpans + 1);

  const LayerSnapshot before = LayerSnapshot::of(tree);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::int64_t startNs = 0;

  const auto clientBody = [&](int c) {
    Client& me = clients[static_cast<std::size_t>(c)];
    Rng rng(opt.seed, 100 + static_cast<std::uint64_t>(c));
    me.sliceEnds.reserve(kSlices + 1);
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    me.sliceEnds.push_back(nowNs());
    for (std::uint64_t i = 0; i < perClient; ++i) {
      if (i % sliceOps == 0 && i > 0 && i / sliceOps < kSlices)
        me.sliceEnds.push_back(nowNs());
      const std::uint64_t bits = rng.next();
      const auto pick = static_cast<unsigned>(((bits >> 32) * 100) >> 32);
      const Op op = pick < 20   ? Op::kInsert
                    : pick < 40 ? Op::kErase
                    : pick < 70 ? Op::kContains
                                : Op::kGet;
      Key k;
      if (op == Op::kInsert || op == Op::kErase) {
        do {
          k = static_cast<Key>(rng.below(kRange));
        } while (isAnchor[static_cast<std::size_t>(k)] != 0);
      } else if ((bits & 15) == 0) {
        k = anchors[rng.below(kAnchors)];
      } else {
        k = static_cast<Key>(rng.below(kRange));
      }
      const bool timed = opt.trace || i % kLatencyStride == 0;
      const std::int64_t t0 = timed ? nowNs() : 0;
      bool hit = false;
      std::optional<Value> got;
      const char* span = nullptr;
      switch (op) {
        case Op::kInsert:
          hit = tree.insert(k, valueOf(k, opt.seed));
          span = "trees.insert";
          break;
        case Op::kErase:
          hit = tree.erase(k);
          span = "trees.erase";
          break;
        case Op::kContains:
          hit = tree.contains(k);
          span = "trees.contains";
          break;
        case Op::kGet:
          got = tree.get(k);
          hit = got.has_value();
          span = "trees.get";
          break;
      }
      if (timed) {
        const std::int64_t t1 = nowNs();
        const bool update = op == Op::kInsert || op == Op::kErase;
        if (opt.trace) {
          if (spans.keep(i))
            spans.record(c, span, (static_cast<std::uint64_t>(c) << 40) | i, 0,
                         t0, t1);
        } else {
          (update ? me.updateNs : me.readNs)
              .push_back(static_cast<double>(t1 - t0));
        }
      }
      if (op == Op::kInsert && hit) {
        ++me.net[static_cast<std::size_t>(k)];
        ++me.inserts;
      } else if (op == Op::kErase && hit) {
        --me.net[static_cast<std::size_t>(k)];
        ++me.erases;
      } else if (op == Op::kGet && hit && *got != valueOf(k, opt.seed)) {
        ++me.badValue;
      }
      if (!hit && (op == Op::kContains || op == Op::kGet) &&
          isAnchor[static_cast<std::size_t>(k)] != 0) {
        ++me.anchorMiss;
      }
      if (opt.trace && c == 0 && (i & 4095) == 0) {
        const trees::MaintenanceStats s = tree.maintenanceStats();
        me.vqMax = std::max(me.vqMax, tree.violationQueueDepth());
        me.limboMax = std::max(me.limboMax, s.nodesRetired - s.nodesFreed);
      }
    }
    me.sliceEnds.push_back(nowNs());
  };

  {
    std::vector<std::thread> helpers;
    for (int c = 1; c < kClients; ++c) helpers.emplace_back(clientBody, c);
    while (ready.load() < kClients - 1) std::this_thread::yield();
    startNs = nowNs();
    go.store(true, std::memory_order_release);
    clientBody(0);
    for (auto& t : helpers) t.join();
  }
  std::int64_t endNs = 0;
  for (const Client& c : clients) endNs = std::max(endNs, c.sliceEnds.back());
  const double elapsedS = static_cast<double>(endNs - startNs) / 1e9;
  double opsPerS = 0;
  for (const Client& c : clients) {
    std::vector<double> rates;
    for (std::size_t j = 1; j < c.sliceEnds.size(); ++j) {
      const std::uint64_t ops = j < kSlices ? sliceOps
                                            : perClient - sliceOps * (kSlices - 1);
      rates.push_back(static_cast<double>(ops) * 1e9 /
                      static_cast<double>(c.sliceEnds[j] - c.sliceEnds[j - 1]));
    }
    opsPerS += median(rates);
  }
  const LayerSnapshot after = LayerSnapshot::of(tree);
  reportArenas(r, tree);

  // --- checks --------------------------------------------------------------------
  std::uint64_t inserts = 0, erases = 0;
  std::vector<std::int32_t> net(kRange, 0);
  for (Client& c : clients) {
    inserts += c.inserts;
    erases += c.erases;
    r.opFailed("get returned a value the key was never given", c.badValue);
    r.opFailed("read of an anchor key missed", c.anchorMiss);
    for (std::size_t k = 0; k < kRange; ++k) net[k] += c.net[k];
    std::vector<std::int32_t>().swap(c.net);
  }
  tree.stopMaintenance();
  const int liveHeight = tree.height();
  const double liveNodes = static_cast<double>(tree.structuralSize());
  const double liveKeys = static_cast<double>(tree.abstractSize());
  tree.quiesceNow();
  const std::string structure = checkTreeStructure(tree);
  r.check(structure.empty(), "tree structure after quiesce: " + structure);
  const std::vector<Key> finalKeys = tree.keysInOrder();
  std::vector<std::uint8_t> finalPresent(kRange, 0);
  bool inRange = true;
  for (const Key k : finalKeys) {
    if (k < 0 || static_cast<std::uint64_t>(k) >= kRange) {
      inRange = false;
      continue;
    }
    finalPresent[static_cast<std::size_t>(k)] = 1;
  }
  r.check(inRange, "tree holds a key outside the key range");
  const std::string tally = checkKeyTally(initial, net, finalPresent);
  r.check(tally.empty(), "per-key tally: " + tally);
  const std::string size =
      checkSizeTally(kInitial, inserts, erases, tree.abstractSize());
  r.check(size.empty(), "abstract size: " + size);
  const std::string height =
      checkHeightBound(tree.height(), tree.structuralSize());
  r.check(height.empty(), "quiesced height: " + height);

  // --- metrics -------------------------------------------------------------------
  const double updates = static_cast<double>(inserts + erases);
  r.aux("effective_update_ratio", updates / static_cast<double>(r.attempted));
  r.aux("throughput", opsPerS);
  r.aux("ops_per_s_whole_run", static_cast<double>(r.attempted) / elapsedS);
  if (!opt.trace) {
    r.setEndToEnd("setup_s", "s", setupS);
    r.setEndToEnd("ops_per_s", "ops/s", opsPerS);
    std::vector<double> readNs, updateNs;
    for (Client& c : clients) {
      readNs.insert(readNs.end(), c.readNs.begin(), c.readNs.end());
      updateNs.insert(updateNs.end(), c.updateNs.begin(), c.updateNs.end());
    }
    reportLatency(r, "read", std::move(readNs));
    reportLatency(r, "update", std::move(updateNs));
    r.setEndToEnd("peak_rss_mb", "MiB", peakRssMb());
    return;
  }

  r.set("trees.insert_ns", median(spans.durations("trees.insert")));
  r.set("trees.erase_ns", median(spans.durations("trees.erase")));
  r.set("trees.contains_ns", median(spans.durations("trees.contains")));
  reportLayers(r, before, after, updates);
  r.set("trees.height_over_log2n", liveHeight / std::log2(liveNodes));
  r.set("trees.dead_node_share", (liveNodes - liveKeys) / liveKeys);
  r.set("trees.vq_max_depth", static_cast<double>(clients[0].vqMax));
  r.set("gc.limbo_pending_max", static_cast<double>(clients[0].limboMax));
  r.aux("trace.spans_kept", static_cast<double>(spans.size()));
  r.check(spans.write(opt.outDir + "/tree-churn-" + std::to_string(opt.seed) +
                      ".trace.json"),
          "could not write the trace file");
}

}  // namespace pb
