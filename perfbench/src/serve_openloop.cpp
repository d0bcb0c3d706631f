// serve-openloop: load from one generator thread into a ServingTier (2
// executors) over a 2-shard ShardedMap whose maintenance runs on a
// 1-worker MaintenanceScheduler: 4 threads in all. YCSB-B-like: 95%
// get/contains, 5% insert/erase, Zipf 0.99 over 2^17 keys with 2^16
// present, so the hot set stays in cache and maintenance is nearly idle.
//
// Phase 1 (latency): a closed window of kLatencyWindow outstanding
// requests, as many concurrent clients, so the executors stay busy and the
// latency is the tier's queueing and batch execution rather than a thread
// wake-up; each latency runs from the submit call to the completion
// callback. Phase 2 (ops_per_s): a closed window of kCapacityWindow
// outstanding requests, reported as the median over 50 ms windows of the
// completion rate. Both are fixed amounts of work per --seconds. Phase 3 is an open loop of Poisson arrivals at
// kFixedRate, timed from each request's due time, and phase 4 bisects the
// open-loop rate for the highest one whose p99 meets kLimitUs
// (max_rate_under_slo). Phases 3 and 4 feed the traced run and the run's
// recorded results, not the gated metrics: on a shared virtual machine the
// host stalls a thread for milliseconds many times a second, and for
// seconds at a time every few milliseconds. An open loop delays every
// request due during a stall, so its p99, and even its p50 in the noisy
// stretches, followed the host and not the program (calm-window p99 from
// 25 us to 3 ms between runs of one build); a closed window of a few
// requests delays only the requests it holds.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "serve/serving.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace serve = sftree::serve;
namespace shard = sftree::shard;

constexpr std::uint64_t kKeys = std::uint64_t{1} << 17;
constexpr std::uint64_t kPresent = std::uint64_t{1} << 16;
constexpr std::uint64_t kAnchors = 1024;
constexpr double kTheta = 0.99;
constexpr std::uint64_t kLayoutSeed = 0x5eed;
constexpr std::int64_t kWindowNs = 50'000'000;
// Phases 1 and 2: closed windows, for these shares of --seconds.
constexpr std::uint64_t kLatencyWindow = 64;
constexpr std::uint64_t kLatencyRequestsPerSecond = 200'000;
constexpr std::uint64_t kCapacityWindow = 4096;
constexpr std::uint64_t kCapacityRequestsPerSecond = 100'000;
// Exactly-once is checked over batches of this many finished requests, so
// the check's memory does not grow with throughput.
constexpr std::size_t kCheckBatch = 4096;
// Phase 3.
constexpr double kFixedRate = 100'000;  // req/s
constexpr double kFixedShare = 0.2;
// Phase 4: bisection between these rates (req/s) in log space; each probe
// is an open loop of kProbeShare of the run. A probe passes when the p99
// of its calmest quarter of 50 ms windows (ranked by their own p99) is
// within kLimitUs: a backlog that keeps growing fails every window after
// the first. A probe whose backlog passes kMaxBacklog requests has failed
// and stops submitting, which keeps every probe short of admission rejects
// (the tier's queues hold 2^16 requests each).
constexpr double kLadderLo = 25'000;
constexpr double kLadderHi = 1'600'000;
constexpr int kProbes = 8;
constexpr double kProbeShare = 0.025;
constexpr double kLimitUs = 1000.0;
constexpr std::uint64_t kMaxBacklog = 16384;

struct Req {
  serve::OpKind op;
  Key key;
  std::int64_t dueOffset;  // ns after the phase start (open loop)
};

struct Record {
  std::atomic<std::uint8_t> completions{0};
  bool rejected = false, ok = false, hasValue = false;
  Value value = 0;
  std::int64_t submitStart = 0, submitEnd = 0, doneNs = 0;
};

Value valueOf(Key k, std::uint64_t seed) {
  return static_cast<Value>(mix64(static_cast<std::uint64_t>(k) +
                                  seed * 0xd1b54a32d192ed03ULL) >>
                            1);
}

struct Inputs {
  std::vector<Key> rankToKey;
  std::vector<std::uint8_t> initial, isAnchor;
  std::vector<Key> anchors;
};

class Generator {
 public:
  Generator(const Inputs& in, std::uint64_t seed, std::uint64_t stream)
      : in_(in), zipf_(kKeys, kTheta), rng_(seed, stream) {}

  Req next() {
    Req q{};
    const std::uint64_t pick = rng_.below(1000);
    if (pick < 950) {
      q.op = pick < 475 ? serve::OpKind::kGet : serve::OpKind::kContains;
      q.key = (pick % 32 == 0) ? in_.anchors[rng_.below(kAnchors)]
                               : in_.rankToKey[zipf_.rank(rng_)];
    } else {
      q.op = pick < 975 ? serve::OpKind::kInsert : serve::OpKind::kErase;
      do {
        q.key = in_.rankToKey[zipf_.rank(rng_)];
      } while (in_.isAnchor[static_cast<std::size_t>(q.key)] != 0);
    }
    return q;
  }

  // Poisson arrivals at `rate` for `seconds`.
  void make(double rate, double seconds, std::vector<Req>& out) {
    out.clear();
    const double end = seconds * 1e9, meanGap = 1e9 / rate;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng_.unit()) * meanGap;
      if (t >= end) break;
      Req q = next();
      q.dueOffset = static_cast<std::int64_t>(t);
      out.push_back(q);
    }
  }

 private:
  const Inputs& in_;
  Zipf zipf_;
  Rng rng_;
};

// Submits requests into numbered record slots and checks what comes back:
// the per-key tally of successful updates, the completion count of every
// request, and refuted results. Completion callbacks write into it, so it
// must outlive the tier's executors.
class Submitter {
 public:
  Submitter(const Inputs& in, std::uint64_t seed, std::size_t slots)
      : in_(in), seed_(seed), recs_(slots), net_(kKeys, 0) {
    completions_.reserve(kCheckBatch);
  }

  std::size_t slots() const { return recs_.size(); }
  const Record& rec(std::size_t slot) const { return recs_[slot]; }

  void submit(serve::ServingTier& tier, const Req& q, std::size_t slot) {
    Record* rec = &recs_[slot];
    rec->completions.store(0, std::memory_order_relaxed);
    rec->submitStart = nowNs();
    tier.submit(serve::Request{q.op, q.key, valueOf(q.key, seed_)},
                [this, rec](const serve::Result& res) {
                  rec->doneNs = nowNs();
                  rec->rejected = res.rejected;
                  rec->ok = res.ok;
                  rec->hasValue = res.value.has_value();
                  rec->value = res.value.value_or(0);
                  rec->completions.fetch_add(1, std::memory_order_acq_rel);
                  done_.fetch_add(1, std::memory_order_release);
                });
    rec->submitEnd = nowNs();
    ++submitted_;
  }

  std::uint64_t outstanding() const {
    return submitted_ - done_.load(std::memory_order_acquire);
  }

  // Waits until fewer than `window` requests are outstanding, yielding the
  // CPU meanwhile (a thread spinning without yielding took a CPU the
  // executors needed).
  void waitBelow(std::uint64_t window) const {
    while (outstanding() >= window) std::this_thread::yield();
  }

  void drain() const { waitBelow(1); }

  // Folds a finished request into the checks; false when it was rejected.
  bool harvest(const Req& q, std::size_t slot) {
    const Record& rec = recs_[slot];
    completions_.push_back(rec.completions.load(std::memory_order_acquire));
    if (completions_.size() == kCheckBatch) checkCompletions();
    if (rec.rejected) {
      ++rejected_;
      return false;
    }
    const bool anchor = in_.isAnchor[static_cast<std::size_t>(q.key)] != 0;
    switch (q.op) {
      case serve::OpKind::kInsert:
        net_[static_cast<std::size_t>(q.key)] += rec.ok ? 1 : 0;
        break;
      case serve::OpKind::kErase:
        net_[static_cast<std::size_t>(q.key)] -= rec.ok ? 1 : 0;
        break;
      case serve::OpKind::kGet:
        if (rec.hasValue != rec.ok ||
            (rec.hasValue && rec.value != valueOf(q.key, seed_)))
          ++badValue_;
        anchorMiss_ += anchor && !rec.ok;
        break;
      case serve::OpKind::kContains:
        anchorMiss_ += anchor && !rec.ok;
        break;
    }
    return true;
  }

  // Checks against the final map, once the tier has stopped.
  void check(shard::ShardedMap& map, Result& r) {
    checkCompletions();
    r.check(onceError_.empty(), "serving completions: " + onceError_);
    r.opFailed("submission rejected", rejected_);
    r.opFailed("get returned a value the key was never given", badValue_);
    r.opFailed("read of an anchor key missed", anchorMiss_);
    map.quiesce();
    const std::vector<Key> keys = map.keysInOrder();
    const std::string sorted = checkSortedUnique(keys);
    r.check(sorted.empty(), "map keys: " + sorted);
    std::vector<std::uint8_t> present(kKeys, 0);
    bool inRange = true;
    for (const Key k : keys) {
      inRange &= k >= 0 && static_cast<std::uint64_t>(k) < kKeys;
      if (inRange) present[static_cast<std::size_t>(k)] = 1;
    }
    r.check(inRange, "map holds a key outside the key range");
    const std::string tally = checkKeyTally(in_.initial, net_, present);
    r.check(tally.empty(), "per-key tally from the results: " + tally);
  }

 private:
  const Inputs& in_;
  std::uint64_t seed_;
  std::vector<Record> recs_;
  std::uint64_t submitted_ = 0;
  std::atomic<std::uint64_t> done_{0};
  std::vector<std::int32_t> net_;
  std::vector<std::uint8_t> completions_;
  std::string onceError_;  // the first failed batch's verdict
  std::uint64_t rejected_ = 0, badValue_ = 0, anchorMiss_ = 0;

  void checkCompletions() {
    const std::string e = checkExactlyOnce(completions_);
    if (onceError_.empty()) onceError_ = e;
    completions_.clear();
  }
};

// One open-loop phase: latencies from due time, by request index (-1 for
// the other class); the vectors keep their capacity from phase to phase,
// so the benchmark's own memory does not move peak_rss_mb.
struct OpenLoop {
  std::vector<double> readNs, updateNs;
  std::int64_t maxLateNs = 0;
  std::size_t submitted = 0;  // a prefix of the phase's requests
  bool overloaded = false;
};

void runOpenLoop(Submitter& d, serve::ServingTier& tier,
                 const std::vector<Req>& reqs, bool guardBacklog,
                 OpenLoop& out) {
  out.maxLateNs = 0;
  out.submitted = 0;
  out.overloaded = false;
  out.readNs.assign(reqs.size(), -1.0);
  out.updateNs.assign(reqs.size(), -1.0);
  const std::int64_t start = nowNs() + 1'000'000;
  for (std::size_t i = 0; i < reqs.size() && i < d.slots(); ++i) {
    const std::int64_t due = start + reqs[i].dueOffset;
    std::int64_t now = nowNs();
    while (now < due) {
      std::this_thread::yield();
      now = nowNs();
    }
    out.maxLateNs = std::max(out.maxLateNs, now - due);
    d.submit(tier, reqs[i], i);
    ++out.submitted;
    if (guardBacklog && (i & 1023) == 1023 &&
        tier.queueDepth() > kMaxBacklog) {
      out.overloaded = true;
      break;
    }
  }
  d.drain();
  for (std::size_t i = 0; i < out.submitted; ++i) {
    if (!d.harvest(reqs[i], i)) continue;
    const double lat =
        static_cast<double>(d.rec(i).doneNs - (start + reqs[i].dueOffset));
    (serve::isReadOp(reqs[i].op) ? out.readNs : out.updateNs)[i] = lat;
  }
}

// A closed window: `window` requests outstanding until `total` requests
// have been made, kept in `ring` (one entry per record slot). Records each request's latency from its submit call to
// its completion, and the median over the whole 50 ms windows of the
// completion rate (req/s).
struct ClosedLoop {
  std::vector<double> readNs, updateNs;
  double ratePerS = 0;
};

void runClosedLoop(Submitter& d, serve::ServingTier& tier, Generator& gen,
                   std::uint64_t total, std::uint64_t window,
                   std::vector<Req>& ring, ClosedLoop& out) {
  const std::size_t slots = d.slots();
  std::vector<double> perWindow;
  const std::int64_t start = nowNs();
  const auto count = [&](std::size_t slot) {
    if (!d.harvest(ring[slot], slot)) return;
    const Record& rec = d.rec(slot);
    (serve::isReadOp(ring[slot].op) ? out.readNs : out.updateNs)
        .push_back(static_cast<double>(rec.doneNs - rec.submitStart));
    const auto w = static_cast<std::size_t>((rec.doneNs - start) / kWindowNs);
    if (w >= perWindow.size()) perWindow.resize(w + 1, 0.0);
    perWindow[w] += 1;
  };
  for (std::uint64_t n = 0; n < total; ++n) {
    d.waitBelow(window);
    const std::size_t slot = n % slots;
    if (n >= slots) {
      // A stalled executor may still hold this slot's old request.
      while (d.rec(slot).completions.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();
      count(slot);
    }
    ring[slot] = gen.next();
    d.submit(tier, ring[slot], slot);
  }
  d.drain();
  for (std::uint64_t i = total > slots ? total - slots : 0; i < total; ++i)
    count(static_cast<std::size_t>(i % slots));
  if (perWindow.size() > 1) perWindow.pop_back();  // the last is partial
  for (double& c : perWindow) c *= 1e9 / static_cast<double>(kWindowNs);
  out.ratePerS = median(perWindow);
}

// Samples in [from, to) of an index-aligned latency array (-1 = other class).
std::vector<double> slice(const std::vector<double>& v, std::size_t from,
                          std::size_t to) {
  std::vector<double> out;
  for (std::size_t i = from; i < to; ++i) {
    if (v[i] >= 0.0) out.push_back(v[i]);
  }
  return out;
}

// Latencies of the requests due in each kWindowNs window of an open loop,
// for reads, updates or both (windows without such requests are skipped).
std::vector<std::vector<double>> windowSamples(const std::vector<Req>& reqs,
                                               const OpenLoop& ph, bool reads,
                                               bool updates) {
  std::vector<std::vector<double>> out;
  std::size_t first = 0;
  const std::size_t n = std::min(reqs.size(), ph.submitted);
  for (std::int64_t end = kWindowNs; first < n; end += kWindowNs) {
    std::size_t last = first;
    while (last < n && reqs[last].dueOffset < end) ++last;
    std::vector<double> v;
    if (reads) v = slice(ph.readNs, first, last);
    if (updates) {
      const std::vector<double> u = slice(ph.updateNs, first, last);
      v.insert(v.end(), u.begin(), u.end());
    }
    if (!v.empty()) out.push_back(std::move(v));
    first = last;
  }
  return out;
}

// The p99 of the requests of the calmest quarter of the windows, ranked by
// their own p99: the tail the tier delivers while the host is not stalling
// its threads (see the comment at the top).
double calmP99(const std::vector<Req>& reqs, const OpenLoop& ph, bool reads,
               bool updates) {
  std::vector<std::vector<double>> w = windowSamples(reqs, ph, reads, updates);
  std::vector<std::pair<double, std::size_t>> rank;
  for (std::size_t i = 0; i < w.size(); ++i)
    rank.emplace_back(quantile(w[i], 0.99), i);
  std::sort(rank.begin(), rank.end());
  std::vector<double> pool;
  for (std::size_t i = 0; i < (rank.size() + 3) / 4; ++i)
    pool.insert(pool.end(), w[rank[i].second].begin(), w[rank[i].second].end());
  return quantile(pool, 0.99);
}

}  // namespace

void runServeOpenLoop(const Options& opt, Result& r) {
  // --- inputs -------------------------------------------------------------------
  // The layout (which key has which popularity rank, which keys start
  // present, the anchors) is fixed; the seed drives the request stream. A
  // seeded layout would move the hottest keys between the two executors'
  // queues and the two shards from run to run, and with Zipf 0.99 the top
  // ten keys carry a fifth of the load.
  Inputs in;
  in.rankToKey.resize(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) in.rankToKey[i] = static_cast<Key>(i);
  Rng shuffle(kLayoutSeed, 2);
  for (std::size_t i = kKeys - 1; i > 0; --i)
    std::swap(in.rankToKey[i], in.rankToKey[shuffle.below(i + 1)]);
  std::vector<Key> order(in.rankToKey);
  for (std::size_t i = kKeys - 1; i > 0; --i)
    std::swap(order[i], order[shuffle.below(i + 1)]);
  in.initial.assign(kKeys, 0);
  in.isAnchor.assign(kKeys, 0);
  for (std::uint64_t i = 0; i < kPresent; ++i)
    in.initial[static_cast<std::size_t>(order[i])] = 1;
  in.anchors.assign(order.begin(), order.begin() + kAnchors);
  for (const Key k : in.anchors) in.isAnchor[static_cast<std::size_t>(k)] = 1;

  Generator gen(in, opt.seed, 3);
  const double fixedSeconds = kFixedShare * opt.seconds;
  const double probeSeconds = kProbeShare * opt.seconds;
  const auto slots = static_cast<std::size_t>(
      std::max(kFixedRate * fixedSeconds, kLadderHi * probeSeconds) * 1.2 +
      kCapacityWindow);
  const std::uint64_t latencyRequests =
      kLatencyRequestsPerSecond * static_cast<std::uint64_t>(opt.seconds);
  const std::uint64_t capacityRequests =
      kCapacityRequestsPerSecond * static_cast<std::uint64_t>(opt.seconds);
  // Every buffer of the benchmark's own is sized and touched here, so the
  // measured phases do not move peak_rss_mb by however many requests they
  // happened to make.
  std::vector<Req> fixed(slots), reqs(slots);
  gen.make(kFixedRate, fixedSeconds, fixed);
  OpenLoop ph, po;
  for (OpenLoop* o : {&ph, &po}) {
    o->readNs.resize(slots);
    o->updateNs.resize(slots);
  }
  ClosedLoop lat, cap;
  for (ClosedLoop* c : {&lat, &cap}) {
    c->readNs.resize(latencyRequests);
    c->updateNs.resize(latencyRequests / 8);
    c->readNs.clear();
    c->updateNs.clear();
  }

  // --- set-up ------------------------------------------------------------------
  shard::MaintenanceSchedulerConfig schedCfg;
  schedCfg.workers = 1;
  shard::MaintenanceScheduler scheduler(schedCfg);
  shard::ShardedMapConfig mapCfg;
  mapCfg.shards = 2;
  mapCfg.scheduler = &scheduler;
  shard::ShardedMap map(mapCfg);
  bool populated = true;
  for (std::uint64_t i = 0; i < kPresent; ++i) {
    populated &= map.insert(order[i], valueOf(order[i], opt.seed));
  }
  r.check(populated, "populate: an insert of a fresh key returned false");
  waitMaintenanceIdle([&map] { return mapMaintenanceWork(map); });
  Submitter d(in, opt.seed, slots);
  serve::ServingTierConfig tierCfg;
  tierCfg.executors = 2;
  serve::ServingTier tier(map, tierCfg);
  const double setupS = static_cast<double>(nowNs() - processStartNs()) / 1e9;

  // --- phase 1: latency; phase 2: capacity -------------------------------
  const LayerSnapshot before = LayerSnapshot::of(map, scheduler);
  const serve::ServingTierStats tierBefore = tier.stats();
  std::uint64_t attempted = 0;
  runClosedLoop(d, tier, gen, latencyRequests, kLatencyWindow, reqs, lat);
  runClosedLoop(d, tier, gen, capacityRequests, kCapacityWindow, reqs, cap);
  attempted += latencyRequests + capacityRequests;
  r.aux("latency_phase.req_per_s", lat.ratePerS);

  // --- phase 3: open loop at a fixed rate ----------------------------------
  runOpenLoop(d, tier, fixed, false, ph);
  const LayerSnapshot after = LayerSnapshot::of(map, scheduler);
  const serve::ServingTierStats tierAfter = tier.stats();
  attempted += ph.submitted;
  std::vector<double> openReads = slice(ph.readNs, 0, ph.submitted);
  std::vector<double> openUpdates = slice(ph.updateNs, 0, ph.submitted);
  r.aux("open.read_p50_us", quantile(openReads, 0.50) / 1e3);
  r.aux("open.read_p99_us", quantile(openReads, 0.99) / 1e3);
  r.aux("open.read_p99_us_calm_quarter", calmP99(fixed, ph, true, false) / 1e3);
  r.aux("open.update_p99_us", quantile(openUpdates, 0.99) / 1e3);
  r.aux("open.gen_late_us_max", static_cast<double>(ph.maxLateNs) / 1e3);

  // Spans of the open loop: the submit call, and the request's life from
  // submit return to its completion callback (its queueing and execution
  // inside the tier), sharing the request id.
  SpanLog spans(1, 1);
  if (opt.trace) {
    for (std::size_t i = 0; i < ph.submitted; ++i) {
      const Record& rec = d.rec(i);
      spans.record(0, "serve.submit", i, 0, rec.submitStart, rec.submitEnd);
      spans.record(0, "serve.complete", i, i, rec.submitEnd, rec.doneNs);
    }
  }

  // --- phase 4: the highest open-loop rate within the latency limit -----------
  double lo = kLadderLo, hi = kLadderHi, maxRate = 0.0;
  for (int p = 0; p < kProbes; ++p) {
    const double rate = std::sqrt(lo * hi);
    gen.make(rate, probeSeconds, reqs);
    runOpenLoop(d, tier, reqs, true, po);
    attempted += po.submitted;
    const bool pass =
        !po.overloaded && calmP99(reqs, po, true, true) <= kLimitUs * 1e3;
    (pass ? lo : hi) = rate;
    if (pass) maxRate = rate;
  }
  r.aux("max_rate_under_slo", maxRate);
  r.attempted = attempted;

  // --- checks ----------------------------------------------------------------------
  tier.stop();
  d.check(map, r);

  // --- metrics -------------------------------------------------------------------
  r.aux("throughput", cap.ratePerS);
  if (!opt.trace) {
    r.setEndToEnd("setup_s", "s", setupS);
    r.setEndToEnd("ops_per_s", "ops/s", cap.ratePerS);
    reportLatency(r, "read", std::move(lat.readNs));
    reportLatency(r, "update", std::move(lat.updateNs));
    r.setEndToEnd("peak_rss_mb", "MiB", peakRssMb());
    return;
  }

  const double updates = static_cast<double>(
      lat.updateNs.size() + cap.updateNs.size() + openUpdates.size());
  reportLayers(r, before, after, updates);
  reportArenas(r, map);
  r.set("serve.submit_ns", median(spans.durations("serve.submit")));
  r.set("serve.completion_lag_us",
        median(spans.durations("serve.complete")) / 1e3);
  r.set("serve.batch_tx_us_p99",
        histDeltaQuantile(tierBefore.batchNs, tierAfter.batchNs, 0.99) / 1e3);
  r.set("serve.batch_fill",
        histDeltaMean(tierBefore.batchFill, tierAfter.batchFill));
  r.set("serve.per_op_tx_share",
        static_cast<double>(tierAfter.perOpTxs - tierBefore.perOpTxs) /
            static_cast<double>(tierAfter.completed - tierBefore.completed));
  r.set("serve.conflict_fallbacks",
        static_cast<double>(tierAfter.conflictFallbacks -
                            tierBefore.conflictFallbacks));
  r.set("serve.max_queue_depth", static_cast<double>(tierAfter.maxQueueDepth));
  r.set("serve.gen_late_us_max", static_cast<double>(ph.maxLateNs) / 1e3);
  r.aux("trace.spans_kept", static_cast<double>(spans.size()));
  r.check(spans.write(opt.outDir + "/serve-openloop-" +
                      std::to_string(opt.seed) + ".trace.json"),
          "could not write the trace file");
}

}  // namespace pb
