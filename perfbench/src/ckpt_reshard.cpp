// ckpt-reshard-live: the operator plane under live writers. A 4-shard
// ShardedMap of 2^20 keys (drawn from a 2^21 range) with one maintenance
// worker; two writer threads run atomic moves whose keys both lie in 8 of
// the 64 routing slots, each move followed by a get of its destination.
// Each writer owns its own keys, so every move must succeed and every get
// must return the moved value, and the key count never changes. Meanwhile
// the main thread runs whole rounds of: a full checkpoint, an incremental
// one, a splitShard and the matching mergeShards. The writers then stop,
// and every checkpoint is restored with 2 loader threads (the main thread,
// the loaders and the maintenance worker: 4 threads).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <unistd.h>

#include "checks.hpp"
#include "ckpt/checkpoint.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace ckpt = sftree::ckpt;
namespace shard = sftree::shard;
namespace fs = std::filesystem;

constexpr std::uint64_t kRange = std::uint64_t{1} << 21;
constexpr std::uint64_t kInitial = std::uint64_t{1} << 20;
constexpr int kShards = 4;
constexpr int kHotSlots = 8;
constexpr int kWriters = 2;
constexpr int kLoaders = 2;
// Operator rounds per --seconds (at least one), and the writers-alone
// window before them that ckpt.writer_ops_ratio compares against.
constexpr int kSecondsPerRound = 4;
constexpr double kBaselineShare = 0.1;
constexpr std::uint64_t kLatencyStride = 4;
constexpr std::size_t kMaxKeptSpans = 200'000;

Value valueOf(Key k, std::uint64_t seed) {
  return static_cast<Value>(mix64(static_cast<std::uint64_t>(k) ^
                                  (seed * 0xa0761d6478bd642fULL)) >>
                            1);
}

struct Writer {
  std::vector<std::pair<Key, Value>> present;  // keys this writer owns
  std::vector<Key> absent;
  std::atomic<std::uint64_t> moves{0};
  std::uint64_t failedMoves = 0, badReads = 0;
  std::vector<double> moveNs, getNs;
};


double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

void runCkptReshardLive(const Options& opt, Result& r) {
  const std::string root =
      opt.outDir + "/ckpt-" + std::to_string(opt.seed) + "-" +
      std::to_string(static_cast<long long>(getpid()));
  fs::remove_all(root);

  // --- set-up: construct and populate (inputs from the seed) ----------------
  shard::MaintenanceSchedulerConfig schedCfg;
  schedCfg.workers = 1;
  shard::MaintenanceScheduler scheduler(schedCfg);
  shard::ShardedMapConfig mapCfg;
  mapCfg.shards = kShards;
  mapCfg.scheduler = &scheduler;
  auto mapOwner = std::make_unique<shard::ShardedMap>(mapCfg);
  shard::ShardedMap& map = *mapOwner;

  Rng rng(opt.seed, 1);
  std::vector<std::uint8_t> initial(kRange, 0);
  std::vector<Key> initialKeys;
  initialKeys.reserve(kInitial);
  while (initialKeys.size() < kInitial) {
    const Key k = static_cast<Key>(rng.below(kRange));
    if (initial[static_cast<std::size_t>(k)] != 0) continue;
    initial[static_cast<std::size_t>(k)] = 1;
    initialKeys.push_back(k);
  }
  std::vector<int> slots(static_cast<std::size_t>(map.routingSlots()));
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = static_cast<int>(i);
  for (std::size_t i = slots.size() - 1; i > 0; --i)
    std::swap(slots[i], slots[rng.below(i + 1)]);
  std::vector<std::uint8_t> hot(slots.size(), 0);
  for (int i = 0; i < kHotSlots; ++i) hot[static_cast<std::size_t>(slots[i])] = 1;

  std::vector<Writer> writers(kWriters);
  std::vector<std::pair<Key, Value>> untouched;  // keys no writer owns
  for (std::uint64_t k = 0; k < kRange; ++k) {
    const Key key = static_cast<Key>(k);
    const bool present = initial[k] != 0;
    if (hot[map.slotOfKey(key)] == 0) {
      if (present) untouched.emplace_back(key, valueOf(key, opt.seed));
      continue;
    }
    Writer& w = writers[mix64(k ^ opt.seed) & 1];
    if (present) {
      w.present.emplace_back(key, valueOf(key, opt.seed));
    } else {
      w.absent.push_back(key);
    }
  }
  {
    // Three loaders, the main thread among them, plus the maintenance
    // worker: the same 4 threads as the measured phase.
    std::atomic<bool> populated{true};
    const auto load = [&](int t) {
      for (std::size_t i = static_cast<std::size_t>(t); i < kInitial; i += 3) {
        const Key k = initialKeys[i];
        if (!map.insert(k, valueOf(k, opt.seed))) populated.store(false);
      }
    };
    std::vector<std::thread> loaders;
    for (int t = 1; t < 3; ++t) loaders.emplace_back(load, t);
    load(0);
    for (auto& t : loaders) t.join();
    r.check(populated.load(), "populate: an insert of a fresh key returned "
                              "false");
  }
  waitMaintenanceIdle([&map] { return mapMaintenanceWork(map); });
  const double setupS = seconds(nowNs() - processStartNs());

  // --- writers -----------------------------------------------------------------
  SpanLog spans(kWriters, 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writerThreads;
  const std::uint64_t spanStride = 8;
  for (int wi = 0; wi < kWriters; ++wi) {
    writerThreads.emplace_back([&, wi] {
      Writer& w = writers[static_cast<std::size_t>(wi)];
      Rng wr(opt.seed, 10 + static_cast<std::uint64_t>(wi));
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::size_t pi = wr.below(w.present.size());
        const std::size_t ai = wr.below(w.absent.size());
        const auto [from, value] = w.present[pi];
        const Key to = w.absent[ai];
        const bool timed =
            opt.trace ? i % spanStride == 0 &&
                            i / spanStride < kMaxKeptSpans / kWriters
                      : i % kLatencyStride == 0;
        const std::int64_t t0 = timed ? nowNs() : 0;
        const bool moved = map.move(from, to);
        const std::int64_t t1 = timed ? nowNs() : 0;
        const std::optional<Value> got = map.get(to);
        const std::int64_t t2 = timed ? nowNs() : 0;
        if (timed && opt.trace) {
          spans.record(wi, "shard.move", i, 0, t0, t1);
          spans.record(wi, "shard.get", i, 0, t1, t2);
        } else if (timed) {
          w.moveNs.push_back(static_cast<double>(t1 - t0));
          w.getNs.push_back(static_cast<double>(t2 - t1));
        }
        if (!moved) {
          ++w.failedMoves;
          continue;
        }
        w.present[pi] = {to, value};
        w.absent[ai] = from;
        if (got != value) ++w.badReads;
        w.moves.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const auto totalMoves = [&] {
    std::uint64_t n = 0;
    for (const Writer& w : writers) n += w.moves.load(std::memory_order_relaxed);
    return n;
  };

  // --- measured phase: writers alone, then operator rounds under them ------
  const std::int64_t baseStart = nowNs();
  const std::uint64_t baseMoves0 = totalMoves();
  std::this_thread::sleep_for(std::chrono::duration<double>(
      kBaselineShare * opt.seconds));
  const double baselineRate =
      static_cast<double>(totalMoves() - baseMoves0) /
      seconds(nowNs() - baseStart);

  const LayerSnapshot before = LayerSnapshot::of(map, scheduler);
  const shard::ReshardStats reshardBefore = map.reshardStats();
  const int rounds = std::max(1, opt.seconds / kSecondsPerRound);
  std::vector<double> fullS, incrS, splitS, mergeS, reshardS, bytesPerKey,
      streamS, writeS, streamRatio;
  double ckptRounds = 0, forcedCuts = 0, reusedSegments = 0;
  std::vector<std::string> underWriterDirs;
  const std::int64_t opStart = nowNs();
  const std::uint64_t opMoves0 = totalMoves();
  for (int round = 0; round < rounds; ++round) {
    const std::string dir = root + "/round" + std::to_string(round);
    ckpt::CheckpointConfig cc;
    cc.dir = dir;
    ckpt::CheckpointWriter writer(map, cc);
    const std::uint64_t m0 = totalMoves();
    std::int64_t t0 = nowNs();
    const ckpt::CheckpointResult full = writer.full();
    std::int64_t t1 = nowNs();
    streamRatio.push_back(static_cast<double>(totalMoves() - m0) /
                          seconds(t1 - t0) / baselineRate);
    fullS.push_back(seconds(t1 - t0));
    // Keep the full image restorable on its own: the incremental below
    // becomes the newest checkpoint in `dir`.
    const std::string fullDir = dir + "-full";
    std::error_code ec;
    fs::create_directories(fullDir, ec);
    if (full.ok) {
      fs::copy_file(full.path, fullDir + "/" + fs::path(full.path).filename().string(),
                    ec);
      r.check(!ec, "could not copy a checkpoint file: " + ec.message());
    }
    t0 = nowNs();
    const ckpt::CheckpointResult incr = writer.incremental();
    t1 = nowNs();
    incrS.push_back(seconds(t1 - t0));
    for (const ckpt::CheckpointResult* c : {&full, &incr}) {
      if (!c->ok) r.opFailed("checkpoint returned ok == false");
      ckptRounds += c->rounds;
      forcedCuts += c->forcedCut ? 1 : 0;
    }
    reusedSegments += static_cast<double>(incr.reusedSegments);
    streamS.push_back(static_cast<double>(full.streamNs) / 1e9);
    writeS.push_back(static_cast<double>(full.writeNs) / 1e9);
    bytesPerKey.push_back(static_cast<double>(full.bytesWritten +
                                              incr.bytesWritten) /
                          static_cast<double>(std::max<std::uint64_t>(full.keys, 1)));
    underWriterDirs.push_back(fullDir);
    underWriterDirs.push_back(dir);

    const int victimOwner = map.slotOwners()[static_cast<std::size_t>(slots[0])];
    t0 = nowNs();
    const int fresh = map.splitShard(victimOwner);
    t1 = nowNs();
    const bool merged = fresh >= 0 && map.mergeShards(fresh, victimOwner);
    const std::int64_t t2 = nowNs();
    if (fresh < 0) r.opFailed("splitShard refused");
    if (fresh >= 0 && !merged) r.opFailed("mergeShards refused");
    splitS.push_back(seconds(t1 - t0));
    mergeS.push_back(seconds(t2 - t1));
    reshardS.push_back(seconds(t2 - t0));
  }
  const std::int64_t opEnd = nowNs();
  const std::uint64_t opMoves = totalMoves() - opMoves0;
  stop.store(true);
  for (auto& t : writerThreads) t.join();
  const LayerSnapshot after = LayerSnapshot::of(map, scheduler);
  const shard::ReshardStats reshardAfter = map.reshardStats();
  reportArenas(r, map);
  // Attempted: the operator actions plus every writer move and its read.
  std::uint64_t allMoves = 0;
  for (Writer& w : writers) {
    allMoves += w.moves.load() + w.failedMoves;
    r.opFailed("move of an owned key to an owned free key returned false",
               w.failedMoves);
    r.opFailed("get after a move returned another value", w.badReads);
  }
  r.attempted = 2 * allMoves + 4 * static_cast<std::uint64_t>(rounds);

  // --- checks: live map, then every checkpoint ------------------------------
  std::vector<std::pair<Key, Value>> model = untouched;
  for (const Writer& w : writers)
    model.insert(model.end(), w.present.begin(), w.present.end());
  std::sort(model.begin(), model.end());
  r.check(map.shardCount() == kShards,
          "shard count after split and merge is " +
              std::to_string(map.shardCount()));
  map.quiesce();
  std::vector<Key> modelKeys(model.size());
  std::transform(model.begin(), model.end(), modelKeys.begin(),
                 [](const auto& kv) { return kv.first; });
  r.check(map.keysInOrder() == modelKeys,
          "live map keys differ from the writers' model");
  std::uint64_t notFound = 0;
  for (const auto& [k, v] : model) notFound += map.get(k) != v;
  r.check(notFound == 0, std::to_string(notFound) +
                             " keys not found with their value after the "
                             "split and merge");

  ckpt::RestoreOptions ro;
  ro.mapConfig = mapCfg;
  ro.parallelism = kLoaders;
  std::vector<double> restoreS, restoreRate;
  const auto restoreFrom = [&](const std::string& dir)
      -> std::unique_ptr<shard::ShardedMap> {
    ckpt::RestoreReport rep;
    const std::int64_t t0 = nowNs();
    auto restored = ckpt::restore(dir, ro, rep);
    const std::int64_t t1 = nowNs();
    if (!rep.ok || !restored) {
      r.opFailed("restore returned ok == false");
      return nullptr;
    }
    restoreS.push_back(seconds(t1 - t0));
    restoreRate.push_back(static_cast<double>(rep.keys) / seconds(t1 - t0));
    return restored;
  };
  for (const std::string& dir : underWriterDirs) {
    auto restored = restoreFrom(dir);
    if (!restored) continue;
    const std::string count = checkImageCount(restored->keysInOrder(), kInitial);
    r.check(count.empty(), "checkpoint in " + dir + ": " + count);
  }

  const std::string finalDir = root + "/final";
  double validateS = 0;
  {
    ckpt::CheckpointConfig cc;
    cc.dir = finalDir;
    ckpt::CheckpointWriter writer(map, cc);
    if (!writer.full().ok) r.opFailed("checkpoint returned ok == false");
    const std::int64_t t0 = nowNs();
    r.check(ckpt::newestValidCheckpoint(finalDir).has_value(),
            "the final checkpoint does not validate");
    validateS = seconds(nowNs() - t0);
  }
  if (auto restored = restoreFrom(finalDir)) {
    std::vector<std::pair<Key, Value>> image;
    image.reserve(model.size());
    for (const Key k : restored->keysInOrder())
      image.emplace_back(k, restored->get(k).value_or(-1));
    const std::string eq = checkImageEquals(model, image);
    r.check(eq.empty(), "final checkpoint vs the live map: " + eq);
  }
  r.attempted += 1 + underWriterDirs.size() + 1;

  // --- metrics -------------------------------------------------------------------
  const double opsPerS = static_cast<double>(opMoves) / seconds(opEnd - opStart);
  r.aux("throughput", opsPerS);
  r.aux("rounds", rounds);
  r.aux("ckpt.full_s", median(fullS));
  r.aux("ckpt.incr_s", median(incrS));
  r.aux("ckpt.restore_s", median(restoreS));
  r.aux("ckpt.bytes_per_key", median(bytesPerKey));
  r.aux("shard.reshard_s", median(reshardS));
  if (!opt.trace) {
    r.setEndToEnd("setup_s", "s", setupS);
    r.setEndToEnd("ops_per_s", "ops/s", opsPerS);
    std::vector<double> getNs, moveNs;
    for (Writer& w : writers) {
      getNs.insert(getNs.end(), w.getNs.begin(), w.getNs.end());
      moveNs.insert(moveNs.end(), w.moveNs.begin(), w.moveNs.end());
    }
    reportLatency(r, "read", std::move(getNs));
    reportLatency(r, "update", std::move(moveNs));
    r.setEndToEnd("peak_rss_mb", "MiB", peakRssMb());
    fs::remove_all(root);
    return;
  }

  // Each move is an erase and an insert.
  reportLayers(r, before, after, 2.0 * static_cast<double>(opMoves));
  r.set("shard.move_ns", median(spans.durations("shard.move")));
  r.set("shard.split_s", median(splitS));
  r.set("shard.merge_s", median(mergeS));
  r.set("shard.reshard_s", median(reshardS));
  r.set("shard.keys_migrated",
        static_cast<double>(reshardAfter.keysMigrated -
                            reshardBefore.keysMigrated));
  r.set("shard.migration_batch_us_p99",
        histDeltaQuantile(reshardBefore.migrationBatchNs,
                          reshardAfter.migrationBatchNs, 0.99) /
            1e3);
  r.set("shard.migration_batch_shrinks",
        static_cast<double>(reshardAfter.batchShrinks -
                            reshardBefore.batchShrinks));
  r.set("ckpt.full_s", median(fullS));
  r.set("ckpt.incr_s", median(incrS));
  r.set("ckpt.restore_s", median(restoreS));
  r.set("ckpt.bytes_per_key", median(bytesPerKey));
  r.set("ckpt.stream_s", median(streamS));
  r.set("ckpt.write_s", median(writeS));
  r.set("ckpt.rounds", ckptRounds);
  r.set("ckpt.forced_cuts", forcedCuts);
  r.set("ckpt.reused_segments", reusedSegments);
  r.set("ckpt.validate_s", validateS);
  r.set("ckpt.restore_keys_per_s", median(restoreRate));
  r.set("ckpt.writer_ops_ratio", median(streamRatio));
  r.aux("trace.spans_kept", static_cast<double>(spans.size()));
  r.check(spans.write(opt.outDir + "/ckpt-reshard-live-" +
                      std::to_string(opt.seed) + ".trace.json"),
          "could not write the trace file");
  fs::remove_all(root);
}

}  // namespace pb
