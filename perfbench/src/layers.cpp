#include "layers.hpp"

namespace pb {

namespace shard = sftree::shard;
namespace trees = sftree::trees;

LayerSnapshot LayerSnapshot::of(trees::SFTree& tree) {
  return {tree.domain().aggregateStats(), tree.maintenanceStats(), {}};
}

LayerSnapshot LayerSnapshot::of(shard::ShardedMap& map,
                                const shard::MaintenanceScheduler& sched) {
  shard::ShardedMapStats s = map.aggregatedStats();
  return {s.stm, s.maintenance, sched.stats()};
}

void reportLayers(Result& r, const LayerSnapshot& before,
                  const LayerSnapshot& after, double updates) {
  const StmDelta s = stmDelta(before.stm, after.stm);
  r.set("trees.reads_per_op", s.ops > 0 ? s.opReads / s.ops : 0.0);
  const trees::MaintenanceStats& mb = before.maintenance;
  const trees::MaintenanceStats& ma = after.maintenance;
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  r.set("trees.rotations_per_kupdate",
        delta(ma.rotations, mb.rotations) / (updates / 1000.0));
  r.set("trees.removals_per_kupdate",
        delta(ma.removals, mb.removals) / (updates / 1000.0));
  r.set("trees.maint_visits_per_update",
        delta(ma.nodesVisited, mb.nodesVisited) / updates);
  r.set("trees.maint_pass_us_p99",
        histDeltaQuantile(mb.passNs, ma.passNs, 0.99) / 1e3);
  r.set("trees.vq_overflows", delta(ma.queue.overflows, mb.queue.overflows));
  r.set("gc.freed_share", delta(ma.nodesFreed, mb.nodesFreed) /
                              delta(ma.nodesRetired, mb.nodesRetired));
  const double attempts =
      s.commits + s.aborts + s.restartsRoExt + s.restartsRoPromo;
  r.set("stm.useful_ratio", s.commits / attempts);
  r.set("stm.aborts.read_validation", s.abortReadValidation);
  r.set("stm.aborts.lock_conflict", s.abortLockConflict);
  r.set("stm.aborts.elastic_validation", s.abortElasticValidation);
  r.set("stm.aborts.cross_domain_join", s.abortCrossDomainJoin);
  r.set("stm.restarts.ro_snapshot_extension", s.restartsRoExt);
  r.set("stm.restarts.ro_promotion", s.restartsRoPromo);
  r.set("stm.ro_commit_share", s.roCommits / s.commits);
  r.set("stm.reads_per_commit", s.reads / s.commits);
  r.set("stm.writes_per_commit", s.writes / s.commits);
  r.set("stm.tx_commit_ns_p50", s.commitNsP50);
  r.set("stm.tx_commit_ns_p99", s.commitNsP99);
  const shard::SchedulerStats& sb = before.scheduler;
  const shard::SchedulerStats& sa = after.scheduler;
  if (sa.passes > sb.passes) {
    r.set("shard.sched_active_share",
          delta(sa.activePasses, sb.activePasses) /
              delta(sa.passes, sb.passes));
  }
}

namespace {
void reportArenaTotals(Result& r, double slabs, double liveBlocks) {
  const double bytes =
      slabs * static_cast<double>(sftree::mem::SlabArena::kSlabBytes);
  r.set("mem.arena_mb", bytes / (1024.0 * 1024.0));
  r.set("mem.live_blocks", liveBlocks);
  r.set("mem.arena_bytes_per_live_block", bytes / liveBlocks);
}
}  // namespace

void reportArenas(Result& r, const trees::SFTree& tree) {
  const auto& a = tree.arenaForStats();
  reportArenaTotals(r, static_cast<double>(a.slabCount()),
                    static_cast<double>(a.liveBlocks()));
}

void reportArenas(Result& r, shard::ShardedMap& map) {
  double slabs = 0, live = 0;
  for (int i = 0; i < map.shardCount(); ++i) {
    const auto& a = map.shard(i).arenaForStats();
    slabs += static_cast<double>(a.slabCount());
    live += static_cast<double>(a.liveBlocks());
  }
  reportArenaTotals(r, slabs, live);
}

std::pair<std::uint64_t, std::uint64_t> mapMaintenanceWork(
    shard::ShardedMap& map) {
  const shard::ShardedMapStats s = map.aggregatedStats();
  std::uint64_t depth = 0;
  for (const auto d : s.shardQueueDepths) depth += d;
  return {s.maintenance.rotations + s.maintenance.removals, depth};
}

}  // namespace pb
