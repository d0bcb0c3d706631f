// Per-layer counters read from the program's public statistics across a
// measured phase, and the per-layer metrics every workload derives from
// them the same way.
#pragma once

#include <utility>

#include "common.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"
#include "trees/sftree.hpp"

namespace pb {

struct LayerSnapshot {
  sftree::stm::ThreadStats stm;
  sftree::trees::MaintenanceStats maintenance;
  sftree::shard::SchedulerStats scheduler;  // zero for a bare tree

  static LayerSnapshot of(sftree::trees::SFTree& tree);
  static LayerSnapshot of(sftree::shard::ShardedMap& map,
                          const sftree::shard::MaintenanceScheduler& sched);
};

// stm.*, gc.freed_share, trees.reads_per_op and the maintenance work per
// update between two snapshots; `updates` is the update operations the
// workload made in between.
void reportLayers(Result& r, const LayerSnapshot& before,
                  const LayerSnapshot& after, double updates);

// mem.* over the arenas of a tree or of every shard of a map.
void reportArenas(Result& r, const sftree::trees::SFTree& tree);
void reportArenas(Result& r, sftree::shard::ShardedMap& map);

// Restructuring done so far and repair work queued, for
// waitMaintenanceIdle.
std::pair<std::uint64_t, std::uint64_t> mapMaintenanceWork(
    sftree::shard::ShardedMap& map);

}  // namespace pb
