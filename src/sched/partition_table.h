#ifndef OIJ_SCHED_PARTITION_TABLE_H_
#define OIJ_SCHED_PARTITION_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace oij {

/// One key-partition schedule: partition -> virtual team (paper §V-B1).
///
/// Keys hash into `num_partitions` contiguous hash ranges; each partition
/// is owned by a *team* of joiners. Every team member writes its own index
/// (tuples of the partition are spread across members) and reads all team
/// members' indexes when joining — the SWMR index makes that safe.
///
/// Rebalancing only ever *adds* members to a team (replication, never
/// migration), mirroring the paper: "we only allow sharing the ownership
/// of a partition rather than transferring". Consequently a joiner that
/// held a partition under schedule v remains in its team under v+1, which
/// keeps tuples already queued to it joinable and makes schedule changes
/// correct without draining.
struct Schedule {
  uint64_t version = 0;
  uint32_t num_joiners = 0;
  /// teams[p] = sorted list of joiner ids sharing partition p.
  std::vector<std::vector<uint32_t>> teams;

  uint32_t num_partitions() const {
    return static_cast<uint32_t>(teams.size());
  }

  /// The static one-joiner-per-partition schedule Key-OIJ uses, and the
  /// starting point for Scale-OIJ's dynamic schedule. With no joiners
  /// every team is empty: engines build their table at construction, and
  /// that configuration must survive until Start() rejects it.
  static std::shared_ptr<const Schedule> MakeStatic(uint32_t num_partitions,
                                                    uint32_t num_joiners);
};

/// Atomically published schedule (paper: "atomically replaced after a new
/// schedule"). The router publishes; router and joiners snapshot. A mutex
/// guards the pointer rather than std::atomic<std::shared_ptr>: libstdc++
/// 12 releases that type's internal lock with a relaxed store, which
/// leaves ThreadSanitizer without a happens-before edge. Joiners check
/// version() per drain and snapshot only when it moved, so the lock is
/// off the per-tuple path.
class PartitionTable {
 public:
  PartitionTable(uint32_t num_partitions, uint32_t num_joiners)
      : current_(Schedule::MakeStatic(num_partitions, num_joiners)) {}

  std::shared_ptr<const Schedule> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  void Publish(std::shared_ptr<const Schedule> schedule) {
    const uint64_t version = schedule->version;
    {
      // Swap under the lock; the old schedule is released after it.
      std::lock_guard<std::mutex> lock(mu_);
      current_.swap(schedule);
    }
    version_.store(version, std::memory_order_release);
  }

  /// Version of the newest published schedule. A reader that sees it
  /// differ from its snapshot's takes a new Snapshot().
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Partition of a key (shared by every component so routing and stats
  /// agree).
  static uint32_t PartitionOf(Key key, uint32_t num_partitions) {
    return RangePartition(Mix64(key), num_partitions);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Schedule> current_;  // guarded by mu_
  std::atomic<uint64_t> version_{0};
};

}  // namespace oij

#endif  // OIJ_SCHED_PARTITION_TABLE_H_
