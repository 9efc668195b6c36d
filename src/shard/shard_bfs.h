// The distributed direction-optimizing sweep over a ShardedStore — the one
// multi-GCD BFS in the repository (benches, examples and sharded serving run
// it).  Graph500-style 1D row partitioning: every shard holds the full
// adjacency of its owned vertex range plus a *global* frontier bitmap.
// Per level:
//   top-down  — owned frontier vertices expand, marking neighbor candidate
//               bits; candidates travel to their owners, owners claim the
//               unvisited ones and broadcast the cleaned frontier slice;
//   bottom-up — owned unvisited vertices probe the local copy of the global
//               frontier bitmap with early termination (no candidate
//               exchange at all).
// The direction follows the XBFS alpha policy on the globally allreduced
// frontier-edge count.  On top of that structure:
//
//   * plan-driven execution — the caller hands run() one replica index per
//     shard; kLost marks a shard with no healthy replica, whose vertex
//     range simply never participates.  The result is then exactly BFS on
//     the subgraph with the lost shards' vertices removed (partial=true,
//     lost ranges stay -1), which is what lets serving degrade instead
//     of fail.  A plain multi-GCD run is `run(src, std::vector<int>(g, 0))`
//     over a single-replica store.
//   * compressed frontier exchange — candidate and cleaned slices travel
//     bitmap- or delta-varint-encoded (shard/frontier_codec.h), and the
//     modelled fabric is charged the encoded bytes, not the raw bitmap.
//   * 2D promotion for exchange-heavy levels — when the layout's grid has
//     more than one column, each top-down exchange is priced both flat
//     (one collective over all live shards) and two-phase (candidates
//     within grid-column groups, cleaned broadcast along grid rows — the
//     Buluc/Beamer 2D pattern with sqrt(p)-sized groups) and the cheaper
//     form is charged; ShardLevelStats::two_phase records the choice.
//
// Observability (docs/observability.md), each gated on its session: phase
// spans on the `dist-phases` track and level spans on `dist-levels` of the
// coordinator lane (pid 0, "dist-coordinator"), a `decide:<direction>`
// instant per level, one `dist_bfs.run` span, the `dist_local_ms` /
// `dist_comm_ms` histograms and a `"dist_bfs"` run-report record.
//
// A kernel fault on any replica surfaces as ShardSweepFault naming the
// (shard, replica) slot so the server can penalize exactly that breaker
// and reroute.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "shard/sharded_store.h"

namespace xbfs::shard {

struct ShardSweepConfig {
  double alpha = 0.1;  ///< bottom-up threshold on the global frontier ratio
};

struct ShardLevelStats {
  std::uint32_t level = 0;
  bool bottom_up = false;
  bool two_phase = false;  ///< 2D-promoted exchange was the cheaper form
  std::uint64_t frontier_count = 0;
  std::uint64_t frontier_edges = 0;
  double ratio = 0.0;
  double local_ms = 0.0;
  double comm_ms = 0.0;
  std::uint64_t raw_bytes = 0;   ///< uncompressed exchange payload
  std::uint64_t wire_bytes = 0;  ///< encoded payload the fabric was charged
};

struct ShardSweepResult {
  std::vector<std::int32_t> levels;  ///< global; -1 unreached or lost range
  std::vector<ShardLevelStats> level_stats;
  double total_ms = 0.0;
  double comm_ms = 0.0;
  std::uint64_t edges_traversed = 0;
  double gteps = 0.0;
  std::uint32_t depth = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t wire_bytes = 0;
  unsigned shards_live = 0;
  unsigned shards_lost = 0;
  bool partial = false;  ///< any shard was lost: lost ranges are all -1
};

/// An injected device fault inside the sweep, tagged with the slot that
/// faulted so the server can penalize and reroute precisely.
class ShardSweepFault : public std::runtime_error {
 public:
  ShardSweepFault(unsigned shard, unsigned replica, const std::string& what)
      : std::runtime_error(what), shard_(shard), replica_(replica) {}
  unsigned shard() const { return shard_; }
  unsigned replica() const { return replica_; }

 private:
  unsigned shard_;
  unsigned replica_;
};

class ShardSweep {
 public:
  static constexpr int kLost = -1;

  /// The store must outlive the sweep.  The sweep itself holds no device
  /// state — everything lives in the store's replicas, so one sweep object
  /// may be reused across runs and plans.
  explicit ShardSweep(ShardedStore& store, ShardSweepConfig cfg = {});

  /// Run one source through the plan (`plan[s]` = replica index for shard
  /// s, or kLost).  The caller owns the chosen replicas' locks for the
  /// duration (ShardedStore::Replica::mu) — the sweep does not lock.
  /// Throws std::invalid_argument when the plan is malformed, the source is
  /// not a vertex of the graph, or the source's owner shard is lost (no
  /// meaningful result exists), and ShardSweepFault on an injected device
  /// fault.
  ShardSweepResult run(graph::vid_t src, const std::vector<int>& plan);

 private:
  struct Exchange {  ///< one level's encoded-exchange accounting
    std::uint64_t raw = 0;
    std::uint64_t wire = 0;
  };

  ShardedStore::Replica& rep(unsigned s, const std::vector<int>& plan) {
    return store_.replica(s, static_cast<unsigned>(plan[s]));
  }
  /// Runs `fn(replica)` on every live replica in shard order, translating
  /// an injected fault into ShardSweepFault; returns the slowest replica's
  /// modelled time across the call.
  template <class Fn>
  double on_live(const std::vector<int>& plan, Fn&& fn);
  void reset_for_run(graph::vid_t src, const std::vector<int>& plan);
  double run_local_topdown(const std::vector<int>& plan);
  double run_claim_phase(std::uint32_t level, const std::vector<int>& plan);
  double run_local_bottomup(std::uint32_t level,
                            const std::vector<int>& plan);
  /// Swap each live replica's bitmaps and zero the new candidate map.
  double clear_candidates(const std::vector<int>& plan);
  sim::LaunchConfig grid_for(const sim::Device& dev, std::uint64_t work) const;
  /// Owner-side OR of every live sender's encoded candidate slice.
  Exchange merge_candidates(const std::vector<int>& plan);
  /// Owner-encoded cleaned slices broadcast to every live replica.
  Exchange broadcast_cleaned(const std::vector<int>& plan);

  ShardedStore& store_;
  ShardSweepConfig cfg_;
  std::size_t words_;
};

}  // namespace xbfs::shard
