#include "dyn/incremental_bfs.h"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/report.h"
#include "core/status.h"

namespace xbfs::dyn {

using core::kUnvisited;
using graph::eid_t;
using graph::vid_t;

namespace {

/// In-place deletion sentinel in the device cols array.  Shares the
/// kUnvisited bit pattern: a real vertex id never reaches it (vid_t max),
/// so kernels can skip tombstoned entries with one compare.
constexpr vid_t kTombstone = static_cast<vid_t>(kUnvisited);

/// Overflow row of `v` as [first, last) into the overflow cols; empty when
/// `v` has none.  Binary search over the `ov_n` sorted overflow vertex ids,
/// shared by every repair and fix kernel.
std::pair<eid_t, eid_t> overflow_row(sim::ExecCtx& ctx,
                                     sim::dspan<const vid_t> ov_vid,
                                     sim::dspan<const eid_t> ov_off,
                                     std::uint32_t ov_n, vid_t v) {
  std::uint32_t lo = 0, hi = ov_n;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (ctx.load(ov_vid, mid) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == ov_n || ctx.load(ov_vid, lo) != v) return {0, 0};
  return {ctx.load(ov_off, lo), ctx.load(ov_off, lo + 1)};
}

}  // namespace

IncrementalBfs::IncrementalBfs(sim::Device& dev, GraphStore& store,
                               core::XbfsConfig cfg)
    : dev_(dev), store_(store), cfg_(cfg) {
  if (const xbfs::Status s = cfg_.validate(); !s.ok()) {
    throw std::invalid_argument("IncrementalBfs: " + s.to_string());
  }
  const vid_t n = store_.snapshot().graph->num_vertices();
  const std::size_t cap = std::max<std::size_t>(1, n);
  d_status_ = dev_.alloc<std::uint32_t>(cap, "dyn.status");
  d_queue_a_ = dev_.alloc<vid_t>(cap, "dyn.queue_a");
  d_queue_b_ = dev_.alloc<vid_t>(cap, "dyn.queue_b");
  d_dirty_ = dev_.alloc<vid_t>(cap, "dyn.dirty");
  d_counters_ = dev_.alloc<std::uint32_t>(1, "dyn.counters");
  d_edge_counter_ = dev_.alloc<std::uint64_t>(1, "dyn.edge_counter");
  status_host_.resize(n);
}

void IncrementalBfs::sync_device(const Snapshot& snap) {
  const DeltaCsr& g = *snap.graph;
  const graph::Csr& base = g.base();
  sim::Stream& s = dev_.stream(0);

  if (!synced_once_ || synced_base_version_ != g.base_version()) {
    // Full base upload: first run, or compact() rebuilt the base (which
    // also relocates every tombstone index).
    d_offsets_ = dev_.alloc<eid_t>(base.offsets().size(), "dyn.offsets");
    d_cols_ =
        dev_.alloc<vid_t>(std::max<std::size_t>(1, base.cols().size()),
                          "dyn.cols");
    d_offsets_.h_copy_from(base.offsets().data(), base.offsets().size());
    if (!base.cols().empty()) {
      d_cols_.h_copy_from(base.cols().data(), base.cols().size());
    }
    dev_.memcpy_h2d(s, base.payload_bytes());
    d_offsets_.mark_device_synced();
    d_cols_.mark_device_synced();
    device_tombs_.clear();
    synced_base_version_ = g.base_version();
    full_uploads_.fetch_add(1, std::memory_order_relaxed);
  }

  if (synced_once_ && synced_epoch_ == snap.epoch) return;

  // Tombstone diff: in-place sentinel writes for new deletions, original
  // vertex ids written back for revived base edges.
  std::vector<eid_t> patch_idx;
  std::vector<vid_t> patch_val;
  std::unordered_set<eid_t> target;
  target.reserve(g.tombstone_entries());
  for (const auto& [v, dels] : g.tombstones()) {
    for (const vid_t w : dels) {
      const eid_t idx = g.base_edge_index(v, w);
      target.insert(idx);
      if (!device_tombs_.count(idx)) {
        patch_idx.push_back(idx);
        patch_val.push_back(kTombstone);
      }
    }
  }
  for (const eid_t idx : device_tombs_) {
    if (!target.count(idx)) {
      patch_idx.push_back(idx);
      patch_val.push_back(base.cols()[idx]);
    }
  }
  if (!patch_idx.empty()) {
    if (d_patch_idx_.size() < patch_idx.size()) {
      d_patch_idx_ = dev_.alloc<eid_t>(patch_idx.size(), "dyn.patch_idx");
      d_patch_val_ = dev_.alloc<vid_t>(patch_idx.size(), "dyn.patch_val");
    }
    d_patch_idx_.h_copy_from(patch_idx.data(), patch_idx.size());
    d_patch_val_.h_copy_from(patch_val.data(), patch_val.size());
    dev_.memcpy_h2d(s, patch_idx.size() * (sizeof(eid_t) + sizeof(vid_t)));
    d_patch_idx_.mark_device_synced();
    d_patch_val_.mark_device_synced();

    auto idx_span = d_patch_idx_.cspan();
    auto val_span = d_patch_val_.cspan();
    auto cols = d_cols_.span();
    const std::uint64_t count = patch_idx.size();
    sim::LaunchConfig lc;
    lc.block_threads = cfg_.block_threads;
    lc.grid_blocks = core::auto_grid_blocks(dev_.profile(), count,
                                            cfg_.block_threads);
    // Every patch index is distinct, so the plain stores cannot race.
    dev_.launch(s, "dyn_apply_patch", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(count, [&](std::uint64_t i) {
        const eid_t at = ctx.load(idx_span, i);
        ctx.store(cols, static_cast<std::size_t>(at), ctx.load(val_span, i));
        ctx.slots(1, 1);
      });
    });
    s.synchronize();
    patched_entries_.fetch_add(count, std::memory_order_relaxed);
  }
  device_tombs_ = std::move(target);

  // Insert overlay: small sorted (vertex, offset, cols) arrays rebuilt per
  // sync — overlay mass is bounded by the compaction threshold.
  std::vector<vid_t> ov_vid;
  ov_vid.reserve(g.extras().size());
  for (const auto& [v, _] : g.extras()) ov_vid.push_back(v);
  std::sort(ov_vid.begin(), ov_vid.end());
  std::vector<eid_t> ov_off(ov_vid.size() + 1, 0);
  std::vector<vid_t> ov_cols;
  ov_cols.reserve(g.extra_entries());
  for (std::size_t i = 0; i < ov_vid.size(); ++i) {
    const std::vector<vid_t>& ex = g.extras().at(ov_vid[i]);
    ov_cols.insert(ov_cols.end(), ex.begin(), ex.end());
    ov_off[i + 1] = ov_cols.size();
  }
  if (d_ov_vid_.size() < std::max<std::size_t>(1, ov_vid.size())) {
    const std::size_t cap = std::max<std::size_t>(1, ov_vid.size() * 2);
    d_ov_vid_ = dev_.alloc<vid_t>(cap, "dyn.ov_vid");
    d_ov_off_ = dev_.alloc<eid_t>(cap + 1, "dyn.ov_off");
  }
  if (d_ov_cols_.size() < std::max<std::size_t>(1, ov_cols.size())) {
    d_ov_cols_ = dev_.alloc<vid_t>(std::max<std::size_t>(1, ov_cols.size() * 2),
                                   "dyn.ov_cols");
  }
  if (!ov_vid.empty()) d_ov_vid_.h_copy_from(ov_vid.data(), ov_vid.size());
  d_ov_off_.h_copy_from(ov_off.data(), ov_off.size());
  if (!ov_cols.empty()) {
    d_ov_cols_.h_copy_from(ov_cols.data(), ov_cols.size());
  }
  dev_.memcpy_h2d(s, ov_vid.size() * sizeof(vid_t) +
                         ov_off.size() * sizeof(eid_t) +
                         ov_cols.size() * sizeof(vid_t));
  d_ov_vid_.mark_device_synced();
  d_ov_off_.mark_device_synced();
  d_ov_cols_.mark_device_synced();
  ov_count_ = static_cast<std::uint32_t>(ov_vid.size());

  synced_epoch_ = snap.epoch;
  synced_once_ = true;
  device_syncs_.fetch_add(1, std::memory_order_relaxed);
}

IncrementalBfs::RepairPlan IncrementalBfs::plan_repair(
    const DeltaCsr& g, const std::vector<std::int32_t>& old_levels,
    const EdgeBatch& ops, vid_t src) const {
  RepairPlan p;
  const vid_t n = g.num_vertices();
  const std::size_t footprint_cap =
      static_cast<std::size_t>(cfg_.dyn_repair_ratio * n) + 1;

  std::vector<char> in_dirty(n, 0);
  std::map<std::uint32_t, std::vector<vid_t>> suspects;
  std::vector<std::pair<vid_t, vid_t>> insert_pairs;
  for (const EdgeOp& op : ops.ops) {
    if (op.u == op.v || op.u >= n || op.v >= n) continue;
    if (op.insert) {
      p.delete_only = false;
      insert_pairs.emplace_back(op.u, op.v);
    } else {
      // A deletion only threatens the deeper endpoint of a tree-edge-shaped
      // pair (old levels differing by exactly one).
      if (old_levels[op.u] >= 0 && old_levels[op.v] == old_levels[op.u] + 1) {
        suspects[static_cast<std::uint32_t>(old_levels[op.v])].push_back(op.v);
      }
      if (old_levels[op.v] >= 0 && old_levels[op.u] == old_levels[op.v] + 1) {
        suspects[static_cast<std::uint32_t>(old_levels[op.u])].push_back(op.u);
      }
    }
  }

  // Invalidation cascade in ascending old-level order: a suspect stays
  // settled iff a level-1 neighbor outside D survives in the new graph.
  while (!suspects.empty()) {
    const auto sit = suspects.begin();
    const std::uint32_t lvl = sit->first;
    std::vector<vid_t> bucket = std::move(sit->second);
    suspects.erase(sit);
    for (const vid_t x : bucket) {
      if (in_dirty[x] ||
          old_levels[x] != static_cast<std::int32_t>(lvl) || x == src) {
        continue;
      }
      bool supported = false;
      g.for_each_neighbor(x, [&](vid_t w) {
        if (!supported && !in_dirty[w] &&
            old_levels[w] + 1 == static_cast<std::int32_t>(lvl)) {
          supported = true;
        }
      });
      if (supported) continue;
      in_dirty[x] = 1;
      p.dirty.push_back(x);
      if (p.dirty.size() > footprint_cap) {
        p.feasible = false;
        return p;
      }
      g.for_each_neighbor(x, [&](vid_t w) {
        if (!in_dirty[w] &&
            old_levels[w] == static_cast<std::int32_t>(lvl) + 1) {
          suspects[lvl + 1].push_back(w);
        }
      });
    }
  }

  // Repair frontier: the settled boundary of D, plus settled endpoints of
  // inserted edges (roots of any level-decrease cascade).  The lists stay
  // separate (with separate dedup) because bottom-up repairs drop the
  // boundary but must keep every insert seed.
  std::unordered_set<vid_t> in_boundary;
  for (const vid_t d : p.dirty) {
    g.for_each_neighbor(d, [&](vid_t w) {
      if (in_dirty[w] || old_levels[w] < 0) return;
      if (!in_boundary.insert(w).second) return;
      p.boundary.push_back(w);
      p.boundary_edges += g.degree(w);
      ++p.seed_count;
    });
  }
  std::unordered_set<vid_t> seeded;
  const auto add_seed = [&](vid_t w) {
    if (in_dirty[w] || old_levels[w] < 0) return;
    if (!seeded.insert(w).second) return;
    p.insert_seeds.push_back(w);
    ++p.seed_count;
  };
  // An insert endpoint is a useful seed only when the new edge can actually
  // improve its partner: partner dirty (unknown new level), unreached, or
  // more than one level deeper.  A settled partner at old[a]+1 or less
  // gains nothing from a settled `a` (labels are decrease-only), and if `a`
  // itself later improves it gets claimed and relaxes the edge anyway —
  // so the pruned seed can never be the missing predecessor.  On skewed
  // graphs this drops the vast majority of random-insert seeds.
  const auto maybe_seed = [&](vid_t a, vid_t b) {
    if (old_levels[a] < 0) return;
    if (in_dirty[b] || old_levels[b] < 0 ||
        old_levels[b] > old_levels[a] + 1) {
      add_seed(a);
    }
  };
  for (const auto& [u, v] : insert_pairs) {
    maybe_seed(u, v);
    maybe_seed(v, u);
  }

  if (p.dirty.size() + p.seed_count > footprint_cap) p.feasible = false;
  return p;
}

bool IncrementalBfs::run_fixpoint(const Snapshot& snap,
                                  const std::vector<vid_t>& seed_vec,
                                  Pull pull, std::uint32_t dirty_count,
                                  core::BfsResult& result) {
  sim::Stream& s = dev_.stream(0);
  const DeltaCsr& g = *snap.graph;
  const vid_t n = g.num_vertices();
  const std::uint64_t m = std::max<std::uint64_t>(1, g.num_edges());
  if (seed_vec.empty() && pull != Pull::kDirty) {
    return true;  // nothing can improve; the prior labels stand
  }

  auto offsets = d_offsets_.cspan();
  auto cols = d_cols_.cspan();
  auto ov_vid = d_ov_vid_.cspan();
  auto ov_off = d_ov_off_.cspan();
  auto ov_cols = d_ov_cols_.cspan();
  auto status = d_status_.span();
  auto counters = d_counters_.span();
  auto edge_counter = d_edge_counter_.span();
  auto dirty = d_dirty_.cspan();
  const std::uint32_t ov_n = ov_count_;
  const std::uint32_t qcap = static_cast<std::uint32_t>(n);
  const auto grid = [&](std::uint64_t work) {
    sim::LaunchConfig lc;
    lc.block_threads = cfg_.block_threads;
    lc.grid_blocks = cfg_.grid_blocks != 0
                         ? cfg_.grid_blocks
                         : core::auto_grid_blocks(
                               dev_.profile(),
                               std::max<std::uint64_t>(1, work),
                               cfg_.block_threads);
    return lc;
  };

  // The whole frontier goes in at once (one host write, no per-bucket
  // append kernels); rounds then run to quiescence.
  if (!seed_vec.empty()) {
    d_queue_a_.h_copy_from(seed_vec.data(), seed_vec.size());
    dev_.memcpy_h2d(s, seed_vec.size() * sizeof(vid_t));
    d_queue_a_.mark_device_synced();
  }
  std::uint32_t cur_count = static_cast<std::uint32_t>(seed_vec.size());
  std::uint64_t cur_edges = 0;
  for (const vid_t v : seed_vec) cur_edges += g.degree(v);
  bool cur_is_a = true;

  std::uint32_t round = 0;
  while (true) {
    if (round > n + 1) return false;  // safety net: cycles are impossible
    dev_.profiler().set_context(static_cast<int>(round), "incremental");
    const double round_t0 = dev_.now_us();
    {
      sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};
      dev_.launch(s, "dyn_reset_counters", rc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.threads([&](unsigned t) {
          if (t == 0) {
            ctx.store(counters, 0, std::uint32_t{0});
            ctx.store(edge_counter, 0, std::uint64_t{0});
          }
        });
      });
    }

    auto cur_queue = (cur_is_a ? d_queue_a_ : d_queue_b_).cspan();
    auto next_queue = (cur_is_a ? d_queue_b_ : d_queue_a_).span();
    const double ratio =
        static_cast<double>(cur_edges) / static_cast<double>(m);
    // The paper's r-vs-alpha flip, per round of a recompute: a wide
    // frontier scans the whole vertex range bottom-up instead of pushing.
    const bool scan = pull == Pull::kScan && ratio > cfg_.alpha;
    const bool dirty_pull = pull == Pull::kDirty;
    unsigned kernels = 1;  // the counter reset

    if (cur_count != 0 && !scan) {
      ++kernels;
      const std::uint32_t count = cur_count;
      dev_.launch(s, "dyn_fix_push", grid(count), [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        // Frontier label reads race with other blocks' atomic_min
        // decreases: a stale (higher) read only weakens this relaxation,
        // and whichever block lowered the label re-enqueued the vertex,
        // so the quiescent fixpoint is unchanged.
        sim::racy_ok allow(ctx,
                           "dyn-fix-push: frontier label reads vs "
                           "concurrent atomic_min decreases (decrease-only "
                           "fixpoint; improvements always re-enqueue)");
        blk.grid_stride(count, [&](std::uint64_t i) {
          const vid_t v = ctx.load(cur_queue, i);
          const std::uint32_t lvl = ctx.load(status, v);
          if (lvl == kUnvisited) return;  // defensive: seeds are settled
          const std::uint32_t next = lvl + 1;
          std::uint64_t probed = 0;
          std::uint64_t claimed_deg = 0;
          std::uint32_t claimed = 0;
          const auto relax = [&](vid_t w) {
            const std::uint32_t prior = ctx.atomic_min(status, w, next);
            if (prior > next) {
              const std::uint32_t slot =
                  ctx.atomic_add(counters, 0, std::uint32_t{1});
              if (slot < qcap) ctx.store(next_queue, slot, w);
              claimed_deg +=
                  ctx.load(offsets, w + 1) - ctx.load(offsets, w);
              ++claimed;
            }
          };
          const eid_t b = ctx.load(offsets, v);
          const eid_t e = ctx.load(offsets, v + 1);
          for (eid_t j = b; j < e; ++j) {
            const vid_t w = ctx.load(cols, j);
            ++probed;
            if (w == kTombstone) continue;
            relax(w);
          }
          const auto [ob, oe] = overflow_row(ctx, ov_vid, ov_off, ov_n, v);
          for (eid_t j = ob; j < oe; ++j) {
            ++probed;
            relax(ctx.load(ov_cols, j));
          }
          ctx.slots(probed, probed);
          if (claimed != 0) {
            ctx.atomic_add(edge_counter, 0, claimed_deg);
          }
        });
      });
    }
    if (scan) {
      ++kernels;
      // Seeded with {src} at level 0, round k's queue is exactly level k,
      // so finding one neighbor at level `round` settles a vertex.
      const std::uint32_t cur_level = round;
      const std::uint32_t next = round + 1;
      dev_.launch(s, "dyn_repair_pull", grid(n), [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        // The candidate pre-check and the neighbor status probes race with
        // other blocks' claims; both directions of the race either defer
        // the vertex to a later round or re-claim the same value.
        sim::racy_ok allow(ctx,
                           "dyn-pull: unsynchronized status probes vs "
                           "concurrent atomic_min claims (settled labels "
                           "are final in recompute rounds)");
        blk.grid_stride(n, [&](std::uint64_t i) {
          const vid_t v = static_cast<vid_t>(i);
          if (ctx.load(status, v) <= next) return;  // settled at or better
          std::uint64_t probed = 0;
          bool found = false;
          const eid_t b = ctx.load(offsets, v);
          const eid_t e = ctx.load(offsets, v + 1);
          for (eid_t j = b; j < e && !found; ++j) {
            const vid_t w = ctx.load(cols, j);
            ++probed;
            if (w == kTombstone) continue;
            if (ctx.load(status, w) == cur_level) found = true;
          }
          if (!found) {
            const auto [ob, oe] = overflow_row(ctx, ov_vid, ov_off, ov_n, v);
            for (eid_t j = ob; j < oe && !found; ++j) {
              ++probed;
              if (ctx.load(status, ctx.load(ov_cols, j)) == cur_level) {
                found = true;
              }
            }
          }
          ctx.slots(probed, found ? probed : 0);
          if (found) {
            const std::uint32_t prior = ctx.atomic_min(status, v, next);
            if (prior > next) {
              const std::uint32_t slot =
                  ctx.atomic_add(counters, 0, std::uint32_t{1});
              ctx.store(next_queue, slot, v);
              ctx.atomic_add(edge_counter, 0,
                             ctx.load(offsets, v + 1) - ctx.load(offsets, v));
            }
          }
        });
      });
    }
    if (dirty_pull) {
      ++kernels;
      const std::uint32_t dirty_n = dirty_count;
      dev_.launch(s, "dyn_fix_pull", grid(dirty_n), [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        // Neighbor label probes race with concurrent atomic_min
        // decreases: reading a label high only defers the improvement to
        // a later round (the loop runs until no round improves anything).
        sim::racy_ok allow(ctx,
                           "dyn-fix-pull: neighbor label probes vs "
                           "concurrent atomic_min decreases (decrease-only "
                           "fixpoint over the dirty list)");
        blk.grid_stride(dirty_n, [&](std::uint64_t i) {
          const vid_t v = ctx.load(dirty, i);
          const std::uint32_t cur = ctx.load(status, v);
          std::uint32_t best = kUnvisited;
          std::uint64_t probed = 0;
          const eid_t b = ctx.load(offsets, v);
          const eid_t e = ctx.load(offsets, v + 1);
          for (eid_t j = b; j < e; ++j) {
            const vid_t w = ctx.load(cols, j);
            ++probed;
            if (w == kTombstone) continue;
            const std::uint32_t lw = ctx.load(status, w);
            if (lw < best) best = lw;
          }
          const auto [ob, oe] = overflow_row(ctx, ov_vid, ov_off, ov_n, v);
          for (eid_t j = ob; j < oe; ++j) {
            ++probed;
            const std::uint32_t lw =
                ctx.load(status, ctx.load(ov_cols, j));
            if (lw < best) best = lw;
          }
          if (best == kUnvisited || best + 1 >= cur) {
            ctx.slots(probed, 0);
            return;
          }
          ctx.slots(probed, probed);
          const std::uint32_t cand = best + 1;
          const std::uint32_t prior = ctx.atomic_min(status, v, cand);
          if (prior > cand) {
            const std::uint32_t slot =
                ctx.atomic_add(counters, 0, std::uint32_t{1});
            if (slot < qcap) ctx.store(next_queue, slot, v);
            ctx.atomic_add(edge_counter, 0,
                           ctx.load(offsets, v + 1) - ctx.load(offsets, v));
          }
        });
      });
    }

    s.synchronize();
    dev_.memcpy_d2h(s, d_counters_, d_edge_counter_);
    const std::uint32_t next_count = d_counters_.h_read(0);
    const std::uint64_t next_edges = d_edge_counter_.h_read(0);
    if (next_count > qcap) return false;  // queue overflow; recompute

    core::LevelStats st;
    st.level = round;
    st.strategy = scan || dirty_pull ? core::Strategy::BottomUp
                                     : core::Strategy::ScanFree;
    st.frontier_count = cur_count;
    st.frontier_edges = cur_edges;
    st.ratio = ratio;
    st.time_ms = (dev_.now_us() - round_t0) / 1000.0;
    st.kernels = kernels;
    result.level_stats.push_back(st);

    cur_is_a = !cur_is_a;
    cur_count = next_count;
    cur_edges = next_edges;
    ++round;
    if (next_count == 0) break;  // quiescent: no label improved this round
  }
  return true;
}

core::BfsResult IncrementalBfs::run(vid_t src) {
  runs_.fetch_add(1, std::memory_order_relaxed);
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  const std::size_t prof_start = dev_.profiler().records().size();
  core::BfsResult result;

  const Snapshot snap = store_.snapshot();
  sync_device(snap);
  snap_ = snap;
  const DeltaCsr& g = *snap.graph;
  const vid_t n = g.num_vertices();
  if (src >= n) throw std::invalid_argument("IncrementalBfs: bad source");

  // Decide: repair from the prior level array, or full recompute.
  bool repair = false;
  RepairPlan plan;
  LastRun lr;
  lr.epoch = snap.epoch;
  lr.fallback = "no-history";
  const auto hit = history_.find(src);
  if (hit != history_.end()) {
    bool truncated = false;
    const std::optional<EdgeBatch> ops =
        store_.ops_between(hit->second.epoch, snap.epoch, &truncated);
    if (!ops) {
      fallbacks_log_.fetch_add(1, std::memory_order_relaxed);
      // Distinguish discarded history (the bounded log wrapped) from a
      // stale/bogus remembered epoch — both recompute, but only the former
      // is capacity pressure an operator can size away.
      lr.fallback = truncated ? "log-gap" : "epoch-range";
    } else {
      plan = plan_repair(g, hit->second.levels, *ops, src);
      lr.dirty = plan.dirty.size();
      lr.seeds = plan.seed_count;
      if (plan.feasible) {
        repair = true;
        lr.fallback = "";
      } else {
        fallbacks_ratio_.fetch_add(1, std::memory_order_relaxed);
        lr.fallback = "ratio";
      }
    }
  }

  if (repair) {
    const std::vector<std::int32_t>& old = hit->second.levels;
    for (vid_t v = 0; v < n; ++v) {
      status_host_[v] = old[v] < 0 ? kUnvisited
                                   : static_cast<std::uint32_t>(old[v]);
    }
    for (const vid_t d : plan.dirty) status_host_[d] = kUnvisited;
    const std::uint32_t dirty_count =
        static_cast<std::uint32_t>(plan.dirty.size());
    std::uint64_t dirty_edges = 0;
    if (dirty_count != 0) {
      d_dirty_.h_copy_from(plan.dirty.data(), plan.dirty.size());
      dev_.memcpy_h2d(s, plan.dirty.size() * sizeof(vid_t));
      d_dirty_.mark_device_synced();
      for (const vid_t d : plan.dirty) dirty_edges += g.degree(d);
    }
    // r-vs-alpha on the repair subproblem: push the settled boundary
    // top-down while its edges stay under alpha x the dirty region's
    // incident edges; past that (hub-heavy boundaries) flip bottom-up and
    // pull into the dirty list instead, never walking hub adjacencies.
    const bool pull_mode =
        dirty_count != 0 &&
        static_cast<double>(plan.boundary_edges) >
            cfg_.alpha * static_cast<double>(std::max<std::uint64_t>(
                             1, dirty_edges));
    std::vector<vid_t> seed_vec;
    seed_vec.reserve(plan.seed_count);
    if (!pull_mode) {
      seed_vec.insert(seed_vec.end(), plan.boundary.begin(),
                      plan.boundary.end());
    }
    seed_vec.insert(seed_vec.end(), plan.insert_seeds.begin(),
                    plan.insert_seeds.end());
    dirty_vertices_.fetch_add(dirty_count, std::memory_order_relaxed);
    repair_seeds_.fetch_add(plan.seed_count, std::memory_order_relaxed);

    // One full status upload per run: repair starts from the prior labels
    // (4|V| bytes h2d), which is what it pays instead of re-traversing.
    d_status_.h_copy_from(status_host_.data(), n);
    dev_.memcpy_h2d(s, d_status_);
    if (!run_fixpoint(snap, seed_vec, pull_mode ? Pull::kDirty : Pull::kNone,
                      dirty_count, result)) {
      // Repair queue overflowed its |V| capacity — the footprint estimate
      // was wrong in the same direction the ratio bound guards against.
      repair = false;
      fallbacks_ratio_.fetch_add(1, std::memory_order_relaxed);
      lr.fallback = "overflow";
      result.level_stats.clear();
    }
  }
  if (!repair) {
    std::fill(status_host_.begin(), status_host_.end(), kUnvisited);
    status_host_[src] = 0;
    d_status_.h_copy_from(status_host_.data(), n);
    dev_.memcpy_h2d(s, d_status_);
    // A single-source run claims each vertex once, so its queue never
    // outgrows |V|: this fixpoint cannot overflow.
    run_fixpoint(snap, {src}, Pull::kScan, 0, result);
  }

  dev_.memcpy_d2h(s, d_status_);
  s.synchronize();
  const std::uint32_t* status_host = std::as_const(d_status_).host_data();
  result.levels.resize(n);
  std::int32_t max_level = 0;
  std::uint64_t reached_degree = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (status_host[v] == kUnvisited) {
      result.levels[v] = -1;
    } else {
      result.levels[v] = static_cast<std::int32_t>(status_host[v]);
      max_level = std::max(max_level, result.levels[v]);
      reached_degree += g.degree(v);
    }
  }
  result.depth = static_cast<std::uint32_t>(max_level) + 1;
  result.total_ms = (dev_.now_us() - t0_us) / 1000.0;
  result.edges_traversed = reached_degree / 2;
  result.gteps = core::safe_gteps(result.edges_traversed, result.total_ms);

  remember(src, result.levels, snap.epoch);
  const std::uint64_t spent_us =
      static_cast<std::uint64_t>(result.total_ms * 1000.0);
  if (repair) {
    repairs_.fetch_add(1, std::memory_order_relaxed);
    repair_us_.fetch_add(spent_us, std::memory_order_relaxed);
  } else {
    recomputes_.fetch_add(1, std::memory_order_relaxed);
    recompute_us_.fetch_add(spent_us, std::memory_order_relaxed);
  }
  lr.valid = true;
  lr.repair = repair;
  last_run_ = lr;
  if (cfg_.report_runs) {
    core::record_run(result, "incremental_bfs", n, g.num_edges(),
                     static_cast<std::int64_t>(src), &cfg_,
                     &dev_.profiler(), prof_start);
  }
  return result;
}

void IncrementalBfs::remember(vid_t src,
                              const std::vector<std::int32_t>& levels,
                              std::uint64_t epoch) {
  const auto it = history_.find(src);
  if (it == history_.end()) {
    while (history_order_.size() >=
           std::max(1u, cfg_.dyn_history_sources)) {
      history_.erase(history_order_.front());
      history_order_.pop_front();
    }
    history_order_.push_back(src);
  }
  history_[src] = Prior{levels, epoch};
}

void IncrementalBfs::clear_history() {
  history_.clear();
  history_order_.clear();
}

DynEngineStats IncrementalBfs::stats() const {
  DynEngineStats s;
  s.runs = runs_.load(std::memory_order_relaxed);
  s.repairs = repairs_.load(std::memory_order_relaxed);
  s.recomputes = recomputes_.load(std::memory_order_relaxed);
  s.fallbacks_ratio = fallbacks_ratio_.load(std::memory_order_relaxed);
  s.fallbacks_log = fallbacks_log_.load(std::memory_order_relaxed);
  s.dirty_vertices = dirty_vertices_.load(std::memory_order_relaxed);
  s.repair_seeds = repair_seeds_.load(std::memory_order_relaxed);
  s.device_syncs = device_syncs_.load(std::memory_order_relaxed);
  s.full_uploads = full_uploads_.load(std::memory_order_relaxed);
  s.patched_entries = patched_entries_.load(std::memory_order_relaxed);
  s.repair_ms = static_cast<double>(
                    repair_us_.load(std::memory_order_relaxed)) / 1000.0;
  s.recompute_ms = static_cast<double>(
                       recompute_us_.load(std::memory_order_relaxed)) / 1000.0;
  return s;
}

}  // namespace xbfs::dyn
