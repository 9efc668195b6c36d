// bfs-rmat: the paper's n-to-n protocol.  One adaptive Xbfs on one warmed
// simulated GCD runs seeded giant-component sources back to back; the
// modelled L2 carries over between queries.  The device runs the
// multi-worker simulator path with `sim_workers` workers (0 = one per
// core); leaving cores free keeps the wall clock steadier on a shared box.
// Every answer is Graph500-validated outside the timed region.
#include <algorithm>
#include <memory>
#include <random>
#include <thread>

#include "common.h"
#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace perfbench {

namespace {

struct BfsSetup {
  GraphSetup g;
  std::unique_ptr<sim::Device> dev;
  graph::DeviceCsr dg;
  std::unique_ptr<core::Xbfs> xbfs;
};

}  // namespace

int run_bfs_rmat(const Args& a, Record& rec, Tracer& tr) {
  const auto divisor = static_cast<unsigned>(a.param("divisor"));
  const auto setups = static_cast<int>(a.param("setups"));
  const auto min_queries = static_cast<std::size_t>(a.param("min_queries"));
  const double limit_ms = a.param("latency_limit_ms");
  Tracer* t = tr.on() ? &tr : nullptr;

  sim::SimOptions opts;
  opts.num_workers = static_cast<unsigned>(a.param("sim_workers"));
  const auto s = timed_setups(setups, rec, t, [&](int, int span) {
    auto next = std::make_unique<BfsSetup>();
    next->g = build_graph(divisor, rec, t, span);
    const double tu = now_s();
    {
      Scope up(t, "sim.upload", 0, span);
      next->dev = std::make_unique<sim::Device>(scaled_profile(divisor), opts);
      next->dg = graph::DeviceCsr::upload(*next->dev, next->g.csr);
      next->dev->warmup();
    }
    rec.sample("sim.upload_ms", (now_s() - tu) * 1e3);
    next->xbfs = std::make_unique<core::Xbfs>(*next->dev, next->dg);
    return next;
  });

  sim::Device& dev = *s->dev;
  const unsigned workers =
      dev.options().num_workers
          ? dev.options().num_workers
          : std::max(1u, std::thread::hardware_concurrency());
  rec.cfg("divisor", static_cast<double>(divisor));
  rec.cfg("modelled_l2_bytes", static_cast<double>(dev.profile().l2_bytes));
  rec.cfg("l2_carries_over", true);
  rec.cfg("sim_workers_per_device", static_cast<double>(workers));
  rec.cfg("gcds", 1.0);
  rec.cfg("shards", 0.0);
  rec.cfg("generator_threads", 0.0);
  rec.cfg("latency_limit_ms", limit_ms);
  record_threads(rec, workers);  // the caller lane is simulator worker 0

  std::mt19937_64 rng(a.seed * 0x9E3779B97F4A7C15ull + 11);
  std::uniform_int_distribution<std::size_t> pick(0, s->g.giant.size() - 1);
  sim::KernelCounters total;
  double mem_busy_weighted = 0.0, kernel_us = 0.0, modelled_sum = 0.0;
  double bu_ms = 0.0, wall_sum_ms = 0.0, slo_ok = 0.0;
  std::uint64_t launches = 0;
  const double start = now_s();
  for (std::uint64_t q = 0;
       q < min_queries || now_s() - start < a.seconds; ++q) {
    const graph::vid_t src = s->g.giant[pick(rng)];
    const bool traced = t && q % 2 == 0;
    Tracer* qt = traced ? t : nullptr;
    Scope root(qt, "query", q + 1, -1);
    dev.profiler().clear();
    const double t0 = now_s();
    core::BfsResult r;
    {
      Scope run(qt, "core.xbfs_run", q + 1, root.idx());
      r = s->xbfs->run(src);
    }
    const double wall_ms = (now_s() - t0) * 1e3;
    ++rec.attempted;
    rec.sample("query_ms", wall_ms);
    if (t) rec.sample(traced ? "traced.query_ms" : "untraced.query_ms", wall_ms);
    rec.sample("core.modelled_ms", r.total_ms);
    rec.sample("gteps", r.gteps);
    wall_sum_ms += wall_ms;
    modelled_sum += r.total_ms;

    // Layer counters from the public results: level stats and profiler rows.
    std::size_t bu_levels = 0;
    for (const core::LevelStats& ls : r.level_stats) {
      if (ls.strategy == core::Strategy::BottomUp) {
        ++bu_levels;
        bu_ms += ls.time_ms;
      }
    }
    rec.sample("core.levels", static_cast<double>(r.level_stats.size()));
    rec.sample("core.bottomup_levels", static_cast<double>(bu_levels));
    for (const sim::LaunchRecord& row : dev.profiler().records()) {
      total += row.counters;
      mem_busy_weighted += row.mbusy_pct() * row.timing.total_us;
      kernel_us += row.timing.total_us;
      ++launches;
    }

    std::vector<std::int32_t>& levels = r.levels;
    if (a.corrupt_one && q == 0) levels[src] = 1;  // self-test: one bad entry
    const std::string err =
        validate_levels(s->g.csr, src, levels, rec, qt, q + 1, root.idx());
    if (!err.empty()) {
      ++rec.wrong;
      rec.fail("source " + std::to_string(src) + ": " + err);
    }
    if (err.empty() && wall_ms <= limit_ms) ++slo_ok;
  }
  const double n = static_cast<double>(rec.attempted);
  finish_closed_loop(rec, wall_sum_ms, slo_ok);
  rec.values["sim.launches_per_query"] = static_cast<double>(launches) / n;
  rec.values["sim.wall_us_per_launch"] =
      wall_sum_ms * 1e3 / static_cast<double>(launches);
  rec.values["sim.slowdown"] = wall_sum_ms / modelled_sum;
  rec.values["core.bottomup_time_share"] = bu_ms / modelled_sum;
  rec.values["core.fetch_mb_per_query"] =
      static_cast<double>(total.fetch_bytes) / 1e6 / n;
  rec.values["core.l2_hit_pct"] = total.l2_hit_pct();
  rec.values["core.mem_busy_pct"] = mem_busy_weighted / kernel_us;
  rec.values["core.lane_efficiency"] = total.lane_efficiency();
  rec.values["core.atomics_per_query"] = static_cast<double>(total.atomics) / n;
  return 0;
}

}  // namespace perfbench
