// shard-rmat: the bfs-rmat graph served by a 4-shard x 1-replica
// ShardedStore, one simulator worker per shard device, swept by ShardSweep
// from seeded giant-component sources.  The frontier exchange, its codec
// and the flat-vs-two-phase pricing run only here.  Every answer is checked
// against host reference levels outside the timed region.
#include <memory>
#include <random>

#include "common.h"
#include "graph/reference.h"
#include "shard/shard_bfs.h"
#include "shard/sharded_store.h"

namespace perfbench {

namespace {

struct ShardSetup {
  GraphSetup g;
  std::unique_ptr<shard::ShardedStore> store;
  std::unique_ptr<shard::ShardSweep> sweep;
};

}  // namespace

int run_shard_rmat(const Args& a, Record& rec, Tracer& tr) {
  const auto divisor = static_cast<unsigned>(a.param("divisor"));
  const auto setups = static_cast<int>(a.param("setups"));
  const auto shards = static_cast<unsigned>(a.param("shards"));
  const auto min_queries = static_cast<std::size_t>(a.param("min_queries"));
  const double limit_ms = a.param("latency_limit_ms");
  Tracer* t = tr.on() ? &tr : nullptr;

  shard::ShardStoreConfig cfg;
  cfg.shards = shards;
  cfg.replicas = 1;
  cfg.profile = scaled_profile(divisor);
  cfg.device_options.num_workers = 1;

  const auto s = timed_setups(setups, rec, t, [&](int, int span) {
    auto next = std::make_unique<ShardSetup>();
    next->g = build_graph(divisor, rec, t, span);
    const double tb = now_s();
    {
      Scope b(t, "shard.store_build", 0, span);
      next->store = std::make_unique<shard::ShardedStore>(next->g.csr, cfg);
      next->sweep = std::make_unique<shard::ShardSweep>(*next->store);
    }
    rec.sample("shard.store_build_s", now_s() - tb);
    return next;
  });

  rec.cfg("divisor", static_cast<double>(divisor));
  rec.cfg("modelled_l2_bytes", static_cast<double>(cfg.profile.l2_bytes));
  rec.cfg("l2_carries_over", true);
  rec.cfg("sim_workers_per_device", 1.0);
  rec.cfg("gcds", static_cast<double>(shards));
  rec.cfg("shards", static_cast<double>(shards));
  rec.cfg("replicas", 1.0);
  rec.cfg("generator_threads", 0.0);
  rec.cfg("latency_limit_ms", limit_ms);
  record_threads(rec, 1);  // shards are swept in turn on the caller thread

  const std::vector<int> plan(shards, 0);
  std::mt19937_64 rng(a.seed * 0x9E3779B97F4A7C15ull + 13);
  std::uniform_int_distribution<std::size_t> pick(0, s->g.giant.size() - 1);
  double wall_sum_ms = 0.0, comm_ms = 0.0, modelled_ms = 0.0, slo_ok = 0.0;
  std::uint64_t raw = 0, wire = 0, launches = 0;
  const double start = now_s();
  for (std::uint64_t q = 0;
       q < min_queries || now_s() - start < a.seconds; ++q) {
    const graph::vid_t src = s->g.giant[pick(rng)];
    const bool traced = t && q % 2 == 0;
    Tracer* qt = traced ? t : nullptr;
    Scope root(qt, "query", q + 1, -1);
    for (unsigned sh = 0; sh < shards; ++sh) {
      s->store->replica(sh, 0).device->profiler().clear();
    }
    const double t0 = now_s();
    shard::ShardSweepResult r;
    {
      Scope run(qt, "shard.sweep_run", q + 1, root.idx());
      r = s->sweep->run(src, plan);
    }
    const double wall_ms = (now_s() - t0) * 1e3;
    ++rec.attempted;
    rec.sample("query_ms", wall_ms);
    if (t) rec.sample(traced ? "traced.query_ms" : "untraced.query_ms", wall_ms);
    rec.sample("gteps", r.gteps);
    wall_sum_ms += wall_ms;
    comm_ms += r.comm_ms;
    modelled_ms += r.total_ms;
    raw += r.raw_bytes;
    wire += r.wire_bytes;
    std::size_t two_phase = 0, bottom_up = 0;
    for (const shard::ShardLevelStats& ls : r.level_stats) {
      two_phase += ls.two_phase;
      bottom_up += ls.bottom_up;
    }
    rec.sample("shard.two_phase_levels", static_cast<double>(two_phase));
    rec.sample("shard.bottomup_levels", static_cast<double>(bottom_up));
    for (unsigned sh = 0; sh < shards; ++sh) {
      launches += s->store->replica(sh, 0).device->profiler().records().size();
    }

    const double tv = now_s();
    std::string err;
    {
      Scope v(qt, "graph.validate", q + 1, root.idx());
      const std::vector<std::int32_t> want = graph::reference_bfs(s->g.csr, src);
      if (a.corrupt_one && q == 0) r.levels[src] = 1;
      if (r.partial) {
        err = "partial answer";
      } else if (r.levels != want) {
        std::size_t v0 = 0;
        while (v0 < want.size() && r.levels[v0] == want[v0]) ++v0;
        err = "levels differ from reference at vertex " + std::to_string(v0);
      }
    }
    rec.sample("graph.validate_ms", (now_s() - tv) * 1e3);
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
  rec.values["sim.slowdown"] = wall_sum_ms / modelled_ms;
  rec.values["shard.comm_share"] = comm_ms / modelled_ms;
  rec.values["shard.raw_kb_per_query"] = static_cast<double>(raw) / 1e3 / n;
  rec.values["shard.wire_kb_per_query"] = static_cast<double>(wire) / 1e3 / n;
  rec.values["shard.wire_ratio"] =
      raw ? static_cast<double>(wire) / static_cast<double>(raw) : 0.0;
  return 0;
}

}  // namespace perfbench
