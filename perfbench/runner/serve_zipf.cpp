// serve-zipf: a static serve::Server (2 GCDs, one simulator worker each,
// default batching and cache) over the Rmat25 stand-in.  One generator
// thread sends open-loop Poisson reads whose sources are Zipf(1.0) over a
// wide pool of giant-component vertices, so admission, batching, the
// bit-parallel sweep and the result cache all do work.  Every distinct
// answered source is Graph500-validated after the run; repeated answers
// for a source must equal the validated one.
#include <memory>
#include <unordered_map>

#include "common.h"
#include "serve_lane.h"

namespace perfbench {

namespace {

struct ServeSetup {
  GraphSetup g;
  std::unique_ptr<serve::Server> server;
};

}  // namespace

int run_serve_zipf(const Args& a, Record& rec, Tracer& tr) {
  const auto divisor = static_cast<unsigned>(a.param("divisor"));
  const auto setups = static_cast<int>(a.param("setups"));
  const double rate = a.param("read_rate");
  const double limit_ms = a.param("latency_limit_ms");
  const auto pool_size = static_cast<std::size_t>(a.param("pool"));
  Tracer* t = tr.on() ? &tr : nullptr;

  serve::ServeConfig cfg;
  cfg.num_gcds = 2;
  cfg.device_workers = 1;
  cfg.profile = scaled_profile(divisor);
  cfg.slo_scope = "perfbench";

  const auto s = timed_setups(setups, rec, t, [&](int, int span) {
    auto next = std::make_unique<ServeSetup>();
    next->g = build_graph(divisor, rec, t, span);
    Scope c(t, "serve.server_start", 0, span);
    next->server = std::make_unique<serve::Server>(next->g.csr, cfg);
    return next;
  });

  rec.cfg("divisor", static_cast<double>(divisor));
  rec.cfg("modelled_l2_bytes", static_cast<double>(cfg.profile.l2_bytes));
  rec.cfg("l2_carries_over", true);
  rec.cfg("sim_workers_per_device", 1.0);
  rec.cfg("gcds", static_cast<double>(cfg.num_gcds));
  rec.cfg("shards", 0.0);
  rec.cfg("generator_threads", 1.0);
  rec.cfg("read_rate_qps", rate);
  rec.cfg("latency_limit_ms", limit_ms);
  rec.cfg("zipf_s", 1.0);
  rec.cfg("source_pool", static_cast<double>(pool_size));
  // Collector + generator + one scheduler/worker lane per GCD.
  record_threads(rec, 2 + cfg.num_gcds * cfg.device_workers);

  const std::vector<double> due = poisson_schedule(rate, a.seconds, a.seed);
  const std::vector<graph::vid_t> pool =
      source_pool(s->g.giant, pool_size, a.seed + 1);
  const std::vector<graph::vid_t> srcs =
      zipf_sources(pool, 1.0, due.size(), a.seed + 2);

  const double start = now_s();
  ReadLaneStats lane;
  std::vector<ReadOutcome> reads =
      run_read_lane(*s->server, due, srcs, start, true, rec, t, &lane);
  const serve::ServerStats st = s->server->stats();
  rec.values["elapsed_s"] = lane.last_done - start;
  rec.values["serve.backlog_end"] = lane.backlog_end;

  // Check every answer, outside the timed region: the first answer of each
  // source against the Graph500 rules, later ones for equality with it.
  std::unordered_map<graph::vid_t, std::size_t> first;
  std::vector<bool> ok(reads.size(), false);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    serve::QueryResult& r = reads[i].result;
    if (!reads[i].accepted || r.status != serve::QueryStatus::Completed) continue;
    if (!r.levels) {
      ++rec.wrong;
      rec.fail("read " + std::to_string(i) + ": no levels");
      continue;
    }
    std::string err;
    const auto [it, fresh] = first.try_emplace(reads[i].src, i);
    if (a.corrupt_one && fresh && first.size() == 1) {
      auto bad = std::make_shared<std::vector<std::int32_t>>(*r.levels);
      (*bad)[reads[i].src] = 1;
      r.levels = bad;
    }
    if (fresh) {
      err = validate_levels(s->g.csr, reads[i].src, *r.levels, rec, t, i + 1, -1);
    } else {
      const serve::Levels& want = reads[it->second].result.levels;
      if (r.levels != want && *r.levels != *want) {
        err = "differs from the validated answer for this source";
      } else if (!ok[it->second]) {
        err = "repeats a wrong answer";
      }
    }
    if (err.empty()) {
      ok[i] = true;
    } else {
      ++rec.wrong;
      rec.fail("read " + std::to_string(i) + " source " +
               std::to_string(reads[i].src) + ": " + err);
    }
  }
  record_reads(reads, ok, limit_ms, t != nullptr, rec);
  record_server_stats(st, rec);
  rec.values["query_qps"] =
      static_cast<double>(rec.samples["query_ms"].size()) /
      rec.values["elapsed_s"];
  // Graph500 TEPS counts the source component's edges; every source is in
  // the giant component.
  rec.values["modelled_gteps"] =
      static_cast<double>(st.computed_sources) *
      static_cast<double>(s->g.giant_edges) / (st.modelled_busy_ms * 1e6);
  s->server->shutdown();
  return 0;
}

}  // namespace perfbench
