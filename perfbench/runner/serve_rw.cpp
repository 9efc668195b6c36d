// serve-rw: a dynamic, durable serve::Server (one GCD, one simulator
// worker) over store::open_durable in a fresh directory.  Open-loop Zipf
// BFS reads run beside an open-loop stream of small random insert/delete
// EdgeBatches, one generator thread per lane.  Reads go through
// dyn::IncrementalBfs repair/recompute and per-epoch cache purges; writes
// pay the WAL fsync and snapshot spills.
//
// Reads under churn have no fixed oracle, so the check runs after writes
// stop: a seeded read burst is validated on the final snapshot, and the
// store recovered from disk must carry the live store's fingerprint.
#include <memory>
#include <random>
#include <thread>

#include "common.h"
#include "serve_lane.h"
#include "store/durability.h"

namespace perfbench {

namespace {

struct RwSetup {
  GraphSetup g;
  std::string dir;
  store::DurableStore ds;
  std::unique_ptr<serve::Server> server;
};

/// Seeded small batches: half inserts between random vertices, half
/// deletes of edges of the initial graph (a delete of an edge already gone
/// is a counted no-op).
std::vector<dyn::EdgeBatch> make_batches(const graph::Csr& g, std::size_t n,
                                         unsigned ops, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<graph::vid_t> vert(0, g.num_vertices() - 1);
  std::vector<dyn::EdgeBatch> out(n);
  for (dyn::EdgeBatch& b : out) {
    for (unsigned k = 0; k < ops; ++k) {
      graph::vid_t u = vert(rng);
      if (k % 2 == 0) {
        b.insert(u, vert(rng));
        continue;
      }
      while (g.degree(u) == 0) u = vert(rng);
      const auto nb = g.neighbors(u);
      b.erase(u, nb[rng() % nb.size()]);
    }
  }
  return out;
}

}  // namespace

int run_serve_rw(const Args& a, Record& rec, Tracer& tr) {
  const auto divisor = static_cast<unsigned>(a.param("divisor"));
  const auto setups = static_cast<int>(a.param("setups"));
  const double read_rate = a.param("read_rate");
  const double write_rate = a.param("write_rate");
  const auto batch_ops = static_cast<unsigned>(a.param("batch_ops"));
  const double limit_ms = a.param("latency_limit_ms");
  const auto pool_size = static_cast<std::size_t>(a.param("pool"));
  const auto final_reads = static_cast<std::size_t>(a.param("final_reads"));
  const auto recovers = static_cast<int>(a.param("recovers"));
  const auto snapshot_every =
      static_cast<std::uint64_t>(a.param("snapshot_every"));
  Tracer* t = tr.on() ? &tr : nullptr;

  serve::ServeConfig cfg;
  cfg.num_gcds = 1;
  cfg.device_workers = 1;
  cfg.profile = scaled_profile(divisor);
  cfg.require_durability = true;
  cfg.slo_scope = "perfbench";

  // Each set-up opens a fresh directory; main() removes the work directory.
  const auto s = timed_setups(setups, rec, t, [&](int i, int span) {
    auto next = std::make_unique<RwSetup>();
    next->g = build_graph(divisor, rec, t, span);
    next->dir = a.workdir + "/store-" + std::to_string(i);
    const double to = now_s();
    xbfs::Status st;
    {
      Scope o(t, "store.open_durable", 0, span);
      st = store::open_durable({next->dir, snapshot_every}, next->g.csr, {},
                               256, &next->ds);
    }
    rec.sample("store.open_s", now_s() - to);
    if (!st.ok()) throw std::runtime_error("open_durable: " + st.to_string());
    Scope c(t, "serve.server_start", 0, span);
    next->server = std::make_unique<serve::Server>(*next->ds.store, cfg);
    return next;
  });

  rec.cfg("divisor", static_cast<double>(divisor));
  rec.cfg("modelled_l2_bytes", static_cast<double>(cfg.profile.l2_bytes));
  rec.cfg("l2_carries_over", true);
  rec.cfg("sim_workers_per_device", 1.0);
  rec.cfg("gcds", 1.0);
  rec.cfg("shards", 0.0);
  rec.cfg("generator_threads", 2.0);
  rec.cfg("read_rate_qps", read_rate);
  rec.cfg("write_rate_ups", write_rate);
  rec.cfg("batch_ops", static_cast<double>(batch_ops));
  rec.cfg("latency_limit_ms", limit_ms);
  rec.cfg("zipf_s", 1.0);
  rec.cfg("source_pool", static_cast<double>(pool_size));
  rec.cfg("snapshot_every", static_cast<double>(snapshot_every));
  // Collector + read generator + write generator + the GCD's lane.
  record_threads(rec, 3 + cfg.num_gcds * cfg.device_workers);

  const std::vector<double> rdue = poisson_schedule(read_rate, a.seconds, a.seed);
  const std::vector<double> wdue =
      poisson_schedule(write_rate, a.seconds, a.seed + 3);
  const std::vector<graph::vid_t> pool =
      source_pool(s->g.giant, pool_size, a.seed + 1);
  const std::vector<graph::vid_t> srcs =
      zipf_sources(pool, 1.0, rdue.size(), a.seed + 2);
  const std::vector<dyn::EdgeBatch> batches =
      make_batches(s->g.csr, wdue.size(), batch_ops, a.seed + 4);

  serve::Server& server = *s->server;
  const store::DurabilityManager& dm = *s->ds.durability;
  const dyn::DurabilityStats d0 = dm.stats();
  const double start = now_s();

  // Write lane: each submit_update returns once the batch is durable and
  // published; it is timed from its due time.
  std::vector<double> upd_ms, wal_bytes;
  double writes_ok = 0.0, last_write = start;
  std::exception_ptr write_error;
  std::thread writer([&] {
    try {
      for (std::size_t j = 0; j < wdue.size(); ++j) {
        const double due_s = start + wdue[j];
        sleep_until_s(due_s);
        const bool traced = t && j % 2 == 0;
        Tracer* wt = traced ? t : nullptr;
        const std::uint64_t op = 1000000 + j;
        const int root = wt ? wt->add("update", op, -1, due_s, due_s, 2) : -1;
        const dyn::DurabilityStats before = dm.stats();
        serve::UpdateAdmission ua;
        {
          Scope sub(wt, "serve.submit_update", op, root, 2);
          ua = server.submit_update(batches[j]);
        }
        const double done = now_s();
        if (wt) wt->end(root, done);
        last_write = done;
        if (!ua.accepted) continue;
        ++writes_ok;
        upd_ms.push_back((done - due_s) * 1e3);
        const dyn::DurabilityStats after = dm.stats();
        if (after.wal_rotations == before.wal_rotations) {
          wal_bytes.push_back(
              static_cast<double>(after.wal_bytes - before.wal_bytes));
        }
      }
    } catch (...) {
      write_error = std::current_exception();
    }
  });
  ReadLaneStats lane;
  std::vector<ReadOutcome> reads;
  try {
    reads = run_read_lane(server, rdue, srcs, start, false, rec, t, &lane);
  } catch (...) {
    writer.join();
    throw;
  }
  writer.join();
  if (write_error) std::rethrow_exception(write_error);
  const serve::ServerStats st = server.stats();
  const dyn::DurabilityStats d1 = dm.stats();
  const double end = std::max(lane.last_done, last_write);
  rec.values["elapsed_s"] = end - start;
  rec.values["serve.backlog_end"] = lane.backlog_end;

  rec.attempted += wdue.size();
  for (std::size_t j = static_cast<std::size_t>(writes_ok); j < wdue.size(); ++j) {
    rec.fail("update refused");
  }
  for (double v : upd_ms) rec.sample("update_ms", v);
  for (double v : wal_bytes) rec.sample("store.wal_bytes", v);
  rec.values["update_qps"] = writes_ok / (last_write - start);

  // Reads under churn are not checked one by one (see the file comment).
  const std::vector<bool> ok(reads.size(), true);
  record_reads(reads, ok, limit_ms, t != nullptr, rec);
  record_server_stats(st, rec);
  rec.values["query_qps"] =
      static_cast<double>(rec.samples["query_ms"].size()) /
      (lane.last_done - start);
  rec.values["modelled_gteps"] =
      static_cast<double>(st.computed_sources) *
      static_cast<double>(s->g.giant_edges) / (st.modelled_busy_ms * 1e6);

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double runs = d(st.repairs + st.recomputes);
  std::uint64_t ops_sent = 0;
  for (std::size_t j = 0; j < wdue.size(); ++j) ops_sent += batches[j].size();
  rec.values["dyn.repair_frac"] = runs > 0 ? d(st.repairs) / runs : 0.0;
  rec.values["dyn.cache_purged_per_epoch"] =
      st.cache_epoch_bumps ? d(st.cache_purged_stale) / d(st.cache_epoch_bumps)
                           : 0.0;
  rec.values["dyn.repair_fallbacks"] = d(st.repair_fallbacks);
  rec.values["dyn.compactions"] = d(st.compactions);
  rec.values["dyn.noop_frac"] = ops_sent ? d(st.update_noops) / d(ops_sent) : 0.0;
  rec.values["store.fsyncs_per_update"] =
      writes_ok > 0 ? d(d1.fsyncs - d0.fsyncs) / writes_ok : 0.0;
  rec.values["store.snapshots_spilled"] = d(d1.snapshots_spilled);

  // Check: a seeded burst on the final snapshot, validated against it.
  {
    const graph::Csr final_g = s->ds.store->snapshot().graph->materialize();
    const std::vector<graph::vid_t> burst =
        zipf_sources(pool, 1.0, final_reads, a.seed + 5);
    for (std::size_t k = 0; k < final_reads; ++k) {
      const graph::vid_t src = burst[k];
      ++rec.attempted;
      serve::Admission adm = server.submit(src);
      if (!adm.accepted) {
        rec.fail("final read refused: " + adm.status.to_string());
        continue;
      }
      serve::QueryResult r = adm.result.get();
      if (r.status != serve::QueryStatus::Completed || !r.levels) {
        rec.fail("final read " + std::string(serve::query_status_name(r.status)));
        continue;
      }
      std::vector<std::int32_t> levels = *r.levels;
      if (a.corrupt_one && k == 0) levels[src] = 1;
      const std::string err =
          validate_levels(final_g, src, levels, rec, t, 2000000 + k, -1);
      if (!err.empty()) {
        ++rec.wrong;
        rec.fail("final read source " + std::to_string(src) + ": " + err);
      }
    }
  }

  // Recovery: reopen the directory after shutdown; the recovered store
  // must land on the live fingerprint.
  const std::uint64_t live_fp = s->ds.store->fingerprint();
  server.shutdown();
  s->server.reset();
  s->ds = {};
  for (int i = 0; i < recovers; ++i) {
    store::DurableStore back;
    const double t0 = now_s();
    xbfs::Status st2;
    {
      Scope r(t, "store.recover", 0, -1);
      st2 = store::open_durable({s->dir, snapshot_every}, graph::Csr{}, {}, 256,
                                &back);
    }
    rec.sample("recover_s", now_s() - t0);
    ++rec.attempted;
    if (!st2.ok()) {
      rec.fail("recovery: " + st2.to_string());
      continue;
    }
    rec.values["store.replayed_records"] =
        d(back.durability->stats().wal_records_replayed);
    if (back.store->fingerprint() != live_fp) {
      ++rec.wrong;
      rec.fail("recovered fingerprint differs from the live store's");
    }
  }
  return 0;
}

}  // namespace perfbench
