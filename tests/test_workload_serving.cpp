// Family-serving tests: one Server admitting mixed BFS/SSSP/CC/k-core
// traffic — typed payload correctness per kind, (algo, params)-salted
// cache keys, the QoS-classed weighted drain, the three deadline
// regressions fixed by serve::resolve_deadline_us (submit default-0,
// router default-0, the update lane's non-inherited deadline), and
// incremental CC equalling a fresh recompute under churn.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dyn/graph_store.h"
#include "graph/builder.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "serve/admission_queue.h"
#include "serve/server.h"

namespace xbfs::serve {
namespace {

using core::AlgoKind;
using core::AlgoQuery;
using graph::vid_t;

graph::Csr undirected_rmat(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::rmat_csr(p);
}

ServeConfig family_config() {
  ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.batch_window_ms = 0.0;
  cfg.xbfs.report_runs = false;
  cfg.algos = {AlgoKind::Bfs, AlgoKind::Sssp, AlgoKind::Cc,
               AlgoKind::KCore};
  return cfg;
}

QueryResult run_query(Server& server, AlgoQuery q, QueryOptions qo = {}) {
  Admission a = server.submit(q, qo);
  EXPECT_TRUE(a.accepted) << a.status.to_string();
  if (!a.accepted) return {};
  while (server.dispatch_once() == 0 &&
         a.result.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
  }
  return a.result.get();
}

// --- mixed serving ----------------------------------------------------------

TEST(WorkloadServing, MixedKindsServeOracleCorrectPayloads) {
  const graph::Csr g = undirected_rmat(9, 3);
  const vid_t src = graph::largest_component_vertices(g)[0];
  Server server(g, family_config());

  EXPECT_TRUE(server.serves(AlgoKind::Bfs));
  EXPECT_TRUE(server.serves(AlgoKind::KCore));
  EXPECT_FALSE(server.serves(AlgoKind::Bc));
  EXPECT_FALSE(server.serves(AlgoKind::Scc));

  AlgoQuery bq;
  bq.algo = AlgoKind::Bfs;
  bq.source = src;
  const QueryResult rb = run_query(server, bq);
  ASSERT_EQ(rb.status, QueryStatus::Completed) << rb.error.to_string();
  EXPECT_EQ(rb.algo, AlgoKind::Bfs);
  ASSERT_TRUE(rb.payload.levels);
  EXPECT_EQ(*rb.payload.levels, graph::reference_bfs(g, src));
  EXPECT_EQ(rb.levels, rb.payload.levels);  // BFS alias field kept in sync

  AlgoQuery sq;
  sq.algo = AlgoKind::Sssp;
  sq.source = src;
  sq.params.weight_seed = 5;
  const QueryResult rs = run_query(server, sq);
  ASSERT_EQ(rs.status, QueryStatus::Completed) << rs.error.to_string();
  ASSERT_TRUE(rs.payload.distances);
  EXPECT_EQ(*rs.payload.distances,
            graph::reference_sssp(g, src, 5, sq.params.max_weight));
  EXPECT_FALSE(rs.levels);  // non-BFS results carry no levels alias

  AlgoQuery cq;
  cq.algo = AlgoKind::Cc;
  const QueryResult rc = run_query(server, cq);
  ASSERT_EQ(rc.status, QueryStatus::Completed) << rc.error.to_string();
  ASSERT_TRUE(rc.payload.components);
  EXPECT_EQ(*rc.payload.components, graph::canonical_components(g));

  AlgoQuery kq;
  kq.algo = AlgoKind::KCore;
  kq.params.k = 2;
  const QueryResult rk = run_query(server, kq);
  ASSERT_EQ(rk.status, QueryStatus::Completed) << rk.error.to_string();
  ASSERT_TRUE(rk.payload.cores);
  EXPECT_EQ(*rk.payload.cores, graph::reference_kcore(g, 2));

  const ServerStats st = server.stats();
  EXPECT_EQ(st.per_algo[static_cast<std::size_t>(AlgoKind::Bfs)].completed,
            1u);
  EXPECT_EQ(st.per_algo[static_cast<std::size_t>(AlgoKind::Sssp)].completed,
            1u);
  EXPECT_EQ(st.per_algo[static_cast<std::size_t>(AlgoKind::Cc)].completed,
            1u);
  EXPECT_EQ(st.per_algo[static_cast<std::size_t>(AlgoKind::KCore)].completed,
            1u);
  EXPECT_EQ(st.algo_dispatches, 3u);  // sssp + cc + kcore; bfs swept
  server.shutdown();
}

TEST(WorkloadServing, UnservedKindIsRejectedInvalid) {
  const graph::Csr g = undirected_rmat(8, 3);
  Server server(g, family_config());
  AlgoQuery q;
  q.algo = AlgoKind::Scc;
  Admission a = server.submit(q);
  EXPECT_FALSE(a.accepted);
  EXPECT_EQ(a.status.code(), xbfs::StatusCode::InvalidArgument);
  EXPECT_EQ(server.stats().rejected_invalid, 1u);
  server.shutdown();
}

TEST(WorkloadServing, WholeGraphQueriesNormalizeAndDedup) {
  // CC from two different "sources" is one unit of work and one cache
  // entry: whole-graph kinds normalize to source 0 at admission.
  const graph::Csr g = undirected_rmat(8, 7);
  Server server(g, family_config());
  AlgoQuery q1, q2;
  q1.algo = q2.algo = AlgoKind::Cc;
  q1.source = 3;
  q2.source = 9;
  const QueryResult r1 = run_query(server, q1);
  const QueryResult r2 = run_query(server, q2);
  ASSERT_EQ(r1.status, QueryStatus::Completed);
  ASSERT_EQ(r2.status, QueryStatus::Completed);
  EXPECT_EQ(r1.source, 0u);
  EXPECT_EQ(r2.source, 0u);
  EXPECT_TRUE(r2.cache_hit);
  // The hit aliases the cold run's vector — no copy.
  EXPECT_EQ(r1.payload.components.get(), r2.payload.components.get());
  server.shutdown();
}

TEST(WorkloadServing, CacheKeysAreSaltedByAlgoAndParams) {
  const graph::Csr g = undirected_rmat(9, 13);
  const vid_t src = graph::largest_component_vertices(g)[0];
  Server server(g, family_config());

  // Same source, different kind: BFS result must not satisfy SSSP.
  AlgoQuery bq;
  bq.source = src;
  const QueryResult rb = run_query(server, bq);
  ASSERT_EQ(rb.status, QueryStatus::Completed);

  AlgoQuery s1;
  s1.algo = AlgoKind::Sssp;
  s1.source = src;
  const QueryResult r1 = run_query(server, s1);
  ASSERT_EQ(r1.status, QueryStatus::Completed);
  EXPECT_FALSE(r1.cache_hit);

  // Same kind + source, different weight seed: a different cache key and
  // genuinely different distances.
  AlgoQuery s2 = s1;
  s2.params.weight_seed = 77;
  const QueryResult r2 = run_query(server, s2);
  ASSERT_EQ(r2.status, QueryStatus::Completed);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(*r2.payload.distances,
            graph::reference_sssp(g, src, 77, s2.params.max_weight));

  // Exact repeat: cache hit aliasing the cold run's payload.
  const QueryResult r3 = run_query(server, s2);
  ASSERT_EQ(r3.status, QueryStatus::Completed);
  EXPECT_TRUE(r3.cache_hit);
  EXPECT_EQ(r3.payload.distances.get(), r2.payload.distances.get());

  EXPECT_EQ(server.stats().cache_hits, 1u);
  server.shutdown();
}

// --- QoS-classed admission queue -------------------------------------------

PendingQuery pending_of(AlgoKind k, QueryId id) {
  PendingQuery p;
  p.id = id;
  p.query.algo = k;
  return p;
}

TEST(WorkloadServing, QosWheelDrainsWeightedRoundRobin) {
  std::array<unsigned, core::kNumAlgoKinds> weights{};
  weights[static_cast<std::size_t>(AlgoKind::Bfs)] = 2;
  weights[static_cast<std::size_t>(AlgoKind::Cc)] = 1;
  AdmissionQueue q(16, weights);
  for (QueryId i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_push(pending_of(AlgoKind::Bfs, i)).ok());
    ASSERT_TRUE(q.try_push(pending_of(AlgoKind::Cc, 100 + i)).ok());
  }

  // One wheel turn capped at 3 slots: bfs gets its weight-2 share, then cc
  // its weight-1 share — the analytics burst cannot monopolize the drain.
  std::vector<PendingQuery> out;
  ASSERT_EQ(q.try_pop_batch(out, 3), 3u);
  EXPECT_EQ(out[0].query.algo, AlgoKind::Bfs);
  EXPECT_EQ(out[1].query.algo, AlgoKind::Bfs);
  EXPECT_EQ(out[2].query.algo, AlgoKind::Cc);

  // Everything still drains; per-class counters balance.
  std::vector<PendingQuery> rest;
  EXPECT_EQ(q.try_pop_batch(rest, 16), 5u);
  const auto bfs = q.class_counters(AlgoKind::Bfs);
  const auto cc = q.class_counters(AlgoKind::Cc);
  EXPECT_EQ(bfs.pushed, 4u);
  EXPECT_EQ(bfs.popped, 4u);
  EXPECT_EQ(cc.pushed, 4u);
  EXPECT_EQ(cc.popped, 4u);
  EXPECT_EQ(bfs.depth + cc.depth, 0u);
}

TEST(WorkloadServing, QosCapacityStaysGlobalAcrossClasses) {
  AdmissionQueue q(2);
  ASSERT_TRUE(q.try_push(pending_of(AlgoKind::Bfs, 1)).ok());
  ASSERT_TRUE(q.try_push(pending_of(AlgoKind::Cc, 2)).ok());
  const xbfs::Status s = q.try_push(pending_of(AlgoKind::Sssp, 3));
  EXPECT_EQ(s.code(), xbfs::StatusCode::QueueFull);
  EXPECT_EQ(q.size(), 2u);
}

// --- deadline regressions (serve::resolve_deadline_us) ----------------------

TEST(WorkloadServing, SubmitWithZeroTimeoutAndNoDefaultNeverExpires) {
  // Historical bug: a resolved budget of exactly 0 created deadline == now
  // and expired every query at dispatch.  0 must mean "inherit", and an
  // inherited non-positive default must mean "no deadline".
  const graph::Csr g = undirected_rmat(8, 17);
  ServeConfig cfg = family_config();
  cfg.default_timeout_ms = 0.0;  // the historically lethal value
  Server server(g, cfg);

  AlgoQuery q;
  q.source = graph::largest_component_vertices(g)[0];
  Admission a = server.submit(q);  // QueryOptions{} -> timeout_ms = 0
  ASSERT_TRUE(a.accepted);
  // Let wall time visibly pass before the dispatch cycle runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  while (server.dispatch_once() == 0 &&
         a.result.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
  }
  const QueryResult r = a.result.get();
  EXPECT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
  EXPECT_EQ(server.stats().expired, 0u);
  server.shutdown();
}

TEST(WorkloadServing, UpdateLaneDeadlineIsOwnedNotInherited) {
  dyn::GraphStore store(graph::build_csr(4, {{0, 1}, {1, 2}}));
  ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.batch_window_ms = 0.0;
  cfg.xbfs.report_runs = false;
  // A tiny query-side default must NOT leak into the write lane: dropping
  // a write because reads are slow is never what a caller means.
  cfg.default_timeout_ms = 0.0001;
  Server server(store, cfg);

  dyn::EdgeBatch grow;
  grow.insert(2, 3);
  const UpdateAdmission ok = server.submit_update(grow);  // timeout_ms = 0
  ASSERT_TRUE(ok.accepted) << ok.status.to_string();
  EXPECT_EQ(ok.epoch, 1u);

  // An explicit (absurdly small) update deadline does expire the batch —
  // rejected before apply, counted, epoch unchanged.
  dyn::EdgeBatch late;
  late.insert(0, 3);
  UpdateOptions uo;
  uo.timeout_ms = 1e-6;
  const UpdateAdmission rej = server.submit_update(late, uo);
  EXPECT_FALSE(rej.accepted);
  EXPECT_EQ(rej.status.code(), xbfs::StatusCode::DeadlineExceeded);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.updates_applied, 1u);
  EXPECT_EQ(st.updates_expired, 1u);
  EXPECT_EQ(st.graph_epoch, 1u);
  server.shutdown();
}

// --- incremental CC under churn ---------------------------------------------

TEST(WorkloadServing, DynamicServerRejectsNonIncrementalKinds) {
  dyn::GraphStore store(graph::build_csr(3, {{0, 1}, {1, 2}}));
  ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.algos = {AlgoKind::Bfs, AlgoKind::Sssp};
  EXPECT_THROW((Server(store, cfg)), std::invalid_argument);
}

TEST(WorkloadServing, IncrementalCcEqualsRecomputeUnderChurn) {
  const graph::Csr base = undirected_rmat(8, 29);
  dyn::GraphStore store(base);
  ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.batch_window_ms = 0.0;
  cfg.xbfs.report_runs = false;
  cfg.algos = {AlgoKind::Bfs, AlgoKind::Cc};
  Server server(store, cfg);

  std::mt19937_64 rng(31);
  std::uniform_int_distribution<vid_t> pick(0, base.num_vertices() - 1);
  AlgoQuery cq;
  cq.algo = AlgoKind::Cc;
  for (int round = 0; round < 6; ++round) {
    dyn::EdgeBatch b;
    const dyn::Snapshot cur = store.snapshot();
    for (int i = 0; i < 6; ++i) {
      const vid_t u = pick(rng);
      const vid_t v = pick(rng);
      if (u == v) continue;
      if (cur.graph->has_edge(u, v)) {
        b.erase(u, v);
      } else {
        b.insert(u, v);
      }
    }
    ASSERT_TRUE(server.submit_update(b).accepted);

    const QueryResult r = run_query(server, cq);
    ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
    ASSERT_TRUE(r.payload.components);
    // The incrementally repaired labels must equal a from-scratch
    // canonical recompute on the exact graph now being served.
    const dyn::Snapshot now = store.snapshot();
    EXPECT_EQ(*r.payload.components,
              graph::canonical_components(now.graph->materialize()))
        << "round " << round;
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.graph_epoch, 6u);
  EXPECT_GT(st.repairs + st.recomputes, 0u);
  server.shutdown();
}

}  // namespace
}  // namespace xbfs::serve
