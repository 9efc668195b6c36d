// Sharded serving tests: serve::Server over a partitioned ShardedStore —
// admission/caching/backpressure shared with the single-graph backings,
// plus the behaviours only a sharded backing has: re-shard cache
// invalidation, reroute-around-dead-replica, partial degradation when a
// whole replica group is lost, and per-slot breaker bookkeeping.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/fault.h"
#include "obs/slo.h"
#include "serve/server.h"
#include "shard/sharded_store.h"

namespace xbfs::shard {
namespace {

graph::Csr toy_graph(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::rmat_csr(p);
}

ShardStoreConfig store_cfg(unsigned shards, unsigned replicas = 1) {
  ShardStoreConfig cfg;
  cfg.shards = shards;
  cfg.replicas = replicas;
  cfg.device_options.num_workers = 1;
  return cfg;
}

/// Manual dispatch + zero backoff: tests drive cycles explicitly and run
/// in milliseconds even when every attempt fails.
serve::ServeConfig manual_cfg() {
  serve::ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.retry_backoff_ms = 0.0;
  cfg.breaker_cooldown_ms = 0.1;
  return cfg;
}

serve::QueryResult run_one(serve::Server& server, graph::vid_t src,
                           serve::QueryOptions qo = {}) {
  serve::Admission a = server.submit(src, qo);
  EXPECT_TRUE(a.accepted) << a.status.to_string();
  server.dispatch_once();
  return a.result.get();
}

/// Tests own the process-wide injector and always hand it back disabled.
class ShardServing : public ::testing::Test {
 protected:
  void SetUp() override { sim::FaultInjector::global().disable(); }
  void TearDown() override { sim::FaultInjector::global().disable(); }
};

TEST_F(ShardServing, ServesReferenceCorrectLevels) {
  const graph::Csr g = toy_graph(10, 21);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(4));
  serve::Server server(store, manual_cfg());

  for (std::size_t i = 0; i < 4; ++i) {
    const serve::QueryResult r = run_one(server, giant[i]);
    ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, giant[i]));
    EXPECT_EQ(r.shards, 4u);
    EXPECT_EQ(r.shards_lost, 0u);
    EXPECT_FALSE(r.partial);
    EXPECT_EQ(r.engine, "shard-sweep");
    EXPECT_EQ(r.attempts, 1u);
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.levels_swept, 0u);
  EXPECT_GT(st.exchange_wire_bytes, 0u);
  EXPECT_GE(st.compression_ratio, 0.5);
  server.shutdown();
}

TEST_F(ShardServing, ThreadedWorkersDrainEverything) {
  const graph::Csr g = toy_graph(9, 22);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2, 2));
  // Threaded: two dispatch lanes, one per replica.
  serve::Server server(store, serve::ServeConfig{});

  std::vector<serve::Admission> pending;
  for (std::size_t i = 0; i < 12; ++i) {
    serve::QueryOptions qo;
    qo.bypass_cache = (i % 2 == 0);
    serve::Admission a = server.submit(giant[i % giant.size()], qo);
    ASSERT_TRUE(a.accepted);
    pending.push_back(std::move(a));
  }
  server.drain();
  for (auto& a : pending) {
    const serve::QueryResult r = a.result.get();
    ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
  }
  server.shutdown();
}

TEST_F(ShardServing, SecondQuerySameSourceHitsTheCache) {
  const graph::Csr g = toy_graph(9, 23);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2));
  serve::Server server(store, manual_cfg());

  const serve::QueryResult cold = run_one(server, giant[0]);
  ASSERT_EQ(cold.status, serve::QueryStatus::Completed);
  EXPECT_FALSE(cold.cache_hit);

  serve::Admission a = server.submit(giant[0]);
  ASSERT_TRUE(a.accepted);
  const serve::QueryResult hot = a.result.get();  // resolves without dispatch
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(hot.levels, cold.levels);  // same shared object, not a copy
  EXPECT_EQ(hot.shards, 2u);
  EXPECT_EQ(server.stats().cache_hits, 1u);
  server.shutdown();
}

TEST_F(ShardServing, ReshardChangesTheServingFingerprint) {
  // The cache key is fingerprint ⊕ layout: the same graph sharded two ways
  // must not share cached results, and a same-shaped rebuild must.
  const graph::Csr g = toy_graph(9, 24);
  ShardedStore s4(g, store_cfg(4));
  ShardedStore s8(g, store_cfg(8));
  ShardedStore s4b(g, store_cfg(4));
  serve::Server r4(s4, manual_cfg());
  serve::Server r8(s8, manual_cfg());
  serve::Server r4b(s4b, manual_cfg());
  EXPECT_NE(r4.graph_fingerprint(), r8.graph_fingerprint());
  EXPECT_EQ(r4.graph_fingerprint(), r4b.graph_fingerprint());
  // And both differ from the bare graph fingerprint (the unsharded tier).
  EXPECT_NE(r4.graph_fingerprint(), g.fingerprint());
  r4.shutdown();
  r8.shutdown();
  r4b.shutdown();
}

TEST_F(ShardServing, InvalidSourceAndBackpressureAreRejected) {
  const graph::Csr g = toy_graph(8, 25);
  ShardedStore store(g, store_cfg(2));
  serve::ServeConfig cfg = manual_cfg();
  cfg.queue_capacity = 2;
  cfg.cache_capacity = 0;  // no cache fast-path interference
  serve::Server server(store, cfg);

  serve::Admission bad = server.submit(g.num_vertices() + 5);
  EXPECT_FALSE(bad.accepted);
  EXPECT_EQ(bad.status.code(), StatusCode::InvalidArgument);

  ASSERT_TRUE(server.submit(0).accepted);
  ASSERT_TRUE(server.submit(1).accepted);
  serve::Admission full = server.submit(2);
  EXPECT_FALSE(full.accepted);
  EXPECT_EQ(full.status.code(), StatusCode::QueueFull);

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.rejected_invalid, 1u);
  EXPECT_EQ(st.rejected_full, 1u);
  server.dispatch_once();
  server.shutdown();
  EXPECT_FALSE(server.submit(0).accepted);
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);
}

TEST_F(ShardServing, KilledReplicaReroutesWithoutFailing) {
  const graph::Csr g = toy_graph(10, 26);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2, 2));
  serve::Server server(store, manual_cfg());

  store.kill_replica(0, 0);  // preferred replica of shard 0 for even ids
  for (std::size_t i = 0; i < 4; ++i) {
    const serve::QueryResult r = run_one(server, giant[i]);
    ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
    EXPECT_FALSE(r.partial);
    EXPECT_EQ(r.engine, "shard-sweep");  // the sibling served, not the host
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.host_fallbacks, 0u);
  EXPECT_GT(st.rerouted, 0u);
  EXPECT_EQ(st.partial_queries, 0u);
  server.shutdown();
}

TEST_F(ShardServing, WholeReplicaGroupLostDegradesToPartial) {
  const graph::Csr g = toy_graph(10, 27);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(4));
  serve::Server server(store, manual_cfg());

  const graph::vid_t src = giant.front();
  const unsigned owner = store.layout().owner(src);
  const unsigned lost = owner == 3 ? 0 : 3;
  store.kill_replica(lost, 0);  // replicas=1: the whole group is gone

  serve::QueryOptions qo;
  qo.bypass_cache = true;
  const serve::QueryResult r = run_one(server, src, qo);
  ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
  EXPECT_TRUE(r.partial);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.shards_lost, 1u);
  EXPECT_FALSE(r.error.ok());  // Unavailable detail rides along
  EXPECT_EQ(r.error.code(), StatusCode::Unavailable);
  // Live ranges are exact; the lost range is all unreached.
  const auto ref = graph::reference_bfs(g, src);
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (store.layout().owner(v) == lost) {
      ASSERT_EQ((*r.levels)[v], -1);
    }
  }
  ASSERT_EQ((*r.levels)[src], 0);

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.partial_queries, 1u);
  EXPECT_GT(st.lost_shard_events, 0u);
  EXPECT_EQ(st.failed, 0u);

  // Partial results are never published: a resubmit after revival must
  // produce the full result, not replay the degraded one.
  store.revive_replica(lost, 0);
  const serve::QueryResult full = run_one(server, src);
  ASSERT_EQ(full.status, serve::QueryStatus::Completed);
  EXPECT_FALSE(full.cache_hit);
  EXPECT_FALSE(full.partial);
  EXPECT_EQ(*full.levels, ref);
  server.shutdown();
}

TEST_F(ShardServing, LostSourceShardFailsUnavailable) {
  const graph::Csr g = toy_graph(9, 29);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(4));
  serve::ServeConfig cfg = manual_cfg();
  cfg.host_fallback = false;  // no host rung: the query has nowhere to go
  serve::Server server(store, cfg);

  const graph::vid_t src = giant.front();
  store.kill_replica(store.layout().owner(src), 0);

  const serve::QueryResult r = run_one(server, src);
  EXPECT_EQ(r.status, serve::QueryStatus::Failed);
  EXPECT_EQ(r.error.code(), StatusCode::Unavailable);
  EXPECT_FALSE(r.levels);
  server.shutdown();
}

TEST_F(ShardServing, ExpiredQueriesResolveWithoutASweep) {
  const graph::Csr g = toy_graph(8, 30);
  ShardedStore store(g, store_cfg(2));
  serve::Server server(store, manual_cfg());

  serve::QueryOptions qo;
  qo.timeout_ms = 1e-6;  // already past the deadline by dispatch time
  qo.bypass_cache = true;
  serve::Admission a = server.submit(0, qo);
  ASSERT_TRUE(a.accepted);
  server.dispatch_once();
  const serve::QueryResult r = a.result.get();
  EXPECT_EQ(r.status, serve::QueryStatus::Expired);
  EXPECT_FALSE(r.levels);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.sweeps, 0u);
  server.shutdown();
}

TEST_F(ShardServing, SameSourceQueriesInOneCycleShareOneSweep) {
  const graph::Csr g = toy_graph(9, 35);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2));
  serve::Server server(store, manual_cfg());

  std::vector<serve::Admission> pending;
  for (int i = 0; i < 4; ++i) {
    serve::Admission a = server.submit(giant[0]);
    ASSERT_TRUE(a.accepted);
    pending.push_back(std::move(a));
  }
  server.dispatch_once();  // one cycle: all four dedup onto one unit
  serve::Levels first;
  for (auto& a : pending) {
    const serve::QueryResult r = a.result.get();
    ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, giant[0]));
    if (!first) first = r.levels;
    EXPECT_EQ(r.levels, first);  // every waiter shares the one sweep's vector
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.computed_sources, 1u);
  EXPECT_EQ(st.completed, 4u);
  server.shutdown();
}

TEST_F(ShardServing, LostSourceShardIsServedByTheHostRung) {
  const graph::Csr g = toy_graph(9, 36);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(4));
  serve::Server server(store, manual_cfg());  // host_fallback defaults on

  const graph::vid_t src = giant.front();
  store.kill_replica(store.layout().owner(src), 0);

  const serve::QueryResult r = run_one(server, src);
  ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.partial);
  EXPECT_EQ(r.engine, "cpu-serial");
  EXPECT_TRUE(graph::validate_levels_graph500(g, src, *r.levels).empty());
  EXPECT_EQ(*r.levels, graph::reference_bfs(g, src));
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.unavailable_failures, 1u);
  EXPECT_EQ(st.host_fallbacks, 1u);
  EXPECT_EQ(st.failed, 0u);
  server.shutdown();
}

TEST_F(ShardServing, OutcomesNoReplicaProducedBurnOnlyTheAggregateLane) {
  const graph::Csr g = toy_graph(9, 37);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(4, 2));
  // A source outside shard 0: dispatch lane w is slot s0r<w>, so a failure
  // charged to the dispatch lane would show as burn on shard 0's replicas.
  graph::vid_t src = giant.front();
  for (const graph::vid_t v : giant) {
    if (store.layout().owner(v) != 0) {
      src = v;
      break;
    }
  }
  const unsigned owner = store.layout().owner(src);
  ASSERT_NE(owner, 0u);
  store.kill_replica(owner, 0);
  store.kill_replica(owner, 1);

  obs::SloEngine& eng = obs::SloEngine::global();
  eng.configure("availability=0.99,window_ms=60000");
  serve::ServeConfig cfg = manual_cfg();
  cfg.host_fallback = false;
  cfg.slo_scope = "shard-aggregate-lane-test";
  serve::Server server(store, cfg);

  const serve::QueryResult r = run_one(server, src);
  EXPECT_EQ(r.status, serve::QueryStatus::Failed);
  EXPECT_EQ(r.error.code(), StatusCode::Unavailable);
  EXPECT_EQ(r.gcd, store.num_slots());

  const obs::SloSnapshot snap = server.stats().slo;
  ASSERT_TRUE(snap.active);
  ASSERT_EQ(snap.per_gcd.size(), store.num_slots());
  for (unsigned sl = 0; sl < store.num_slots(); ++sl) {
    EXPECT_EQ(snap.per_gcd[sl].bad, 0u) << snap.lane_labels[sl];
  }
  EXPECT_EQ(snap.window.bad, 1u);  // the aggregate saw the failure
  server.shutdown();
  eng.disable();
}

TEST_F(ShardServing, CleanQueryRecordsOneShardSweepRung) {
  const graph::Csr g = toy_graph(9, 27);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2, 2));
  serve::Server server(store, manual_cfg());

  const serve::QueryResult r = run_one(server, giant[0]);
  ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
  ASSERT_NE(r.trace, nullptr);
  const std::vector<obs::RungAttribution> rungs = r.trace->rungs();
  ASSERT_EQ(rungs.size(), 1u);
  EXPECT_EQ(rungs[0].engine, "shard-sweep");
  EXPECT_EQ(rungs[0].outcome, "ok");
  EXPECT_EQ(rungs[0].gcd, r.gcd);
  EXPECT_EQ(rungs[0].attempt, 1u);
  EXPECT_EQ(rungs[0].shared_members, 1u);
  EXPECT_GT(rungs[0].launches, 0u);
  EXPECT_GT(rungs[0].modelled_us, 0.0);
  server.shutdown();
}

// --- chaos: injected faults against the sharded tier -------------------------

class ShardChaos : public ShardServing {
 protected:
  static void inject(double kernel, double memcpy, std::uint64_t seed) {
    sim::FaultConfig fc;
    fc.kernel_fault_rate = kernel;
    fc.memcpy_corruption_rate = memcpy;
    fc.seed = seed;
    sim::FaultInjector::global().configure(fc);
  }
};

TEST_F(ShardChaos, KernelFaultsRerouteToSiblingReplicasAndValidate) {
  const graph::Csr g = toy_graph(9, 31);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2, 2));
  serve::ServeConfig cfg = manual_cfg();
  // A sweep makes O(levels * shards) launches, so the per-launch rate must
  // stay low for "most attempts succeed" to hold; 1% still faults roughly
  // every other sweep here.
  cfg.max_attempts = 6;
  cfg.host_fallback = false;  // every Completed must come from a sweep
  inject(/*kernel=*/0.01, /*memcpy=*/0.0, /*seed=*/51);
  serve::Server server(store, cfg);

  std::vector<serve::Admission> pending;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 6; ++i) {
      serve::QueryOptions qo;
      qo.bypass_cache = true;  // fresh fault draws every cycle
      serve::Admission a = server.submit(giant[i], qo);
      ASSERT_TRUE(a.accepted);
      pending.push_back(std::move(a));
    }
    server.dispatch_once();
  }
  for (auto& a : pending) {
    const serve::QueryResult r = a.result.get();
    ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
    EXPECT_TRUE(
        graph::validate_levels_graph500(g, r.source, *r.levels).empty());
    EXPECT_TRUE(r.validated);  // Auto validation is active under injection
    EXPECT_FALSE(r.partial);
    EXPECT_EQ(r.engine, "shard-sweep");
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.host_fallbacks, 0u);
  EXPECT_GT(st.faults_seen, 0u);
  EXPECT_GT(st.retries, 0u);
  server.shutdown();
}

TEST_F(ShardChaos, CorruptedTransfersAreCaughtByValidationAndRetried) {
  const graph::Csr g = toy_graph(9, 32);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2, 2));
  serve::ServeConfig cfg = manual_cfg();
  cfg.max_attempts = 8;
  inject(/*kernel=*/0.0, /*memcpy=*/0.05, /*seed=*/52);
  serve::Server server(store, cfg);

  unsigned completed = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    serve::QueryOptions qo;
    qo.bypass_cache = true;
    const serve::QueryResult r = run_one(server, giant[i], qo);
    if (r.status != serve::QueryStatus::Completed) continue;  // exhausted
    ++completed;
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
    EXPECT_TRUE(r.validated);
  }
  EXPECT_GT(completed, 0u);
  const serve::ServerStats st = server.stats();
  // Either validation tripped (corruption surfaced on a shard copy) or no
  // corrupting draw hit a levels transfer; the former is the interesting
  // path and this seed/rate makes it overwhelmingly likely.
  EXPECT_GT(st.validation_failures + st.faults_seen, 0u);
  EXPECT_EQ(st.completed, completed);
  server.shutdown();
}

TEST_F(ShardChaos, CertainFaultsExhaustAttemptsAndFailCleanly) {
  const graph::Csr g = toy_graph(8, 33);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2));
  serve::ServeConfig cfg = manual_cfg();
  cfg.max_attempts = 2;
  cfg.host_fallback = false;  // no host rung: exhausted attempts fail
  inject(/*kernel=*/1.0, /*memcpy=*/0.0, /*seed=*/53);
  serve::Server server(store, cfg);

  const serve::QueryResult r = run_one(server, giant[0]);
  EXPECT_EQ(r.status, serve::QueryStatus::Failed);
  const StatusCode c = r.error.code();
  EXPECT_TRUE(c == StatusCode::FaultInjected || c == StatusCode::Unavailable)
      << r.error.to_string();
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_GT(st.faults_seen, 0u);
  server.shutdown();
}

TEST_F(ShardChaos, RepeatedFaultsOpenTheSlotBreaker) {
  const graph::Csr g = toy_graph(8, 34);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2, 2));
  serve::ServeConfig cfg = manual_cfg();
  cfg.breaker_failure_threshold = 2;
  cfg.breaker_cooldown_ms = 1e9;  // stays open for the whole test
  cfg.max_attempts = 4;
  inject(/*kernel=*/1.0, /*memcpy=*/0.0, /*seed=*/54);
  serve::Server server(store, cfg);

  for (int i = 0; i < 4; ++i) {
    serve::QueryOptions qo;
    qo.bypass_cache = true;
    (void)run_one(server, giant[0], qo);
  }
  const serve::ServerStats st = server.stats();
  EXPECT_GT(st.breaker_opens, 0u);
  bool any_open = false;
  for (unsigned s = 0; s < store.shards(); ++s) {
    for (unsigned rep = 0; rep < store.replicas(); ++rep) {
      any_open |= server.breaker_state(store.slot(s, rep)) ==
                  serve::BreakerState::Open;
    }
  }
  EXPECT_TRUE(any_open);
  server.shutdown();
}

TEST_F(ShardChaos, AbandonedPlansHandBackHalfOpenProbeTokens) {
  // Regression: planning takes a HalfOpen breaker's single probe token for
  // every shard.  An attempt abandoned before its sweep (here: the source's
  // own shard has no replica) must hand the other shards' tokens back, or
  // those replicas stay HalfOpen with a probe outstanding and never serve
  // again.
  const graph::Csr g = toy_graph(9, 37);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2, 2));
  serve::ServeConfig cfg = manual_cfg();
  cfg.breaker_failure_threshold = 1;
  cfg.breaker_cooldown_ms = 20.0;
  serve::Server server(store, cfg);

  graph::vid_t in0 = 0, in1 = 0;
  bool have0 = false, have1 = false;
  for (const graph::vid_t v : giant) {
    if (!have0 && store.layout().owner(v) == 0) { in0 = v; have0 = true; }
    if (!have1 && store.layout().owner(v) == 1) { in1 = v; have1 = true; }
  }
  ASSERT_TRUE(have0 && have1);
  auto shard1_state = [&](unsigned r) {
    return server.breaker_state(store.slot(1, r));
  };

  store.kill_replica(0, 0);
  store.kill_replica(0, 1);
  inject(/*kernel=*/1.0, /*memcpy=*/0.0, /*seed=*/55);
  serve::QueryOptions qo;
  qo.bypass_cache = true;
  for (int i = 0; i < 16 && !(shard1_state(0) == serve::BreakerState::Open &&
                              shard1_state(1) == serve::BreakerState::Open);
       ++i) {
    (void)run_one(server, in1, qo);
  }
  ASSERT_EQ(shard1_state(0), serve::BreakerState::Open);
  ASSERT_EQ(shard1_state(1), serve::BreakerState::Open);

  sim::FaultInjector::global().disable();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // Plans shard 1 (taking a probe token), then finds shard 0 lost.
  (void)run_one(server, in0, qo);

  store.revive_replica(0, 0);
  store.revive_replica(0, 1);
  for (std::size_t i = 0; i < 4; ++i) {
    const serve::QueryResult r = run_one(server, giant[i], qo);
    ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
  }
  EXPECT_EQ(shard1_state(0), serve::BreakerState::Closed);
  EXPECT_EQ(shard1_state(1), serve::BreakerState::Closed);
  server.shutdown();
}

TEST_F(ShardChaos, RetriedQueryRecordsOneRungPerAttempt) {
  const graph::Csr g = toy_graph(9, 31);
  const auto giant = graph::largest_component_vertices(g);
  ShardedStore store(g, store_cfg(2, 2));
  serve::ServeConfig cfg = manual_cfg();
  cfg.max_attempts = 6;
  cfg.host_fallback = false;
  inject(/*kernel=*/0.01, /*memcpy=*/0.0, /*seed=*/56);
  serve::Server server(store, cfg);

  serve::QueryResult r;
  for (std::size_t i = 0; i < 32 && r.attempts < 2; ++i) {
    serve::QueryOptions qo;
    qo.bypass_cache = true;
    r = run_one(server, giant[i % giant.size()], qo);
    ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
  }
  ASSERT_GE(r.attempts, 2u) << "no query needed a retry";
  ASSERT_NE(r.trace, nullptr);
  const std::vector<obs::RungAttribution> rungs = r.trace->rungs();
  ASSERT_EQ(rungs.size(), r.attempts);
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    EXPECT_EQ(rungs[k].engine, "shard-sweep");
    EXPECT_EQ(rungs[k].attempt, k + 1);
    EXPECT_EQ(rungs[k].outcome, k + 1 < rungs.size() ? "fault" : "ok");
  }
  EXPECT_EQ(rungs.back().gcd, r.gcd);
  server.shutdown();
}

TEST_F(ShardChaos, CorruptedCopyThenFaultDoesNotLeakIntoTheNextSweep) {
  // Regression: a sweep that corrupted a copy on some replica and then
  // faulted left that replica's pending-corruption flag set, so the next
  // sweep through it poisoned its levels — served as Completed once
  // faults (and validation) were off.
  const graph::Csr g = toy_graph(9, 38);
  const auto giant = graph::largest_component_vertices(g);
  ASSERT_GE(giant.size(), 40u);
  ShardedStore store(g, store_cfg(2));
  serve::ServeConfig cfg = manual_cfg();
  cfg.max_attempts = 1;  // one sweep, then the host rung
  inject(/*kernel=*/0.02, /*memcpy=*/1.0, /*seed=*/57);
  serve::Server server(store, cfg);
  sim::FaultInjector& faults = sim::FaultInjector::global();
  serve::QueryOptions qo;
  qo.bypass_cache = true;

  bool faulted_after_copy = false;
  for (std::size_t i = 0; i < 32 && !faulted_after_copy; ++i) {
    const std::uint64_t copies =
        faults.injected(sim::FaultKind::MemcpyCorruption);
    const std::uint64_t rejected = server.stats().validation_failures;
    const serve::QueryResult r = run_one(server, giant[i], qo);
    ASSERT_EQ(r.status, serve::QueryStatus::Completed) << r.error.to_string();
    faulted_after_copy =
        r.engine == "cpu-serial" &&
        faults.injected(sim::FaultKind::MemcpyCorruption) > copies &&
        server.stats().validation_failures == rejected;
  }
  ASSERT_TRUE(faulted_after_copy) << "no sweep corrupted a copy, then faulted";

  faults.disable();
  serve::QueryResult back;
  for (int tries = 0; tries < 50; ++tries) {
    back = run_one(server, giant[39], qo);
    ASSERT_EQ(back.status, serve::QueryStatus::Completed);
    EXPECT_EQ(*back.levels, graph::reference_bfs(g, giant[39]));
    if (back.engine == "shard-sweep") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(back.engine, "shard-sweep") << "no replica served again";
  server.shutdown();
}

}  // namespace
}  // namespace xbfs::shard
