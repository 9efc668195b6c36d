// Resilient-serving tests: the serving engine under injected faults.  The
// contract being verified is the acceptance bar of the resilience work —
// every admitted query completes with validated-correct levels while the
// fault injector is firing, degrading through retry -> engine ladder ->
// host CPU as needed — plus the circuit-breaker state machine itself.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/reference.h"
#include "graph/rmat.h"
#include "hipsim/fault.h"
#include "serve/health.h"
#include "serve/server.h"

namespace xbfs::serve {
namespace {

graph::Csr toy_graph(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::rmat_csr(p);
}

/// Manual dispatch, zero batching window, zero retry backoff: each test
/// drives cycles explicitly and runs in milliseconds even when every
/// device attempt fails.
ServeConfig chaos_config() {
  ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.batch_window_ms = 0.0;
  cfg.retry_backoff_ms = 0.0;
  cfg.breaker_cooldown_ms = 0.1;
  return cfg;
}

/// Tests own the process-wide injector and always hand it back disabled,
/// whatever the ambient XBFS_FAULTS environment configured.
class ServingChaos : public ::testing::Test {
 protected:
  void SetUp() override { sim::FaultInjector::global().disable(); }
  void TearDown() override { sim::FaultInjector::global().disable(); }

  static void inject(double kernel, double memcpy, std::uint64_t seed) {
    sim::FaultConfig fc;
    fc.kernel_fault_rate = kernel;
    fc.memcpy_corruption_rate = memcpy;
    fc.seed = seed;
    sim::FaultInjector::global().configure(fc);
  }
};

TEST_F(ServingChaos, ModerateFaultsEveryQueryCompletesCorrect) {
  const graph::Csr g = toy_graph(9, 41);
  const auto giant = graph::largest_component_vertices(g);
  ASSERT_GE(giant.size(), 8u);

  inject(/*kernel=*/0.2, /*memcpy=*/0.1, /*seed=*/11);
  Server server(g, chaos_config());

  std::vector<Admission> pending;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < 8; ++i) {
      QueryOptions qo;
      qo.bypass_cache = true;  // force a traversal (and fault draws) each time
      Admission a = server.submit(giant[i], qo);
      ASSERT_TRUE(a.accepted);
      pending.push_back(std::move(a));
    }
    server.dispatch_once();
  }

  for (std::size_t i = 0; i < pending.size(); ++i) {
    const QueryResult r = pending[i].result.get();
    ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
    EXPECT_TRUE(r.validated);  // Auto validation is active under injection
    // attempts counts device dispatches; it is 0 only when an open breaker
    // sent the query straight to the host rung.
    EXPECT_TRUE(r.attempts >= 1 || r.engine == "cpu-serial")
        << r.engine << " attempts=" << r.attempts;
    EXPECT_FALSE(r.engine.empty());
  }

  const ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.completed, pending.size());
  EXPECT_GT(st.validated_results, 0u);
  server.shutdown();
}

TEST_F(ServingChaos, StragglerPenaltiesAccumulateAndTripTheBreaker) {
  const graph::Csr g = toy_graph(8, 47);
  const auto giant = graph::largest_component_vertices(g);
  ASSERT_GE(giant.size(), 6u);

  ServeConfig cfg = chaos_config();
  // Zero straggler budget: every completed device dispatch blows it.
  // Regression: the success report that follows a kept straggler result
  // used to reset the breaker's failure streak (0 -> 1 -> 0 each time),
  // so dispatch timeouts could never trip the default threshold of 3.
  cfg.dispatch_timeout_ms = 0.0;
  Server server(g, cfg);

  std::vector<Admission> pending;
  for (std::size_t i = 0; i < 6; ++i) {
    QueryOptions qo;
    qo.bypass_cache = true;  // force a fresh device dispatch per cycle
    Admission a = server.submit(giant[i], qo);
    ASSERT_TRUE(a.accepted);
    pending.push_back(std::move(a));
    server.dispatch_once();
  }
  for (auto& a : pending) {
    const QueryResult r = a.result.get();
    // Stragglers keep their results; only the health tracker is penalized.
    ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
  }

  const ServerStats st = server.stats();
  EXPECT_GE(st.dispatch_timeouts, 3u);
  EXPECT_GE(st.breaker_opens, 1u);
  server.shutdown();
}

TEST_F(ServingChaos, CertainCorruptionIsDetectedAndServedViaTheHost) {
  const graph::Csr g = toy_graph(9, 42);
  const auto giant = graph::largest_component_vertices(g);

  // Every device transfer corrupt: validation must reject every device
  // result and the host rung (immune to simulated faults) must serve.
  inject(/*kernel=*/0.0, /*memcpy=*/1.0, /*seed=*/12);
  Server server(g, chaos_config());

  std::vector<Admission> pending;
  for (std::size_t i = 0; i < 4; ++i) {
    Admission a = server.submit(giant[i]);
    ASSERT_TRUE(a.accepted);
    pending.push_back(std::move(a));
  }
  server.dispatch_once();

  for (auto& a : pending) {
    const QueryResult r = a.result.get();
    ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
    EXPECT_EQ(*r.levels, graph::reference_bfs(g, r.source));
    EXPECT_TRUE(r.validated);
    EXPECT_TRUE(r.degraded);
  }

  const ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.validation_failures, 0u);
  EXPECT_GT(st.host_fallbacks, 0u);
  EXPECT_GT(st.degraded_queries, 0u);
  server.shutdown();
}

TEST_F(ServingChaos, CertainKernelFaultsDegradeToTheHostAndOpenTheBreaker) {
  const graph::Csr g = toy_graph(9, 43);
  const auto giant = graph::largest_component_vertices(g);

  inject(/*kernel=*/1.0, /*memcpy=*/0.0, /*seed=*/13);
  Server server(g, chaos_config());

  Admission a = server.submit(giant[0]);
  ASSERT_TRUE(a.accepted);
  server.dispatch_once();
  const QueryResult r = a.result.get();

  ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
  EXPECT_EQ(*r.levels, graph::reference_bfs(g, giant[0]));
  EXPECT_EQ(r.engine, "cpu-serial");  // nothing device-side could finish
  EXPECT_TRUE(r.degraded);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.faults_seen, 0u);
  EXPECT_GT(st.retries, 0u);
  EXPECT_GT(st.host_fallbacks, 0u);
  EXPECT_GT(st.breaker_opens, 0u);
  server.shutdown();
}

TEST_F(ServingChaos, WithoutHostFallbackExhaustedQueriesResolveFailed) {
  const graph::Csr g = toy_graph(9, 44);
  const auto giant = graph::largest_component_vertices(g);

  ServeConfig cfg = chaos_config();
  cfg.host_fallback = false;
  inject(/*kernel=*/1.0, /*memcpy=*/0.0, /*seed=*/14);
  Server server(g, cfg);

  Admission a = server.submit(giant[0]);
  ASSERT_TRUE(a.accepted);
  server.dispatch_once();
  const QueryResult r = a.result.get();

  EXPECT_EQ(r.status, QueryStatus::Failed);
  EXPECT_FALSE(r.levels);
  EXPECT_FALSE(r.error.ok());
  // The terminal status names a resilience-path failure, not a mystery.
  const StatusCode c = r.error.code();
  EXPECT_TRUE(c == StatusCode::FaultInjected || c == StatusCode::Unavailable ||
              c == StatusCode::ResourceExhausted)
      << r.error.to_string();

  const ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 0u);
  server.shutdown();
}

TEST_F(ServingChaos, RecoveryAfterFaultsStopServesOnTheDeviceAgain) {
  const graph::Csr g = toy_graph(9, 45);
  const auto giant = graph::largest_component_vertices(g);

  inject(/*kernel=*/1.0, /*memcpy=*/0.0, /*seed=*/15);
  Server server(g, chaos_config());
  Admission first = server.submit(giant[0]);
  ASSERT_TRUE(first.accepted);
  server.dispatch_once();
  EXPECT_EQ(first.result.get().engine, "cpu-serial");

  // Storm over: the breaker's cooldown (0.1 ms) elapses, the half-open
  // probe succeeds, and traffic returns to the device ladder.
  sim::FaultInjector::global().disable();
  QueryOptions qo;
  qo.bypass_cache = true;
  QueryResult back;
  for (int tries = 0; tries < 50; ++tries) {
    Admission again = server.submit(giant[1], qo);
    ASSERT_TRUE(again.accepted);
    server.dispatch_once();
    back = again.result.get();
    ASSERT_EQ(back.status, QueryStatus::Completed);
    if (back.engine != "cpu-serial") break;
  }
  EXPECT_EQ(*back.levels, graph::reference_bfs(g, giant[1]));
  EXPECT_NE(back.engine, "cpu-serial") << "breaker never closed";

  const ServerStats st = server.stats();
  EXPECT_GT(st.breaker_closes, 0u);
  server.shutdown();
}

TEST_F(ServingChaos, CorruptedCopyThenFaultDoesNotLeakIntoTheNextAttempt) {
  // Regression: an attempt that corrupted a copy and then faulted left the
  // device's pending-corruption flag set.  The next attempt on that GCD
  // then poisoned its own levels — with faults off and validation off, a
  // wrong answer was served as Completed.
  const graph::Csr g = toy_graph(9, 46);
  const auto giant = graph::largest_component_vertices(g);
  ASSERT_GE(giant.size(), 40u);

  ServeConfig cfg = chaos_config();
  cfg.max_attempts = 1;  // one device attempt, then the host rung
  inject(/*kernel=*/0.05, /*memcpy=*/1.0, /*seed=*/16);
  Server server(g, cfg);
  sim::FaultInjector& faults = sim::FaultInjector::global();
  QueryOptions qo;
  qo.bypass_cache = true;

  bool faulted_after_copy = false;
  for (std::size_t i = 0; i < 32 && !faulted_after_copy; ++i) {
    const std::uint64_t copies =
        faults.injected(sim::FaultKind::MemcpyCorruption);
    const std::uint64_t rejected = server.stats().validation_failures;
    Admission a = server.submit(giant[i], qo);
    ASSERT_TRUE(a.accepted);
    server.dispatch_once();
    const QueryResult r = a.result.get();
    ASSERT_EQ(r.status, QueryStatus::Completed) << r.error.to_string();
    faulted_after_copy =
        r.engine == "cpu-serial" &&
        faults.injected(sim::FaultKind::MemcpyCorruption) > copies &&
        server.stats().validation_failures == rejected;
  }
  ASSERT_TRUE(faulted_after_copy)
      << "no attempt corrupted a copy, then faulted";

  // Faults off (and with them validation): the device must serve the
  // reference answer once its breaker lets it back in.
  faults.disable();
  QueryResult back;
  for (int tries = 0; tries < 50; ++tries) {
    Admission a = server.submit(giant[39], qo);
    ASSERT_TRUE(a.accepted);
    server.dispatch_once();
    back = a.result.get();
    ASSERT_EQ(back.status, QueryStatus::Completed);
    EXPECT_EQ(*back.levels, graph::reference_bfs(g, giant[39]));
    if (back.engine != "cpu-serial") break;
  }
  EXPECT_NE(back.engine, "cpu-serial") << "the device never served again";
  server.shutdown();
}

// --- circuit breaker state machine ------------------------------------------

TEST_F(ServingChaos, BreakerTripsCoolsProbesAndRecovers) {
  BreakerConfig bc;
  bc.failure_threshold = 3;
  bc.cooldown_ms = 5.0;
  HealthTracker h(/*num_slots=*/2, bc);

  double now = 0.0;
  EXPECT_TRUE(h.allow(0, now));
  EXPECT_EQ(h.state(0), BreakerState::Closed);

  // Two failures: still closed (threshold is 3).
  h.record_failure(0, now);
  h.record_failure(0, now);
  EXPECT_EQ(h.state(0), BreakerState::Closed);
  // A success resets the consecutive count.
  h.record_success(0);
  h.record_failure(0, now);
  h.record_failure(0, now);
  EXPECT_EQ(h.state(0), BreakerState::Closed);
  // Third consecutive failure trips it.
  h.record_failure(0, now);
  EXPECT_EQ(h.state(0), BreakerState::Open);
  EXPECT_FALSE(h.allow(0, now + 1.0e3));  // cooldown not elapsed (1 ms)

  // Cooldown elapsed: exactly one probe token is handed out.
  now = 6.0e3;  // 6 ms, past the 5 ms cooldown
  EXPECT_TRUE(h.allow(0, now));
  EXPECT_EQ(h.state(0), BreakerState::HalfOpen);
  EXPECT_FALSE(h.allow(0, now)) << "second probe granted while one is out";

  // Failed probe: straight back to Open, cooldown restarts.
  h.record_failure(0, now);
  EXPECT_EQ(h.state(0), BreakerState::Open);
  EXPECT_FALSE(h.allow(0, now + 1.0e3));

  // Next probe succeeds: fully Closed again.
  now = 12.5e3;
  EXPECT_TRUE(h.allow(0, now));
  h.record_success(0);
  EXPECT_EQ(h.state(0), BreakerState::Closed);
  EXPECT_TRUE(h.allow(0, now));

  const HealthTracker::Counters c = h.counters();
  EXPECT_EQ(c.opens, 2u);
  EXPECT_EQ(c.half_opens, 2u);
  EXPECT_EQ(c.closes, 1u);
}

TEST_F(ServingChaos, PickPrefersTheHomeSlotAndRoutesAroundOpenBreakers) {
  BreakerConfig bc;
  bc.failure_threshold = 1;
  bc.cooldown_ms = 1.0e6;  // effectively never cools down in this test
  HealthTracker h(/*num_slots=*/3, bc);

  EXPECT_EQ(h.pick(1, 0.0), 1u);  // healthy home slot wins
  h.record_failure(1, 0.0);       // threshold 1: slot 1 opens
  const unsigned rerouted = h.pick(1, 0.0);
  EXPECT_NE(rerouted, 1u);
  EXPECT_LT(rerouted, 3u);

  h.record_failure(0, 0.0);
  h.record_failure(2, 0.0);
  EXPECT_EQ(h.pick(1, 0.0), HealthTracker::kNone);  // everything open
}

}  // namespace
}  // namespace xbfs::serve
