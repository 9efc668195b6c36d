// Serving-engine tests: admission/backpressure, deadline triage, the
// result cache's aliasing guarantee (a hit hands out the very object the
// cold run produced), bit-identical levels across the cold / batched /
// cache-hit paths, and race-freedom under concurrent submit + drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace xbfs::serve {
namespace {

// Cache key parts of a default-params BFS result.
constexpr core::AlgoKind kBfs = core::AlgoKind::Bfs;
const std::uint64_t kBfsHash = bfs_params_hash();

graph::Csr undirected_rmat(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::rmat_csr(p);
}

ServeConfig manual_config() {
  ServeConfig cfg;
  cfg.manual_dispatch = true;
  cfg.batch_window_ms = 0.0;
  return cfg;
}

// --- result cache ------------------------------------------------------------

TEST(ResultCache, LruEvictionAndCounters) {
  ResultCache cache(/*capacity=*/2, /*shards=*/1);
  auto mk = [](int depth) {
    CachedResult r;
    r.levels = std::make_shared<const std::vector<std::int32_t>>(
        std::vector<std::int32_t>{0, 1});
    r.depth = static_cast<std::uint32_t>(depth);
    return r;
  };
  cache.put(1, kBfs, kBfsHash, 10, mk(1));
  cache.put(1, kBfs, kBfsHash, 11, mk(2));
  // 10 is now MRU, so the third put evicts 11 (LRU).
  EXPECT_TRUE(static_cast<bool>(cache.get(1, kBfs, kBfsHash, 10)));
  cache.put(1, kBfs, kBfsHash, 12, mk(3));
  EXPECT_FALSE(static_cast<bool>(cache.get(1, kBfs, kBfsHash, 11)));
  EXPECT_TRUE(static_cast<bool>(cache.get(1, kBfs, kBfsHash, 10)));
  EXPECT_TRUE(static_cast<bool>(cache.get(1, kBfs, kBfsHash, 12)));

  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(ResultCache, DistinctGraphFingerprintsDoNotCollide) {
  ResultCache cache(8, 1);
  CachedResult r;
  r.levels = std::make_shared<const std::vector<std::int32_t>>(
      std::vector<std::int32_t>{0});
  cache.put(/*graph_fp=*/111, kBfs, kBfsHash, /*source=*/5, r);
  EXPECT_FALSE(static_cast<bool>(cache.get(222, kBfs, kBfsHash, 5)));
  EXPECT_TRUE(static_cast<bool>(cache.get(111, kBfs, kBfsHash, 5)));
}

TEST(ResultCache, ZeroCapacityIsDisabled) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  CachedResult r;
  r.levels = std::make_shared<const std::vector<std::int32_t>>(
      std::vector<std::int32_t>{0});
  cache.put(1, kBfs, kBfsHash, 1, r);
  EXPECT_FALSE(static_cast<bool>(cache.get(1, kBfs, kBfsHash, 1)));
  EXPECT_EQ(cache.size(), 0u);
}

// --- cache-hit aliasing + correctness ----------------------------------------

TEST(Serving, CacheHitReturnsTheSameLevelsObjectAsTheColdRun) {
  const graph::Csr g = undirected_rmat(9, 31);
  const auto giant = graph::largest_component_vertices(g);
  const graph::vid_t src = giant[0];
  Server server(g, manual_config());

  Admission cold = server.submit(src);
  ASSERT_TRUE(cold.accepted);
  server.dispatch_once();
  const QueryResult r1 = cold.result.get();
  EXPECT_EQ(r1.status, QueryStatus::Completed);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(*r1.levels, graph::reference_bfs(g, src));

  Admission warm = server.submit(src);
  ASSERT_TRUE(warm.accepted);
  // A hit resolves at submit — no dispatch cycle ran in between.
  const QueryResult r2 = warm.result.get();
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.depth, r1.depth);
  // Same underlying object, not a copy.
  EXPECT_EQ(r2.levels.get(), r1.levels.get());

  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.computed_sources, 1u);
}

TEST(Serving, BypassCacheForcesAFreshTraversal) {
  const graph::Csr g = undirected_rmat(9, 32);
  const auto giant = graph::largest_component_vertices(g);
  const graph::vid_t src = giant[0];
  Server server(g, manual_config());

  Admission cold = server.submit(src);
  server.dispatch_once();
  const QueryResult r1 = cold.result.get();

  QueryOptions opt;
  opt.bypass_cache = true;
  Admission fresh = server.submit(src, opt);
  ASSERT_TRUE(fresh.accepted);
  server.dispatch_once();
  const QueryResult r2 = fresh.result.get();
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_NE(r2.levels.get(), r1.levels.get());  // recomputed, not aliased
  EXPECT_EQ(*r2.levels, *r1.levels);            // but bit-identical
}

TEST(Serving, ServedLevelsAreBitIdenticalAcrossAllPaths) {
  const graph::Csr g = undirected_rmat(10, 33);
  const auto giant = graph::largest_component_vertices(g);
  ServeConfig cfg = manual_config();
  cfg.max_batch = 4;         // force several batches...
  cfg.min_sweep_sources = 2; // ...dispatched as multi-source sweeps
  Server server(g, cfg);

  // 10 distinct sources + duplicates: exercises singleton fallback (first
  // round has >1 distinct so all go multi), dedup and, on resubmission,
  // the cache-hit path.
  std::vector<graph::vid_t> sources;
  for (int i = 0; i < 10; ++i) {
    sources.push_back(giant[(i * 317) % giant.size()]);
  }
  sources.push_back(sources[0]);
  sources.push_back(sources[5]);

  std::vector<Admission> admitted;
  for (const graph::vid_t s : sources) admitted.push_back(server.submit(s));
  server.drain();

  for (std::size_t i = 0; i < sources.size(); ++i) {
    ASSERT_TRUE(admitted[i].accepted) << i;
    const QueryResult r = admitted[i].result.get();
    ASSERT_EQ(r.status, QueryStatus::Completed) << i;
    const std::vector<std::int32_t> want =
        graph::reference_bfs(g, sources[i]);
    EXPECT_EQ(*r.levels, want) << "source " << sources[i];
    // The sweep path reports the same depth convention as every
    // TraversalEngine rung: levels run = deepest reached level + 1.
    std::int32_t max_level = 0;
    for (const std::int32_t lv : want) max_level = std::max(max_level, lv);
    EXPECT_EQ(r.depth, static_cast<std::uint32_t>(max_level) + 1)
        << "source " << sources[i];
  }
  // Duplicates shared traversals: only 10 distinct sources were computed.
  EXPECT_EQ(server.stats().computed_sources, 10u);
}

// --- admission / backpressure ------------------------------------------------

TEST(Serving, BackpressureRejectsWhenTheQueueIsFull) {
  const graph::Csr g = undirected_rmat(8, 34);
  ServeConfig cfg = manual_config();
  cfg.queue_capacity = 4;
  cfg.cache_capacity = 0;  // every submit must actually queue
  Server server(g, cfg);

  std::vector<Admission> admitted;
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(server.submit(static_cast<graph::vid_t>(i)));
    EXPECT_TRUE(admitted.back().accepted) << i;
  }
  Admission overflow = server.submit(4);
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.status.code(), xbfs::StatusCode::QueueFull);
  EXPECT_STREQ(xbfs::status_code_name(overflow.status.code()), "queue-full");
  EXPECT_EQ(server.stats().rejected_full, 1u);

  // Draining frees capacity; admission works again.
  server.drain();
  Admission retry = server.submit(4);
  EXPECT_TRUE(retry.accepted);
  server.drain();
  EXPECT_EQ(retry.result.get().status, QueryStatus::Completed);
  for (Admission& a : admitted) {
    EXPECT_EQ(a.result.get().status, QueryStatus::Completed);
  }
}

TEST(Serving, InvalidSourceAndShutdownAreRejectedWithReasons) {
  const graph::Csr g = undirected_rmat(8, 35);
  Server server(g, manual_config());

  Admission bad = server.submit(g.num_vertices() + 100);
  EXPECT_FALSE(bad.accepted);
  EXPECT_EQ(bad.status.code(), xbfs::StatusCode::InvalidArgument);

  server.shutdown();
  Admission late = server.submit(0);
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.status.code(), xbfs::StatusCode::ShuttingDown);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.rejected_invalid, 1u);
  EXPECT_EQ(st.rejected_shutdown, 1u);
}

// --- deadlines ---------------------------------------------------------------

TEST(Serving, ExpiredQueriesAreReportedNotDropped) {
  const graph::Csr g = undirected_rmat(8, 36);
  ServeConfig cfg = manual_config();
  cfg.cache_capacity = 0;
  Server server(g, cfg);

  QueryOptions opt;
  opt.timeout_ms = 0.5;
  Admission a = server.submit(0, opt);
  ASSERT_TRUE(a.accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.dispatch_once();

  // The future resolves (never dropped) with an explicit Expired status.
  const QueryResult r = a.result.get();
  EXPECT_EQ(r.status, QueryStatus::Expired);
  EXPECT_STREQ(query_status_name(r.status), "expired");
  EXPECT_EQ(r.levels, nullptr);
  EXPECT_GE(r.queue_ms, 0.5);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.computed_sources, 0u);  // no traversal was wasted on it
}

TEST(Serving, NoDeadlineMeansQueriesNeverExpire) {
  const graph::Csr g = undirected_rmat(8, 37);
  ServeConfig cfg = manual_config();
  cfg.default_timeout_ms = -1.0;
  Server server(g, cfg);

  Admission a = server.submit(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.dispatch_once();
  EXPECT_EQ(a.result.get().status, QueryStatus::Completed);
}

// --- concurrency -------------------------------------------------------------

TEST(Serving, ConcurrentSubmitAndDrainIsRaceFree) {
  const graph::Csr g = undirected_rmat(9, 38);
  const auto giant = graph::largest_component_vertices(g);
  ServeConfig cfg;  // threaded scheduler
  cfg.num_gcds = 2;
  cfg.batch_window_ms = 0.2;
  Server server(g, cfg);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const graph::vid_t src = giant[(t * kPerThread + i * 7) % 24];
        Admission a = server.submit(src);
        ASSERT_TRUE(a.accepted);
        const QueryResult r = a.result.get();
        ASSERT_EQ(r.status, QueryStatus::Completed);
        ASSERT_EQ(*r.levels, graph::reference_bfs(g, src));
        ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  server.drain();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.accepted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(st.completed + st.expired, st.accepted);
  // Hot sources repeat across threads: sharing must have kicked in.
  EXPECT_LT(st.computed_sources, st.completed);
}

TEST(Serving, ClosedLoopWorkloadDrivesTheServer) {
  const graph::Csr g = undirected_rmat(9, 39);
  const auto giant = graph::largest_component_vertices(g);
  ServeConfig cfg;
  cfg.batch_window_ms = 0.2;
  Server server(g, cfg);

  std::vector<graph::vid_t> candidates(giant.begin(),
                                       giant.begin() + std::min<std::size_t>(
                                                           32, giant.size()));
  const auto sources = zipf_sources(candidates, 96, 1.0, 77);
  LoadOptions opt;
  opt.clients = 4;
  const LoadReport rep = run_closed_loop(server, sources, opt);
  EXPECT_EQ(rep.attempted, 96u);
  EXPECT_EQ(rep.accepted, 96u);
  EXPECT_EQ(rep.completed, 96u);
  EXPECT_EQ(rep.expired, 0u);

  server.shutdown();
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 96u);
  // Zipf(1.0) over 32 candidates repeats hot sources; the cache must hit.
  EXPECT_GT(st.cache_hits, 0u);
  EXPECT_GT(st.qps, 0.0);
  EXPECT_GT(st.latency_p99_ms, 0.0);
  EXPECT_GE(st.latency_p99_ms, st.latency_p50_ms);
}

TEST(Serving, ZipfGeneratorIsDeterministicAndSkewed) {
  ZipfGenerator a(100, 1.0, 9);
  ZipfGenerator b(100, 1.0, 9);
  std::vector<std::size_t> hist(100, 0);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t r = a.next();
    ASSERT_EQ(r, b.next());
    ASSERT_LT(r, 100u);
    ++hist[r];
  }
  // Rank 0 must dominate the tail under s=1.0.
  EXPECT_GT(hist[0], hist[50] * 4);
}

}  // namespace
}  // namespace xbfs::serve
