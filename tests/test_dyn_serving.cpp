// Dynamic serving tests: the result cache's epoch-bump purge / lazy stale
// reap, the server's update-admission lane (writes serialized, reads never
// blocked, cache purged per epoch), and that every query served across a
// stream of updates matches a fresh reference BFS on the exact graph the
// result was computed against.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "dyn/delta_ref.h"
#include "dyn/graph_store.h"
#include "graph/builder.h"
#include "graph/rmat.h"
#include "serve/result_cache.h"
#include "serve/server.h"

namespace xbfs::serve {
namespace {

// Cache key parts of a default-params BFS result.
constexpr core::AlgoKind kBfs = core::AlgoKind::Bfs;
const std::uint64_t kBfsHash = bfs_params_hash();

using graph::vid_t;

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
  cfg.xbfs.report_runs = false;
  return cfg;
}

CachedResult make_result(std::uint32_t depth) {
  CachedResult r;
  r.levels = std::make_shared<const std::vector<std::int32_t>>(
      std::vector<std::int32_t>{0, 1});
  r.depth = depth;
  return r;
}

// --- ResultCache epoch invalidation ---------------------------------------

TEST(DynResultCache, EpochBumpPurgesRetiredEpochs) {
  ResultCache cache(8, 1);
  cache.prime(100);
  cache.put(100, kBfs, kBfsHash, 1, make_result(1));
  cache.put(100, kBfs, kBfsHash, 2, make_result(1));
  EXPECT_EQ(cache.size(), 2u);

  const std::size_t purged = cache.epoch_bump(200);
  EXPECT_EQ(purged, 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(static_cast<bool>(cache.get(100, kBfs, kBfsHash, 1)));

  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.epoch_bumps, 1u);
  EXPECT_EQ(s.purged_stale, 2u);
}

TEST(DynResultCache, EpochBumpKeepsCurrentEpochEntries) {
  ResultCache cache(8, 1);
  cache.prime(100);
  // Already keyed under the new epoch.
  cache.put(200, kBfs, kBfsHash, 1, make_result(1));
  cache.put(100, kBfs, kBfsHash, 2, make_result(1));
  EXPECT_EQ(cache.epoch_bump(200), 1u);  // only the epoch-100 entry goes
  EXPECT_TRUE(static_cast<bool>(cache.get(200, kBfs, kBfsHash, 1)));
}

TEST(DynResultCache, LazyReapCountsAvoidedStaleHits) {
  // A purge can't run (e.g. an entry was inserted under the old key after
  // the sweep); the get() path must still reap the prior epoch's twin.
  ResultCache cache(8, 1);
  cache.prime(100);
  cache.epoch_bump(200);          // prev=100, current=200
  // A straggler under the retired epoch.
  cache.put(100, kBfs, kBfsHash, 7, make_result(1));
  EXPECT_EQ(cache.size(), 1u);

  // Miss on the live key for the same source: the stale twin is dropped.
  EXPECT_FALSE(static_cast<bool>(cache.get(200, kBfs, kBfsHash, 7)));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stale_hits_avoided, 1u);
}

TEST(DynResultCache, UnprimedCacheNeverReaps) {
  ResultCache cache(8, 1);
  cache.put(100, kBfs, kBfsHash, 7, make_result(1));
  // A plain miss.
  EXPECT_FALSE(static_cast<bool>(cache.get(200, kBfs, kBfsHash, 7)));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().stale_hits_avoided, 0u);
}

TEST(DynResultCache, CrossedShardReapsDoNotDeadlock) {
  // Two get()s whose live and stale keys land in crossed shards: each one
  // reaps a twin from the shard the other looks up first.  A get() that
  // kept its own shard locked while taking the twin's would invert lock
  // order against the other (ThreadSanitizer reports it; a bad interleaving
  // deadlocks).
  constexpr std::uint64_t kLive = 200;
  constexpr std::uint64_t kStale = 100;
  // Shard placement is private, but a 2-shard cache with one slot per shard
  // reveals it: two puts evict iff their keys share a shard.
  auto same_shard = [](std::uint64_t fp_a, vid_t a, std::uint64_t fp_b,
                       vid_t b) {
    ResultCache probe(2, 2);
    probe.put(fp_a, kBfs, kBfsHash, a, make_result(1));
    probe.put(fp_b, kBfs, kBfsHash, b, make_result(1));
    return probe.stats().evictions == 1;
  };
  vid_t a = 0;
  while (same_shard(kLive, a, kStale, a)) ++a;
  vid_t b = a + 1;
  while (!same_shard(kLive, b, kStale, a) || !same_shard(kStale, b, kLive, a)) {
    ++b;
  }

  ResultCache cache(64, 2);
  cache.prime(kStale);
  cache.epoch_bump(kLive);
  // Late puts under the retired fingerprint, after the bump's sweep.
  cache.put(kStale, kBfs, kBfsHash, a, make_result(1));
  cache.put(kStale, kBfs, kBfsHash, b, make_result(1));
  std::thread ta([&] {
    EXPECT_FALSE(static_cast<bool>(cache.get(kLive, kBfs, kBfsHash, a)));
  });
  std::thread tb([&] {
    EXPECT_FALSE(static_cast<bool>(cache.get(kLive, kBfs, kBfsHash, b)));
  });
  ta.join();
  tb.join();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stale_hits_avoided, 2u);
}

// --- dynamic server -------------------------------------------------------

std::vector<std::int32_t> query_levels(Server& server, vid_t src) {
  Admission a = server.submit(src);
  EXPECT_TRUE(a.accepted);
  while (server.dispatch_once() == 0 &&
         a.result.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
  }
  QueryResult r = a.result.get();
  EXPECT_EQ(r.status, QueryStatus::Completed);
  return r.levels ? *r.levels : std::vector<std::int32_t>{};
}

TEST(DynServing, StaticServerRejectsUpdates) {
  const graph::Csr g = graph::build_csr(4, {{0, 1}, {1, 2}});
  Server server(g, manual_config());
  dyn::EdgeBatch b;
  b.insert(2, 3);
  const UpdateAdmission a = server.submit_update(b);
  EXPECT_FALSE(a.accepted);
  EXPECT_EQ(a.status.code(), xbfs::StatusCode::InvalidArgument);
  EXPECT_FALSE(server.dynamic());
  server.shutdown();
}

TEST(DynServing, UpdatesApplyAndInvalidateCache) {
  dyn::GraphStore store(graph::build_csr(4, {{0, 1}, {1, 2}, {2, 3}}));
  Server server(store, manual_config());
  EXPECT_TRUE(server.dynamic());

  // Warm the cache, then update: levels must reflect the new graph.
  EXPECT_EQ(query_levels(server, 0),
            (std::vector<std::int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(query_levels(server, 0),
            (std::vector<std::int32_t>{0, 1, 2, 3}));  // cache hit

  dyn::EdgeBatch b;
  b.insert(0, 3);
  const UpdateAdmission a = server.submit_update(b);
  ASSERT_TRUE(a.accepted);
  EXPECT_EQ(a.epoch, 1u);
  EXPECT_EQ(a.applied.inserts_applied, 1u);
  EXPECT_EQ(a.fingerprint, server.graph_fingerprint());
  EXPECT_GE(a.cache_purged, 1u);  // the warmed entry went with the epoch

  EXPECT_EQ(query_levels(server, 0),
            (std::vector<std::int32_t>{0, 1, 2, 1}));

  const ServerStats st = server.stats();
  EXPECT_EQ(st.updates_submitted, 1u);
  EXPECT_EQ(st.updates_applied, 1u);
  EXPECT_EQ(st.update_edges_applied, 1u);
  EXPECT_EQ(st.graph_epoch, 1u);
  EXPECT_GE(st.cache_epoch_bumps, 1u);
  EXPECT_GE(st.cache_purged_stale, 1u);
  EXPECT_GE(st.recomputes, 1u);
  server.shutdown();
}

TEST(DynServing, ServedLevelsTrackUpdatesAgainstReference) {
  const graph::Csr base = undirected_rmat(8, 21);
  dyn::GraphStore store(base);
  Server server(store, manual_config());

  std::mt19937_64 rng(13);
  std::uniform_int_distribution<vid_t> pick(0, base.num_vertices() - 1);
  for (int round = 0; round < 5; ++round) {
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

    const vid_t src = pick(rng);
    const std::vector<std::int32_t> got = query_levels(server, src);
    const dyn::Snapshot now = store.snapshot();
    EXPECT_EQ(got, dyn::reference_bfs(*now.graph, src))
        << "round " << round << " src " << src;
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.graph_epoch, 5u);
  EXPECT_GT(st.repairs + st.recomputes, 0u);
  server.shutdown();
}

TEST(DynServing, ReadsAreNeverBlockedByWrites) {
  const graph::Csr base = undirected_rmat(8, 33);
  dyn::GraphStore store(base);
  ServeConfig cfg;  // threaded scheduler: reads and writes overlap
  cfg.xbfs.report_runs = false;
  cfg.num_gcds = 2;
  Server server(store, cfg);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::mt19937_64 rng(1);
    std::uniform_int_distribution<vid_t> pick(0, base.num_vertices() - 1);
    while (!stop.load(std::memory_order_acquire)) {
      dyn::EdgeBatch b;
      const vid_t u = pick(rng);
      const vid_t v = pick(rng);
      if (u != v) {
        if (store.snapshot().graph->has_edge(u, v)) {
          b.erase(u, v);
        } else {
          b.insert(u, v);
        }
        server.submit_update(b);
      }
      std::this_thread::yield();
    }
  });

  std::mt19937_64 rng(2);
  std::uniform_int_distribution<vid_t> pick(0, base.num_vertices() - 1);
  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 64; ++i) {
    Admission a = server.submit(pick(rng));
    ASSERT_TRUE(a.accepted);
    if (a.result.valid()) futs.push_back(std::move(a.result));
  }
  server.drain();
  stop.store(true, std::memory_order_release);
  writer.join();

  std::size_t completed = 0;
  for (auto& f : futs) {
    const QueryResult r = f.get();
    // Every query resolves with levels; the snapshot it ran on is one of
    // the epochs the writer published, so validate shape only.
    EXPECT_EQ(r.status, QueryStatus::Completed);
    ASSERT_TRUE(r.levels);
    EXPECT_EQ(r.levels->size(), base.num_vertices());
    ++completed;
  }
  EXPECT_EQ(completed, futs.size());
  EXPECT_GT(server.stats().updates_applied, 0u);
  server.shutdown();
}

TEST(DynServing, ShutdownRejectsUpdates) {
  dyn::GraphStore store(graph::build_csr(3, {{0, 1}, {1, 2}}));
  Server server(store, manual_config());
  server.shutdown();
  dyn::EdgeBatch b;
  b.insert(0, 2);
  const UpdateAdmission a = server.submit_update(b);
  EXPECT_FALSE(a.accepted);
  EXPECT_EQ(a.status.code(), xbfs::StatusCode::ShuttingDown);
}

TEST(DynServing, SummaryCarriesDynamicCounters) {
  dyn::GraphStore store(graph::build_csr(4, {{0, 1}, {1, 2}, {2, 3}}));
  Server server(store, manual_config());
  (void)query_levels(server, 0);
  dyn::EdgeBatch b;
  b.insert(0, 2);
  server.submit_update(b);
  (void)query_levels(server, 0);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.updates_applied, 1u);
  EXPECT_EQ(st.graph_epoch, 1u);
  EXPECT_EQ(st.repairs + st.recomputes, st.computed_sources);
  server.shutdown();
}

}  // namespace
}  // namespace xbfs::serve
