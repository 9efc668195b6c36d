// The query-serving engine: turns the offline XBFS reproduction into a
// traffic-handling system for the whole algorithm family.
//
//   clients --submit()--> AdmissionQueue --(scheduler thread)--> batches
//                              |  (QoS-classed, weighted drain)      |
//                        backpressure                    sim::ThreadPool, one
//                       (reject w/ reason)               dispatch lane each
//                                                                   |
//                  ResultCache <--publish-- multi_source_bfs (<=64-way sweep),
//                       |                   per-kind AlgorithmEngine ladders
//                  hits resolve             (core::EngineRegistry), or the
//                  at submit()              distributed shard::ShardSweep
//
// One front end, three graph backings:
//   * static   (const graph::Csr&)   — one device per GCD, every registered
//     kind, BFS batched into 64-way sweeps;
//   * dynamic  (dyn::GraphStore&)    — incremental BFS/CC over refcounted
//     snapshots plus the update lane (submit_update);
//   * sharded  (shard::ShardedStore&) — BFS across the store's shard
//     replicas: per query, one healthy replica per shard (one circuit
//     breaker per shard-replica slot), locked in slot order, then one
//     distributed sweep.  A lost non-source shard degrades the result to
//     partial instead of failing it.
//
// One server admits core::AlgoQuery of every kind listed in
// ServeConfig::algos.  BFS keeps its historical fast path — dedup by
// source, neighborhood grouping, the 64-way bit-parallel sweep.  Every
// other kind dispatches as its own unit, deduplicated by
// (algo, params-hash, source): concurrent identical SSSP queries share one
// delta-stepping run exactly like repeated BFS sources share a sweep, and
// whole-graph kinds (CC, k-core, SCC) dedup per graph.  Each kind resolves
// through its own degradation ladder built from the EngineRegistry
// (device rungs in rung order, then the registered host oracle as the
// fault-immune terminal rung), so the resilience machinery — retries,
// breakers, validation, SLO-aware degrades — is shared by all kinds and
// all backings.
//
// The scheduler drains the queue weighted round-robin across QoS classes
// (one class per algorithm kind; ServeConfig::qos_weights), expires
// queries past their deadline (reported through their futures, never
// dropped), and dispatches units across the lane pool.  Every query's
// end-to-end latency feeds both the aggregate and a per-kind p50/p95/p99
// histogram; shutdown() emits one summary record with per-kind
// completed/p99/QPS columns into XBFS_RUN_REPORT.
//
// Served payloads are bit-identical to a fresh engine run: every
// registered engine of a kind is conformant with its host oracle (the
// cross-engine conformance suite enforces it), and cache hits alias the
// very vectors a cold run produced.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/algorithm_engine.h"
#include "core/engine_registry.h"
#include "core/xbfs.h"
#include "dyn/graph_store.h"
#include "graph/device_csr.h"
#include "hipsim/lock_rank.h"
#include "hipsim/thread_pool.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/admission_queue.h"
#include "serve/health.h"
#include "serve/query.h"
#include "serve/result_cache.h"

namespace xbfs::dyn {
class HostDeltaBfs;
class IncrementalBfs;
class IncrementalCc;
}  // namespace xbfs::dyn

namespace xbfs::shard {
class ShardedStore;
class ShardSweep;
}  // namespace xbfs::shard

namespace xbfs::serve {

struct ServeConfig {
  /// Admission-queue capacity; submissions beyond it are rejected with
  /// StatusCode::QueueFull (backpressure).
  std::size_t queue_capacity = 4096;
  /// Simulated GCDs served concurrently (one worker thread drives each).
  /// Must stay 1 on a sharded server: the ShardedStore owns the devices.
  unsigned num_gcds = 1;
  /// Simulator worker threads inside each GCD (1 = deterministic profile
  /// mode; serving parallelism comes from num_gcds).
  unsigned device_workers = 1;
  /// Sources per bit-parallel sweep; clamped to [1, 64].
  unsigned max_batch = 64;
  /// Cost-aware dispatch: batches narrower than this run as per-source
  /// adaptive core::Xbfs traversals (spread across the GCD lanes) instead
  /// of one bit-parallel sweep.  The sweep pays a large fixed cost — it
  /// scans the full vertex set every level with none of XBFS's adaptive
  /// strategies — so it only beats per-source runs once enough searches
  /// share it (measured crossover ~16 on scale-18 RMAT).  1 = always
  /// sweep.
  unsigned min_sweep_sources = 16;
  /// Result-cache entries; 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Deadline applied to queries that don't set their own (ms from
  /// enqueue); non-positive = none.  (A default of exactly 0 historically
  /// expired every inheriting query at dispatch; resolve_deadline_us is
  /// the fixed shared implementation.)
  double default_timeout_ms = -1.0;
  /// How long the scheduler waits for the backlog to fill a full cycle
  /// before dispatching what is there (0 = dispatch immediately).
  double batch_window_ms = 1.0;
  /// Tests: no scheduler thread; call dispatch_once() explicitly.
  bool manual_dispatch = false;
  /// Per-worker traversal configuration.  report_runs is forced off — the
  /// server emits one summary record instead of one record per query.  A
  /// sharded server's sweep takes its alpha from here.
  core::XbfsConfig xbfs;
  sim::DeviceProfile profile = sim::DeviceProfile::mi250x_gcd();

  // --- algorithm family ----------------------------------------------------
  /// Kinds this server builds engine ladders for; queries of any other
  /// kind are rejected Invalid at submit.  Static servers may list any
  /// registered kind; dynamic servers support Bfs (incremental repair) and
  /// Cc (incremental union-find) — the constructor throws on others.
  std::vector<core::AlgoKind> algos = {core::AlgoKind::Bfs};
  /// QoS drain weights, indexed by AlgoKind: class k is offered up to
  /// qos_weights[k] queue slots per turn of the scheduler's round-robin
  /// wheel.  0 entries mean weight 1 (fair share).
  std::array<unsigned, core::kNumAlgoKinds> qos_weights{};

  // --- resilience ----------------------------------------------------------
  /// Device attempts per dispatch unit (sweep or per-source run) before
  /// degrading down the engine ladder / to the host.  1 = no retry.
  unsigned max_attempts = 3;
  /// Exponential backoff between retries: base * 2^(attempt-1), capped at
  /// 5 ms.
  double retry_backoff_ms = 0.2;
  /// Straggler budget per dispatch (wall ms): a device that exceeds it is
  /// reported to the health tracker so later work routes around it;
  /// negative = none.
  double dispatch_timeout_ms = -1.0;
  /// Consecutive failures that open a GCD's (sharded: a shard-replica
  /// slot's) circuit breaker, and how long the breaker rejects work before
  /// probing (serve/health.h).
  unsigned breaker_failure_threshold = 3;
  double breaker_cooldown_ms = 25.0;
  /// Terminal ladder rung: serve from the registered host engine when
  /// every device attempt failed (sharded: also when the source's shard has
  /// no healthy replica).  false = such queries resolve as Failed.
  bool host_fallback = true;

  // --- durability (dynamic servers; docs/durability.md) --------------------
  /// Require the GraphStore to carry a durability hook (store::open_durable
  /// / store::recover_store): the constructor throws std::invalid_argument
  /// for a dynamic server whose store has no WAL behind it, so a deployment
  /// that promises durability cannot silently serve from a volatile store.
  /// Must stay false on static and sharded servers.
  bool require_durability = false;

  // --- observability --------------------------------------------------------
  /// Allocate a QueryTrace per admitted query: the causal event record
  /// plus per-rung kernel-counter attribution returned on QueryResult.
  bool query_tracing = true;
  /// SLO scope this server records outcomes into (obs::SloEngine; active
  /// only when XBFS_SLO / configure() enabled the engine).  Distinct
  /// servers may share a scope name to aggregate, or use their own.  Each
  /// served kind additionally records into "<slo_scope>:<kind>" so
  /// per-algorithm objectives can be set independently.
  std::string slo_scope = "serve";

  /// Reject nonsense configurations (counts >= 1, batch widths within the
  /// 64-bit sweep mask, non-negative windows/backoffs, non-empty
  /// duplicate-free algos, xbfs.validate()).  Checked by the Server
  /// constructor, which throws std::invalid_argument.
  xbfs::Status validate() const;
};

/// Per-algorithm-kind serving counters + latency snapshot; zero for kinds
/// the server does not serve.
struct AlgoClassStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t queued = 0;       ///< currently in the admission queue
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double qps = 0.0;               ///< completed / server wall elapsed
};

/// Monotonic counters + latency snapshot; see docs/serving.md for the
/// glossary.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;   ///< entered the queue or hit the cache
  std::uint64_t completed = 0;  ///< futures resolved with a payload
  std::uint64_t expired = 0;    ///< futures resolved past-deadline
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_shutdown = 0;

  std::uint64_t cache_hits = 0;    ///< queries served from cache
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;
  double cache_hit_rate = 0.0;     ///< cache_hits / completed

  std::uint64_t dispatch_cycles = 0;
  std::uint64_t sweeps = 0;            ///< BFS multi-source + singleton dispatches
  std::uint64_t singleton_sweeps = 0;  ///< served by the core::Xbfs fallback
  std::uint64_t algo_dispatches = 0;   ///< non-BFS dispatch units resolved
  std::uint64_t computed_sources = 0;  ///< distinct units actually run
  double mean_sources_per_sweep = 0.0;
  double mean_batch_occupancy = 0.0;   ///< mean(batch size / max_batch)

  /// Per-kind submitted/completed/cache-hit counts and latency
  /// percentiles, indexed by AlgoKind.
  std::array<AlgoClassStats, core::kNumAlgoKinds> per_algo{};

  // --- resilience ----------------------------------------------------------
  std::uint64_t failed = 0;               ///< futures resolved Failed
  std::uint64_t faults_seen = 0;          ///< injected faults caught
  std::uint64_t retries = 0;              ///< re-dispatches after a failure
  std::uint64_t validation_failures = 0;  ///< results rejected by validation
  std::uint64_t validated_results = 0;    ///< results that passed validation
  std::uint64_t degraded_queries = 0;     ///< served below the preferred rung
  std::uint64_t host_fallbacks = 0;       ///< units served by the host rung
  std::uint64_t dispatch_timeouts = 0;    ///< straggler budget exceeded
  std::uint64_t rerouted = 0;             ///< attempts on a non-home GCD
                                          ///< (sharded: shards planned off
                                          ///< their preferred replica)
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;

  // --- dynamic graph (all zero on a static server; docs/dynamic.md) --------
  std::uint64_t updates_submitted = 0;
  std::uint64_t updates_applied = 0;       ///< batches through the store
  std::uint64_t updates_expired = 0;       ///< update deadline passed pre-apply
  std::uint64_t update_edges_applied = 0;  ///< undirected insert+delete ops
  std::uint64_t update_noops = 0;          ///< ops the graph already satisfied
  std::uint64_t graph_epoch = 0;           ///< store epoch at stats() time
  std::uint64_t compactions = 0;           ///< delta-CSR overlay folds
  std::uint64_t cache_epoch_bumps = 0;     ///< per-epoch cache purges run
  std::uint64_t cache_purged_stale = 0;    ///< entries swept by those purges
  std::uint64_t cache_stale_hits_avoided = 0;
  std::uint64_t repairs = 0;               ///< runs served by incremental repair
  std::uint64_t recomputes = 0;            ///< full recomputes (incl. fallbacks)
  std::uint64_t repair_fallbacks = 0;      ///< ratio-bound + log-gap fallbacks

  // --- durability (zero unless the store carries a WAL; docs/durability.md)
  bool durable = false;                    ///< store has a durability hook
  std::uint64_t wal_appends = 0;           ///< records made durable
  std::uint64_t wal_append_failures = 0;   ///< torn/short writes (update rejected)
  std::uint64_t wal_fsync_failures = 0;    ///< syncs that failed (update rejected)
  std::uint64_t wal_bytes = 0;             ///< current WAL segment size
  std::uint64_t snapshots_spilled = 0;     ///< compacted bases written to disk
  std::uint64_t wal_rotations = 0;         ///< segment switches after a spill
  std::uint64_t last_durable_epoch = 0;    ///< newest fsync'd epoch
  std::uint64_t updates_rejected_durability = 0;  ///< batches refused pre-publish
  bool recovered = false;                  ///< this store came from recovery
  bool recovery_torn_tail = false;         ///< CRC cut a partial tail record
  std::uint64_t recovered_epoch = 0;       ///< epoch proven at startup
  std::uint64_t recovery_replayed = 0;     ///< WAL records replayed at startup
  std::uint64_t recovery_truncated_bytes = 0;  ///< torn-tail bytes discarded
  std::uint64_t recovery_stale_rejected = 0;   ///< result_still_valid refusals

  // --- sharded backing (all zero unless built over a ShardedStore) ---------
  unsigned shards = 0;
  unsigned replicas = 0;                   ///< replica group size per shard
  std::uint64_t partial_queries = 0;       ///< served with >= 1 lost shard
  std::uint64_t lost_shard_events = 0;     ///< lost shards summed over sweeps
  std::uint64_t unavailable_failures = 0;  ///< source shard had no replica
  std::uint64_t levels_swept = 0;          ///< BFS levels across all sweeps
  std::uint64_t two_phase_levels = 0;      ///< levels where 2D promotion won
  std::uint64_t exchange_raw_bytes = 0;
  std::uint64_t exchange_wire_bytes = 0;
  double compression_ratio = 0.0;  ///< raw/wire (>= 1; 0 = no exchange)

  // --- observability --------------------------------------------------------
  std::uint64_t traced_queries = 0;         ///< terminals carrying a trace
  std::uint64_t slo_proactive_degrades = 0; ///< queries started below rung 0
  obs::SloSnapshot slo;                     ///< this server's scope; inactive
                                            ///< when the SLO engine is off

  double wall_elapsed_ms = 0.0;
  double qps = 0.0;                 ///< completed / wall_elapsed
  double modelled_busy_ms = 0.0;    ///< summed modelled device time
  /// Modelled device (+ fabric, sharded) time per dispatch unit that ran
  /// on a device — the simulator's scaling instrument.
  double modelled_p50_ms = 0.0;
  double modelled_p99_ms = 0.0;

  double latency_p50_ms = 0.0;      ///< enqueue -> complete
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_max_ms = 0.0;
  double queue_p50_ms = 0.0;        ///< enqueue -> dispatch
  double queue_p99_ms = 0.0;
};

/// Options for the update-admission lane (Server::submit_update).
struct UpdateOptions {
  /// Deadline budget from submission, in wall milliseconds: if the batch
  /// is still waiting on the (serialized) write lane past it, the update
  /// is rejected DeadlineExceeded without being applied.  Non-positive =
  /// no deadline (the lane default; the query-side default_timeout_ms is
  /// deliberately not inherited — dropping a write because reads are slow
  /// is never what a caller means).
  double timeout_ms = 0.0;
};

/// Outcome of submit_update(): whether the batch was applied, the epoch and
/// fingerprint the graph moved to, per-op apply accounting, and how many
/// cache entries the epoch bump purged.
struct UpdateAdmission {
  bool accepted = false;
  xbfs::Status status;
  std::uint64_t epoch = 0;
  std::uint64_t fingerprint = 0;
  dyn::ApplyStats applied;
  std::size_t cache_purged = 0;
  /// Write-lane trace (submit -> apply -> epoch bump -> cache purge); null
  /// when ServeConfig::query_tracing is off or the batch was rejected.
  obs::QueryTracePtr trace;
};

class Server {
 public:
  /// Static serving: `g` must outlive the server (it backs group_sources
  /// ordering, the per-GCD device uploads, and the host oracles).
  /// submit_update() rejects.
  explicit Server(const graph::Csr& g, ServeConfig cfg = {});
  /// Dynamic serving over a mutable graph store: BFS queries run on
  /// dyn::IncrementalBfs engines (and CC on dyn::IncrementalCc) against
  /// refcounted snapshots, updates enter through submit_update().  The
  /// store must outlive the server.  Batched sweeps and neighborhood
  /// grouping need the static CSR, so dynamic dispatch is always per-unit.
  explicit Server(dyn::GraphStore& store, ServeConfig cfg = {});
  /// Sharded serving: BFS over the store's shard replicas, one distributed
  /// sweep per distinct source (the 64-way sweep needs the whole CSR on one
  /// device).  The store owns every device and must outlive the server;
  /// its graph backs validation and the host rung.  Dispatch lanes =
  /// store.replicas().  Results are cached under the CSR fingerprint mixed
  /// with the layout hash, so a re-shard self-invalidates the cache.
  explicit Server(shard::ShardedStore& store, ServeConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one typed query.  Cache hits resolve immediately; otherwise the
  /// query enters the admission queue, or is rejected with a reason when
  /// the queue is full / the server is shutting down / the source is
  /// invalid / the kind is not in ServeConfig::algos.  Sources and params
  /// irrelevant to the kind are normalized (whole-graph kinds to source 0,
  /// parameterless kinds to default params) so equivalent queries dedup
  /// and share cache entries.
  Admission submit(core::AlgoQuery q, QueryOptions opt = {});
  /// BFS shorthand — the pre-redesign signature.
  Admission submit(graph::vid_t source, QueryOptions opt = {});

  /// The update-admission lane (dynamic servers only): apply one edge batch
  /// to the graph store, advance the serving fingerprint, and purge cache
  /// entries keyed under retired epochs.  Writes are serialized per graph;
  /// readers are never blocked — in-flight queries finish on the snapshot
  /// they started with.  Rejected with InvalidArgument on a static server,
  /// ShuttingDown after shutdown() began, and DeadlineExceeded when
  /// opt.timeout_ms elapsed before the lane could apply the batch.
  UpdateAdmission submit_update(const dyn::EdgeBatch& batch,
                                UpdateOptions opt = {});

  bool dynamic() const { return store_ != nullptr; }
  /// Whether queries of kind `k` are admitted (k is in ServeConfig::algos).
  bool serves(core::AlgoKind k) const {
    return enabled_[static_cast<std::size_t>(k)];
  }

  /// One scheduler cycle over whatever is pending right now (manual mode,
  /// but safe in threaded mode too for tests that want to force progress).
  /// Returns the number of queries retired this cycle.
  std::size_t dispatch_once();

  /// Block until every accepted query has been retired.
  void drain();

  /// Stop accepting, finish pending work, stop the scheduler, and emit the
  /// summary run-report record + final metrics.  Idempotent; the
  /// destructor calls it.
  void shutdown();

  ServerStats stats() const;
  const ServeConfig& config() const { return cfg_; }
  /// The fingerprint queries are currently cached under; moves with every
  /// applied update batch on a dynamic server.
  std::uint64_t graph_fingerprint() const {
    return graph_fp_.load(std::memory_order_acquire);
  }
  /// Content-addressed result validity: true iff `fingerprint` is the state
  /// this server currently serves.  After crash recovery this is the proof
  /// obligation for results handed out before the crash — epochs lost to a
  /// torn WAL tail can never reproduce the recovered fingerprint, so a
  /// stale cached result is refused here rather than served.  Refusals are
  /// counted in ServerStats::recovery_stale_rejected.
  bool result_still_valid(std::uint64_t fingerprint) const;
  const ResultCache& cache() const { return cache_; }
  /// Circuit-breaker state of one health slot: a GCD, or on a sharded
  /// server the ShardedStore::slot(shard, replica) id.
  BreakerState breaker_state(unsigned slot) const {
    return health_.state(slot);
  }

 private:
  struct Gcd {
    std::unique_ptr<sim::Device> dev;
    graph::DeviceCsr dg;  ///< static servers only (dynamic mirrors DeltaCsr)
    /// Per-kind degradation ladders, fastest rung first, built from the
    /// EngineRegistry (static servers) or the incremental engines
    /// (dynamic: Bfs -> IncrementalBfs, Cc -> IncrementalCc).  Empty for
    /// kinds outside ServeConfig::algos.
    std::array<std::vector<std::unique_ptr<core::AlgorithmEngine>>,
               core::kNumAlgoKinds>
        ladders;
    /// Non-owning views of the dynamic incremental engines (for stats()
    /// and served-snapshot reads); null on static servers.
    dyn::IncrementalBfs* inc = nullptr;
    dyn::IncrementalCc* inc_cc = nullptr;
    /// With rerouting, lanes other than this GCD's home lane may dispatch
    /// here; the device's modelled clocks are not thread-safe.  Ranked
    /// (serve.gcd=40): taken inside the cycle lock, outside the device's
    /// pool lock (docs/modelcheck.md lock ranks).
    sim::RankedMutex mu{40, "serve.gcd"};
  };

  /// Dedup/delivery key of one dispatch unit: all queued queries agreeing
  /// on it share one engine run (for BFS, all with one source share a
  /// sweep lane; whole-graph kinds collapse to source 0).
  struct DispatchKey {
    core::AlgoKind algo = core::AlgoKind::Bfs;
    std::uint64_t phash = 0;
    graph::vid_t source = 0;
    bool operator==(const DispatchKey& o) const {
      return algo == o.algo && phash == o.phash && source == o.source;
    }
  };
  struct DispatchKeyHash {
    std::size_t operator()(const DispatchKey& k) const {
      std::uint64_t h = k.phash ^ (static_cast<std::uint64_t>(k.source) *
                                   0x9E3779B97F4A7C15ull);
      h ^= static_cast<std::uint64_t>(k.algo) + (h << 6) + (h >> 2);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      return static_cast<std::size_t>(h);
    }
  };
  using QueryMap =
      std::unordered_map<DispatchKey, std::vector<PendingQuery>,
                         DispatchKeyHash>;

  /// Outcome of resolving one dispatch unit through the resilience ladder.
  struct Resolution {
    CachedResult res;           ///< falsy payload = failed
    xbfs::Status status;        ///< terminal failure when res is falsy
    std::string engine;         ///< engine (or "sweep") that produced res
    unsigned attempts = 0;
    unsigned gcd = 0;
    bool degraded = false;
    bool validated = false;
    /// Sharded only: the sweep ran without some shards (status then
    /// carries the Unavailable detail while res is set).
    bool partial = false;
    unsigned shards_lost = 0;
    double modelled_ms = 0.0;   ///< modelled device time consumed (0 = host)
    /// Per-resolution scratch trace: attempt events + rung attribution,
    /// absorbed into every waiter's QueryTrace at delivery.  Null when
    /// query_tracing is off.
    obs::QueryTracePtr log;
    /// Fingerprint of the exact graph that produced res (cache key).  On a
    /// dynamic server this is the engine's served snapshot, which may trail
    /// graph_fp_ if an update landed mid-flight — caching under it keeps
    /// the entry unreachable rather than wrong.
    std::uint64_t fp = 0;
  };

  /// Common constructor body behind the three public constructors: g alone
  /// (static), store alone (dynamic), or sharded with g = its graph.
  Server(const graph::Csr* g, dyn::GraphStore* store,
         shard::ShardedStore* sharded, ServeConfig cfg);

  double wall_us() const;
  /// Whether computed payloads are re-checked by their kind's host
  /// validator before delivery/caching: exactly while fault injection is
  /// active.
  bool validation_active() const;
  void scheduler_loop();
  std::size_t process_cycle(std::vector<PendingQuery>& pending);
  /// BFS dispatch unit: the (possibly 64-way-swept) batch of sources.
  void run_batch(unsigned worker, const std::vector<graph::vid_t>& batch,
                 QueryMap& by_key, double dispatch_us);
  /// Non-BFS dispatch unit: one deduplicated (algo, params, source) run.
  void run_algo(unsigned worker, const DispatchKey& key, QueryMap& by_key,
                double dispatch_us);
  /// One device attempt bookkeeping: fault/validation counters, health
  /// report, trace instant, flight-recorder event (`primary` tags it with
  /// the query/trace id when known).  Returns the recorded Status.
  xbfs::Status note_attempt_failure(unsigned gcd, const xbfs::Status& why,
                                    QueryId primary = 0);
  /// Straggler check: report + penalize when the dispatch ran past budget.
  /// Returns true when a failure was recorded — the caller must then skip
  /// its record_success, which would reset the breaker's failure streak
  /// and erase the penalty.
  bool note_dispatch_time(unsigned gcd, double dispatch_us);

  /// A device one attempt runs on and the health slot it answers to.
  struct Touched {
    unsigned slot = 0;
    sim::Device* dev = nullptr;
  };
  /// What one device attempt is: an engine ladder rung, a 64-way sweep or
  /// a sharded sweep differ only in these fields and attempt()'s steps.
  struct Attempt {
    std::span<const Touched> on;  ///< every device touched, in lock order
    unsigned home = 0;    ///< slot charged when a failure names no device
    const char* engine = "";
    unsigned rung = 0;    ///< ladder index (0 for sweeps)
    unsigned shared = 1;  ///< queries sharing the work (sweep members)
    QueryId primary = 0;  ///< flight-recorder tag; 0 = batch-shared work
    obs::QueryTrace* log = nullptr;
    double dispatch_us = 0.0;  ///< start of the straggler budget
    std::string attempt = {};   ///< "attempt" detail before " attempt=N"
    std::string resolved = {};  ///< "resolved" detail; `run` may extend it
    unsigned charged = HealthTracker::kNone;  ///< out: slot a failure charged
  };
  /// The one device-attempt path: counts the attempt, runs `run()` under
  /// `lock()` with one AttributionSink on every device of `a.on`, and on
  /// every exit detaches it and drains the devices' pending transfer
  /// corruption.  A corrupt device's copy count goes to `realize` (false =
  /// the payload cannot carry it), then `validate` runs (nullopt = nothing
  /// checked, "" = valid).  A failure is charged to the slot a
  /// ShardSweepFault names, else the corrupt slot, else `a.home`; it
  /// releases every other slot's grant, records the rung, sets `last` and
  /// backs off.  Success runs the straggler check on `a.home` and records
  /// success on the other slots.
  template <class Lock, class Run, class Realize, class Validate>
  bool attempt(Attempt& a, unsigned& attempts, xbfs::Status& last,
               Lock&& lock, Run&& run, Realize&& realize,
               Validate&& validate);
  /// Resolve one query through its kind's per-GCD engine ladder, then the
  /// host fallback.  `attempts_so_far` carries sweep attempts already
  /// burned (reporting only; the ladder gets its own max_attempts budget).
  Resolution resolve_query(unsigned preferred, const core::AlgoQuery& q,
                           unsigned attempts_so_far, double dispatch_us,
                           QueryId primary);
  /// The sharded backing's device attempts (the ladder's stand-in): plan a
  /// replica per shard, then one attempt() that locks them and sweeps.
  /// Returns true with `out` resolved; false leaves `last` as the failure
  /// and the caller falls through to the host rung.
  bool resolve_sharded(const core::AlgoQuery& q, double dispatch_us,
                       QueryId primary, bool validate, Resolution& out,
                       xbfs::Status& last);
  /// One replica index per shard (ShardSweep::kLost = none healthy);
  /// `excluded` marks slots this query already saw fail.  Every planned
  /// slot holds an allow() grant the caller must resolve.  Returns the
  /// number of lost shards.
  unsigned build_plan(QueryId id, unsigned attempt,
                      const std::vector<char>& excluded,
                      std::vector<int>& plan, obs::QueryTrace* log);
  /// Per-kind host validation of a computed payload: empty string = valid
  /// (or no validator exists for the kind — see payload_validatable).
  std::string validate_payload(const core::AlgoQuery& q,
                               const CachedResult& res,
                               const dyn::Snapshot& snap) const;
  bool payload_validatable(core::AlgoKind k) const;
  void deliver_unit(const DispatchKey& key, const Resolution& r,
                    QueryMap& by_key, double dispatch_us,
                    unsigned batch_size, const obs::QueryTrace* batch_log);
  void backoff(unsigned attempt);
  void complete_expired(PendingQuery&& p, double now_us);
  void complete_from_cache(PendingQuery&& p, CachedResult hit, double now_us);
  void finish_query(PendingQuery&& p, QueryResult&& r);
  void retire_one();
  void record_latency(const QueryResult& r);
  /// Terminal bookkeeping common to every resolution path: SLO outcome
  /// (aggregate + per-kind scope), trace terminal event + Chrome-trace
  /// emission, flight-recorder event (and dump trigger on Failed /
  /// Expired terminals).
  void note_terminal(QueryResult& r);
  /// Live-state JSON fragment sampled by the flight recorder at dump time
  /// (queue depth, breaker states, in-flight trace ids).
  std::string flight_context_json() const;
  void emit_summary();

  /// Static and sharded servers set host_g_ (sharded: the store's graph);
  /// dynamic servers set store_ instead.
  const graph::Csr* host_g_ = nullptr;
  dyn::GraphStore* store_ = nullptr;
  shard::ShardedStore* sharded_ = nullptr;
  /// Shared by every lane: stateless between runs, every mutable buffer a
  /// run touches lives in the replicas its plan locked.  Sharded only.
  std::unique_ptr<shard::ShardSweep> sweep_;
  graph::vid_t n_vertices_ = 0;
  ServeConfig cfg_;
  /// enabled_[k] <=> AlgoKind k is in cfg_.algos.
  std::array<bool, core::kNumAlgoKinds> enabled_{};
  /// The BFS dedup/cache phash (default AlgoParams, computed once).
  std::uint64_t bfs_phash_ = 0;
  std::atomic<std::uint64_t> graph_fp_{0};

  AdmissionQueue queue_;
  ResultCache cache_;
  std::vector<std::unique_ptr<Gcd>> gcds_;  ///< empty on a sharded server
  /// Dispatch lanes: num_gcds, or store.replicas() when sharded.
  unsigned lanes_ = 1;
  std::unique_ptr<sim::ThreadPool> pool_;  ///< one worker per lane
  /// One breaker per GCD, or per shard-replica slot when sharded; its slot
  /// count is also the SLO lane count.
  HealthTracker health_;
  /// Terminal rungs, one per kind: host engines from the registry (static)
  /// or dyn::HostDeltaBfs (dynamic BFS), immune to simulated-device
  /// faults.  Null for kinds without a registered host engine.
  std::array<std::unique_ptr<core::AlgorithmEngine>, core::kNumAlgoKinds>
      host_engines_;
  /// Non-owning view of host_engines_[Bfs] on a dynamic server (run_on
  /// pins the validated snapshot); null on static servers.
  dyn::HostDeltaBfs* host_dyn_ = nullptr;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<QueryId> next_id_{0};

  // Monotonic counters (relaxed; exact totals are read under drain_mu_).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> retired_{0};  ///< completed + expired
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_invalid_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> dispatch_cycles_{0};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> singleton_sweeps_{0};
  std::atomic<std::uint64_t> algo_dispatches_{0};
  std::atomic<std::uint64_t> computed_sources_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> faults_seen_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> validation_failures_{0};
  std::atomic<std::uint64_t> validated_results_{0};
  std::atomic<std::uint64_t> degraded_queries_{0};
  std::atomic<std::uint64_t> host_fallbacks_{0};
  std::atomic<std::uint64_t> dispatch_timeouts_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> updates_submitted_{0};
  std::atomic<std::uint64_t> updates_applied_{0};
  std::atomic<std::uint64_t> updates_expired_{0};
  std::atomic<std::uint64_t> update_edges_applied_{0};
  std::atomic<std::uint64_t> update_noops_{0};
  std::atomic<std::uint64_t> updates_rejected_durability_{0};
  /// result_still_valid() refusals; mutable because validity checks are
  /// logically const reads of the serving fingerprint.
  mutable std::atomic<std::uint64_t> recovery_stale_rejected_{0};
  std::atomic<std::uint64_t> partial_queries_{0};
  std::atomic<std::uint64_t> lost_shard_events_{0};
  std::atomic<std::uint64_t> unavailable_failures_{0};
  std::atomic<std::uint64_t> levels_swept_{0};
  std::atomic<std::uint64_t> two_phase_levels_{0};
  std::atomic<std::uint64_t> exchange_raw_bytes_{0};
  std::atomic<std::uint64_t> exchange_wire_bytes_{0};
  std::atomic<std::uint64_t> traced_{0};
  std::atomic<std::uint64_t> slo_proactive_degrades_{0};
  // Per-kind counters, indexed by AlgoKind.
  std::array<std::atomic<std::uint64_t>, core::kNumAlgoKinds>
      submitted_by_algo_{};
  std::array<std::atomic<std::uint64_t>, core::kNumAlgoKinds>
      completed_by_algo_{};
  std::array<std::atomic<std::uint64_t>, core::kNumAlgoKinds>
      cache_hits_by_algo_{};

  /// This server's SLO scope (stable SloEngine reference); null when the
  /// engine is disabled at construction.
  obs::SloScope* slo_ = nullptr;
  /// Per-kind SLO scopes ("<slo_scope>:<kind>"), registered for served
  /// kinds only; null elsewhere.
  std::array<obs::SloScope*, core::kNumAlgoKinds> slo_by_algo_{};
  /// Flight-recorder context-provider token (0 = none registered).
  std::uint64_t flight_ctx_ = 0;
  /// Queries admitted to the queue and not yet terminal, for the flight
  /// recorder's dump context.
  mutable sim::RankedMutex inflight_mu_{64, "serve.inflight"};
  std::unordered_set<QueryId> inflight_;

  /// Writes serialized per graph (update lane); taken before the store's
  /// writer/publish locks (ranks 30/32).
  sim::RankedMutex update_mu_{12, "serve.update"};

  /// One dispatch cycle at a time (pool_ is shared).  The outermost lock
  /// of the serving stack: everything else nests inside a cycle.
  sim::RankedMutex cycle_mu_{10, "serve.cycle"};

  /// Guards the non-atomic aggregates below.
  mutable sim::RankedMutex agg_mu_{60, "serve.agg"};
  double occupancy_sum_ = 0.0;
  double sources_per_sweep_sum_ = 0.0;
  double modelled_busy_ms_ = 0.0;

  obs::Histogram latency_ms_;  ///< enqueue -> complete
  obs::Histogram queue_ms_;    ///< enqueue -> dispatch
  obs::Histogram modelled_ms_;  ///< per device-run dispatch unit
  /// Per-kind enqueue -> complete latency (indexed by AlgoKind).
  std::array<obs::Histogram, core::kNumAlgoKinds> latency_by_algo_;

  mutable sim::RankedMutex drain_mu_{68, "serve.drain"};
  std::condition_variable_any drain_cv_;

  std::thread scheduler_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace xbfs::serve
