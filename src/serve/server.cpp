#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "algos/engines.h"
#include "algos/multi_bfs.h"
#include "baseline/cpu_bfs.h"
#include "dyn/delta_ref.h"
#include "dyn/incremental_bfs.h"
#include "dyn/incremental_cc.h"
#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "hipsim/device.h"
#include "hipsim/fault.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "shard/shard_bfs.h"
#include "shard/sharded_store.h"

namespace xbfs::serve {

namespace {

/// Cap on the exponential retry backoff.
constexpr double kRetryBackoffMaxMs = 5.0;

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Comma-trick helper: runs in the constructor's member-init list so an
/// invalid config throws before any device is built.
const ServeConfig& checked(const ServeConfig& cfg) {
  if (const xbfs::Status s = cfg.validate(); !s.ok()) {
    throw std::invalid_argument("ServeConfig: " + s.to_string());
  }
  return cfg;
}

/// Canonicalize a query so equivalent requests dedup and share cache
/// entries: whole-graph kinds pin source 0, and params irrelevant to the
/// kind are zeroed so they cannot split the params-hash.
core::AlgoQuery normalize_query(core::AlgoQuery q) {
  if (!core::algo_needs_source(q.algo)) q.source = 0;
  switch (q.algo) {
    case core::AlgoKind::Bfs:
    case core::AlgoKind::Bc:
    case core::AlgoKind::Cc:
    case core::AlgoKind::Scc:
      // Parameterless kinds: every AlgoParams field is ignored.
      q.params = core::AlgoParams{};
      break;
    case core::AlgoKind::KCore: {
      core::AlgoParams p;
      p.k = q.params.k;  // only k matters
      q.params = p;
      break;
    }
    case core::AlgoKind::Sssp:
      q.params.k = 0;  // k-core's field; weights/delta are SSSP's own
      break;
  }
  return q;
}

/// Fold one attempt's AttributionSink into a per-query rung record.
obs::RungAttribution make_rung(const sim::AttributionSink& sink,
                               std::string engine, const char* outcome,
                               unsigned gcd, unsigned attempt, unsigned rung,
                               unsigned shared, double start_us,
                               double end_us) {
  obs::RungAttribution a;
  a.engine = std::move(engine);
  a.outcome = outcome;
  a.gcd = gcd;
  a.attempt = attempt;
  a.rung = rung;
  a.shared_members = shared;
  a.launches = sink.launches;
  a.memcpys = sink.memcpys;
  a.fetch_bytes = sink.counters.fetch_bytes;
  a.bytes_read = sink.counters.bytes_read;
  a.atomics = sink.counters.atomics;
  const std::uint64_t accesses = sink.counters.l2_hits + sink.counters.l2_misses;
  a.l2_hit_pct =
      accesses == 0
          ? 0.0
          : 100.0 * static_cast<double>(sink.counters.l2_hits) /
                static_cast<double>(accesses);
  a.modelled_us = sink.modelled_us;
  a.wall_start_us = start_us;
  a.wall_dur_us = end_us - start_us;
  return a;
}

}  // namespace

const char* query_status_name(QueryStatus s) {
  switch (s) {
    case QueryStatus::Completed: return "completed";
    case QueryStatus::Expired: return "expired";
    case QueryStatus::Failed: return "failed";
  }
  return "?";
}

xbfs::Status ServeConfig::validate() const {
  if (queue_capacity < 1) {
    return xbfs::Status::Invalid("queue_capacity must be >= 1");
  }
  if (num_gcds < 1) return xbfs::Status::Invalid("num_gcds must be >= 1");
  if (device_workers < 1) {
    return xbfs::Status::Invalid("device_workers must be >= 1");
  }
  if (max_batch < 1 || max_batch > algos::kMaxConcurrentSources) {
    return xbfs::Status::Invalid(
        "max_batch must be in [1, " +
        std::to_string(algos::kMaxConcurrentSources) + "], got " +
        std::to_string(max_batch));
  }
  if (min_sweep_sources < 1 ||
      min_sweep_sources > algos::kMaxConcurrentSources) {
    return xbfs::Status::Invalid(
        "min_sweep_sources must be in [1, " +
        std::to_string(algos::kMaxConcurrentSources) + "], got " +
        std::to_string(min_sweep_sources));
  }
  if (batch_window_ms < 0.0) {
    return xbfs::Status::Invalid("batch_window_ms must be >= 0");
  }
  if (max_attempts < 1) {
    return xbfs::Status::Invalid("max_attempts must be >= 1");
  }
  if (retry_backoff_ms < 0.0) {
    return xbfs::Status::Invalid("retry_backoff_ms must be >= 0");
  }
  if (breaker_failure_threshold < 1) {
    return xbfs::Status::Invalid("breaker_failure_threshold must be >= 1");
  }
  if (breaker_cooldown_ms < 0.0) {
    return xbfs::Status::Invalid("breaker_cooldown_ms must be >= 0");
  }
  if (algos.empty()) {
    return xbfs::Status::Invalid("algos must list at least one kind");
  }
  {
    bool seen[core::kNumAlgoKinds] = {};
    for (const core::AlgoKind k : algos) {
      const auto i = static_cast<std::size_t>(k);
      if (i >= core::kNumAlgoKinds) {
        return xbfs::Status::Invalid("algos contains an unknown kind");
      }
      if (seen[i]) {
        return xbfs::Status::Invalid(
            std::string("algos lists ") + core::algo_kind_name(k) + " twice");
      }
      seen[i] = true;
    }
  }
  return xbfs.validate();
}

Server::Server(const graph::Csr& g, ServeConfig cfg)
    : Server(&g, nullptr, nullptr, std::move(cfg)) {}

Server::Server(dyn::GraphStore& store, ServeConfig cfg)
    : Server(nullptr, &store, nullptr, std::move(cfg)) {}

Server::Server(shard::ShardedStore& store, ServeConfig cfg)
    : Server(&store.graph(), nullptr, &store, std::move(cfg)) {}

Server::Server(const graph::Csr* g, dyn::GraphStore* store,
               shard::ShardedStore* sharded, ServeConfig cfg)
    : host_g_(g),
      store_(store),
      sharded_(sharded),
      cfg_((checked(cfg), std::move(cfg))),
      queue_(cfg_.queue_capacity, cfg_.qos_weights),
      cache_(cfg_.cache_capacity),
      lanes_(sharded ? sharded->replicas() : cfg_.num_gcds),
      health_(sharded ? sharded->num_slots() : cfg_.num_gcds,
              BreakerConfig{cfg_.breaker_failure_threshold,
                            cfg_.breaker_cooldown_ms}),
      epoch_(std::chrono::steady_clock::now()) {
  // The server reports one serving summary; per-query run records would
  // swamp XBFS_RUN_REPORT under load.
  cfg_.xbfs.report_runs = false;

  algos::register_builtin_engines();
  for (const core::AlgoKind k : cfg_.algos) {
    enabled_[static_cast<std::size_t>(k)] = true;
  }
  bfs_phash_ = bfs_params_hash();

  if (store_) {
    for (const core::AlgoKind k : cfg_.algos) {
      if (k != core::AlgoKind::Bfs && k != core::AlgoKind::Cc) {
        throw std::invalid_argument(
            std::string("ServeConfig: dynamic serving supports bfs "
                        "(incremental repair) and cc (incremental "
                        "union-find) only, got ") +
            core::algo_kind_name(k));
      }
    }
    if (cfg_.require_durability && store_->durability() == nullptr) {
      throw std::invalid_argument(
          "ServeConfig: require_durability set but the GraphStore has no "
          "durability hook (use store::open_durable / recover_store)");
    }
    const dyn::Snapshot snap = store_->snapshot();
    n_vertices_ = snap.graph->num_vertices();
    graph_fp_.store(snap.fingerprint, std::memory_order_release);
    // Registers the serving fingerprint so the first epoch bump already
    // has a previous epoch to retire lazily.  On a recovered store this is
    // also the stale-result fence: every result the pre-crash process
    // handed out is keyed by a fingerprint that can no longer match.
    cache_.prime(snap.fingerprint);
    if (const dyn::DurabilityHook* hook = store_->durability()) {
      const dyn::DurabilityStats ds = hook->stats();
      if (ds.recovered) {
        obs::FlightRecorder::global().record(
            "serve", "recovered_store",
            ds.torn_tail_detected ? "torn tail truncated" : "clean tail",
            ds.recovered_epoch, ds.recovered_fingerprint,
            ds.wal_records_replayed);
      }
    }
  } else {
    if (cfg_.require_durability) {
      throw std::invalid_argument(
          "ServeConfig: require_durability is meaningless on a static "
          "server (no update lane, nothing to make durable)");
    }
    n_vertices_ = host_g_->num_vertices();
    graph_fp_.store(host_g_->fingerprint(), std::memory_order_release);
  }
  if (sharded_) {
    // A static server without GCDs: the store's replicas are the devices,
    // and its graph backs validation and the serial host rung.
    for (const core::AlgoKind k : cfg_.algos) {
      if (k != core::AlgoKind::Bfs) {
        throw std::invalid_argument(
            std::string("ServeConfig: sharded serving supports bfs only, "
                        "got ") +
            core::algo_kind_name(k));
      }
    }
    if (cfg_.num_gcds != 1) {
      throw std::invalid_argument(
          "ServeConfig: num_gcds must stay 1 on a sharded server (the "
          "ShardedStore owns the devices)");
    }
    graph_fp_.store(graph::mix_fingerprint(host_g_->fingerprint(),
                                           sharded_->fingerprint_salt()),
                    std::memory_order_release);
    sweep_ = std::make_unique<shard::ShardSweep>(
        *sharded_, shard::ShardSweepConfig{.alpha = cfg_.xbfs.alpha});
  }

  core::EngineRegistry& reg = core::EngineRegistry::global();
  const unsigned num_gcds = sharded_ ? 0 : cfg_.num_gcds;
  gcds_.reserve(num_gcds);
  for (unsigned i = 0; i < num_gcds; ++i) {
    auto gcd = std::make_unique<Gcd>();
    // Profiling off: a long-running server would grow the per-launch row
    // list without bound.
    gcd->dev = std::make_unique<sim::Device>(
        cfg_.profile, sim::SimOptions{.num_workers = cfg_.device_workers,
                                      .profiling = false});
    gcd->dev->set_trace_label("GCD " + std::to_string(i));
    gcd->dev->warmup();
    if (store_) {
      // Dynamic ladders: one rung per kind, the incremental-repair engines
      // (they own their own delta-aware mirrors; no static CSR upload).
      if (serves(core::AlgoKind::Bfs)) {
        auto inc = std::make_unique<dyn::IncrementalBfs>(*gcd->dev, *store_,
                                                         cfg_.xbfs);
        gcd->inc = inc.get();
        gcd->ladders[static_cast<std::size_t>(core::AlgoKind::Bfs)].push_back(
            std::move(inc));
      }
      if (serves(core::AlgoKind::Cc)) {
        auto inc_cc = std::make_unique<dyn::IncrementalCc>(*store_);
        gcd->inc_cc = inc_cc.get();
        gcd->ladders[static_cast<std::size_t>(core::AlgoKind::Cc)].push_back(
            std::move(inc_cc));
      }
    } else {
      gcd->dg = graph::DeviceCsr::upload(*gcd->dev, *host_g_);
      // Per-kind degradation ladders from the registry, fastest rung first
      // (for BFS: adaptive XBFS, then the simple-scan baseline — far fewer
      // kernel launches per traversal, so under a high kernel-fault rate it
      // has fewer chances to draw a fault while still on the device).
      const core::EngineContext ctx{.dev = gcd->dev.get(),
                                    .dg = &gcd->dg,
                                    .host_g = host_g_,
                                    .store = nullptr,
                                    .config = &cfg_.xbfs};
      for (const core::AlgoKind k : cfg_.algos) {
        gcd->ladders[static_cast<std::size_t>(k)] = reg.build_ladder(k, ctx);
      }
    }
    gcds_.push_back(std::move(gcd));
  }

  // Terminal rungs: one fault-immune host engine per kind.
  if (store_) {
    if (serves(core::AlgoKind::Bfs)) {
      auto host = std::make_unique<dyn::HostDeltaBfs>(*store_);
      host_dyn_ = host.get();
      host_engines_[static_cast<std::size_t>(core::AlgoKind::Bfs)] =
          std::move(host);
    }
    // Dynamic CC's only rung (IncrementalCc) is already host-side and
    // fault-immune; no separate terminal rung needed.
  } else {
    const core::EngineContext hctx{.host_g = host_g_};
    for (const core::AlgoKind k : cfg_.algos) {
      if (k == core::AlgoKind::Bfs) {
        // Serial mode: the serving fallback's historical engine (and the
        // name — "cpu-serial" — resilience tests assert on); the registry's
        // default cpu-bfs build is the parallel variant.
        host_engines_[static_cast<std::size_t>(k)] =
            std::make_unique<baseline::CpuBfsEngine>(
                *host_g_, baseline::CpuBfsEngine::Mode::Serial);
      } else {
        host_engines_[static_cast<std::size_t>(k)] = reg.build_host(k, hctx);
      }
    }
  }
  for (const core::AlgoKind k : cfg_.algos) {
    const auto i = static_cast<std::size_t>(k);
    if ((gcds_.empty() || gcds_[0]->ladders[i].empty()) &&
        host_engines_[i] == nullptr) {
      throw std::invalid_argument(
          std::string("ServeConfig: no engine registered for kind ") +
          core::algo_kind_name(k));
    }
  }

  // One pool worker per dispatch lane (the scheduler thread participates
  // as lane 0), reusing the simulator's chunked-cursor worker pool.
  pool_ = std::make_unique<sim::ThreadPool>(lanes_);

  obs::SloEngine& slo_eng = obs::SloEngine::global();
  if (slo_eng.enabled()) {
    // One SLO lane per health slot: per GCD, or per shard-replica.
    const unsigned slo_lanes = health_.num_slots();
    slo_ = &slo_eng.scope(cfg_.slo_scope, slo_lanes);
    // Per-kind scopes so objectives can differ per algorithm (a whole-graph
    // CC is allowed a slower p99 than a point BFS lookup).
    for (const core::AlgoKind k : cfg_.algos) {
      slo_by_algo_[static_cast<std::size_t>(k)] = &slo_eng.scope(
          cfg_.slo_scope + ":" + core::algo_kind_name(k), slo_lanes);
    }
    if (sharded_) {
      for (unsigned sh = 0; sh < sharded_->shards(); ++sh) {
        for (unsigned r = 0; r < sharded_->replicas(); ++r) {
          std::string label = "s";
          label += std::to_string(sh);
          label += 'r';
          label += std::to_string(r);
          slo_->label_lane(sharded_->slot(sh, r), label);
        }
      }
    }
  }
  flight_ctx_ = obs::FlightRecorder::global().register_context(
      "server[" + cfg_.slo_scope + "]",
      [this] { return flight_context_json(); });

  if (!cfg_.manual_dispatch) {
    scheduler_ = std::thread([this] { scheduler_loop(); });
  }
}

Server::~Server() { shutdown(); }

double Server::wall_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Admission Server::submit(graph::vid_t source, QueryOptions opt) {
  core::AlgoQuery q;
  q.algo = core::AlgoKind::Bfs;
  q.source = source;
  return submit(std::move(q), std::move(opt));
}

Admission Server::submit(core::AlgoQuery q, QueryOptions opt) {
  q = normalize_query(q);
  const auto kidx = static_cast<std::size_t>(q.algo);

  Admission a;
  a.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (kidx < core::kNumAlgoKinds) {
    submitted_by_algo_[kidx].fetch_add(1, std::memory_order_relaxed);
  }

  if (shut_down_.load(std::memory_order_acquire)) {
    a.status = xbfs::Status::ShuttingDown("server is shutting down");
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    return a;
  }
  if (kidx >= core::kNumAlgoKinds || !enabled_[kidx]) {
    a.status = xbfs::Status::Invalid(
        std::string("algorithm kind ") +
        (kidx < core::kNumAlgoKinds ? core::algo_kind_name(q.algo) : "?") +
        " is not served (see ServeConfig::algos)");
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    return a;
  }
  if (core::algo_needs_source(q.algo) && q.source >= n_vertices_) {
    a.status = xbfs::Status::Invalid(
        "source " + std::to_string(q.source) + " >= |V| = " +
        std::to_string(n_vertices_));
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    return a;
  }

  const double now = wall_us();
  const std::uint64_t phash = q.params.hash();

  // Cache fast path: resolve without ever touching the queue.
  if (cache_.enabled() && !opt.bypass_cache) {
    if (CachedResult hit =
            cache_.get(graph_fp_.load(std::memory_order_acquire), q.algo,
                       phash, q.source)) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      std::promise<QueryResult> pr;
      a.result = pr.get_future();
      a.accepted = true;
      QueryResult r;
      r.id = a.id;
      r.algo = q.algo;
      r.source = q.source;
      r.status = QueryStatus::Completed;
      r.depth = hit.depth;
      r.levels = hit.levels;
      r.payload = std::move(hit);
      r.cache_hit = true;
      r.shards = sharded_ ? sharded_->shards() : 0;
      r.total_ms = (wall_us() - now) / 1000.0;
      if (cfg_.query_tracing) {
        r.trace = std::make_shared<obs::QueryTrace>(a.id, q.source);
        r.trace->event(now, "admitted",
                       std::string("algo=") + core::algo_kind_name(q.algo) +
                           " source=" + std::to_string(q.source));
        r.trace->event(wall_us(), "cache_hit",
                       "depth=" + std::to_string(r.depth));
      }
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      cache_hits_by_algo_[kidx].fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      record_latency(r);
      note_terminal(r);
      pr.set_value(std::move(r));
      retire_one();
      return a;
    }
  }

  PendingQuery p;
  p.id = a.id;
  p.query = q;
  p.source = q.source;
  p.phash = phash;
  p.bypass_cache = opt.bypass_cache;
  p.enqueue_us = now;
  p.deadline_us = resolve_deadline_us(opt.timeout_ms, cfg_.default_timeout_ms,
                                      now);
  if (cfg_.query_tracing) {
    p.trace = std::make_shared<obs::QueryTrace>(a.id, q.source);
    std::string detail = std::string("algo=") + core::algo_kind_name(q.algo) +
                         " source=" + std::to_string(q.source);
    if (p.deadline_us >= 0.0) {
      detail += " deadline_ms=" + fmt_double((p.deadline_us - now) / 1000.0);
    }
    p.trace->event(now, "admitted", std::move(detail));
  }
  std::future<QueryResult> fut = p.promise.get_future();

  xbfs::Status st = queue_.try_push(std::move(p));
  if (!st.ok()) {
    if (st == xbfs::StatusCode::QueueFull) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
    } else {
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    }
    a.status = std::move(st);
    return a;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<sim::RankedMutex> lk(inflight_mu_);
    inflight_.insert(a.id);
  }
  a.accepted = true;
  a.result = std::move(fut);
  return a;
}

UpdateAdmission Server::submit_update(const dyn::EdgeBatch& batch,
                                      UpdateOptions opt) {
  UpdateAdmission a;
  updates_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!store_) {
    a.status = xbfs::Status::Invalid(
        "static server: graph updates need the GraphStore constructor");
    return a;
  }
  if (shut_down_.load(std::memory_order_acquire)) {
    a.status = xbfs::Status::ShuttingDown("server is shutting down");
    return a;
  }
  // The update lane has no default deadline: the query-side
  // default_timeout_ms is deliberately not inherited (dropping a write
  // because reads are slow is never what a caller means).
  const double deadline_us = resolve_deadline_us(opt.timeout_ms, -1.0,
                                                 wall_us());

  // Writes serialized per graph; reads are never blocked — the store
  // publishes a new snapshot while in-flight queries keep theirs, and the
  // fingerprint/cache flip below makes new submissions see the new epoch.
  std::lock_guard<sim::RankedMutex> lk(update_mu_);
  if (deadline_us >= 0.0 && wall_us() > deadline_us) {
    // The lane was contended past the caller's budget; reject *before*
    // applying so the graph does not move under a caller that gave up.
    updates_expired_.fetch_add(1, std::memory_order_relaxed);
    a.status = xbfs::Status::DeadlineExceeded(
        "update waited past its " + fmt_double(opt.timeout_ms) +
        " ms budget on the write lane");
    obs::FlightRecorder::global().record("dyn", "update_expired", {}, 0, 0,
                                         batch.size());
    return a;
  }
  if (cfg_.query_tracing) {
    a.trace = std::make_shared<obs::QueryTrace>(0, 0);
    a.trace->event(wall_us(), "update_submitted",
                   "ops=" + std::to_string(batch.size()));
  }
  // try_apply so a durability failure (torn WAL write, failed fsync) rejects
  // the batch with the fault status instead of throwing through the lane:
  // not-durable => not-visible, and the caller learns which it was.
  if (const xbfs::Status s = store_->try_apply(batch, &a.applied); !s.ok()) {
    updates_rejected_durability_.fetch_add(1, std::memory_order_relaxed);
    a.status = s;
    if (a.trace) a.trace->event(wall_us(), "update_rejected", s.to_string());
    obs::FlightRecorder::global().record("dyn", "update_rejected", s.detail(),
                                         0, 0, batch.size());
    obs::MetricsRegistry& mxr = obs::MetricsRegistry::global();
    if (mxr.enabled()) mxr.counter("serve.updates_rejected").add();
    return a;
  }
  const dyn::Snapshot snap = store_->snapshot();
  a.epoch = snap.epoch;
  a.fingerprint = snap.fingerprint;
  graph_fp_.store(snap.fingerprint, std::memory_order_release);
  a.cache_purged = cache_.epoch_bump(snap.fingerprint);
  a.accepted = true;
  if (a.trace) {
    a.trace->event(
        wall_us(), "update_applied",
        "epoch=" + std::to_string(a.epoch) + " applied=" +
            std::to_string(a.applied.inserts_applied +
                           a.applied.deletes_applied) +
            " noops=" + std::to_string(a.applied.noops) +
            " purged=" + std::to_string(a.cache_purged));
  }
  obs::FlightRecorder::global().record(
      "dyn", "update", {}, 0, a.epoch,
      a.applied.inserts_applied + a.applied.deletes_applied);

  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  update_edges_applied_.fetch_add(
      a.applied.inserts_applied + a.applied.deletes_applied,
      std::memory_order_relaxed);
  update_noops_.fetch_add(a.applied.noops, std::memory_order_relaxed);
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.counter("serve.updates").add();
    mx.counter("serve.cache_purged")
        .add(static_cast<std::uint64_t>(a.cache_purged));
  }
  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    tr.instant("serve.update", "serve", "serve", 0, wall_us(),
               {{"epoch", std::to_string(a.epoch), true},
                {"purged", std::to_string(a.cache_purged), true}});
  }
  return a;
}

bool Server::result_still_valid(std::uint64_t fingerprint) const {
  if (fingerprint == graph_fp_.load(std::memory_order_acquire)) return true;
  recovery_stale_rejected_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("serve.stale_rejected").add();
  return false;
}

void Server::scheduler_loop() {
  std::vector<PendingQuery> pending;
  const std::size_t target = static_cast<std::size_t>(cfg_.max_batch) * lanes_;
  for (;;) {
    pending.clear();
    const std::size_t got =
        queue_.pop_batch(pending, target, cfg_.batch_window_ms * 1000.0);
    if (got == 0) {
      if (queue_.closed()) return;
      continue;
    }
    process_cycle(pending);
  }
}

std::size_t Server::dispatch_once() {
  std::vector<PendingQuery> pending;
  const std::size_t target = static_cast<std::size_t>(cfg_.max_batch) * lanes_;
  if (queue_.try_pop_batch(pending, target) == 0) return 0;
  return process_cycle(pending);
}

std::size_t Server::process_cycle(std::vector<PendingQuery>& pending) {
  std::lock_guard<sim::RankedMutex> cycle_lock(cycle_mu_);
  obs::TraceSession& tr = obs::TraceSession::global();
  const std::uint64_t span = tr.begin("serve.cycle", "serve", "serve");
  const std::uint64_t cycle =
      dispatch_cycles_.fetch_add(1, std::memory_order_relaxed) + 1;
  const double dispatch_us = wall_us();
  const std::size_t cycle_queries = pending.size();

  // Triage: expire past-deadline queries (reported, never dropped) and
  // serve queries whose key landed in the cache while they queued.
  std::vector<PendingQuery> work;
  work.reserve(pending.size());
  for (PendingQuery& p : pending) {
    if (p.deadline_us >= 0.0 && dispatch_us > p.deadline_us) {
      complete_expired(std::move(p), dispatch_us);
      continue;
    }
    if (cache_.enabled() && !p.bypass_cache) {
      if (CachedResult hit =
              cache_.get(graph_fp_.load(std::memory_order_acquire),
                         p.query.algo, p.phash, p.source)) {
        complete_from_cache(std::move(p), std::move(hit), dispatch_us);
        continue;
      }
    }
    if (p.trace) {
      p.trace->event(dispatch_us, "dispatched",
                     "cycle=" + std::to_string(cycle));
    }
    work.push_back(std::move(p));
  }
  pending.clear();

  if (!work.empty()) {
    // Deduplicate: all queries agreeing on (algo, params, source) share one
    // engine run.  BFS keys additionally feed the batch/sweep machinery;
    // every other kind dispatches as its own unit.
    QueryMap by_key;
    std::vector<graph::vid_t> uniq;  // distinct BFS sources
    std::vector<DispatchKey> units;  // non-BFS dispatch units
    for (PendingQuery& p : work) {
      const DispatchKey key{p.query.algo, p.phash, p.source};
      auto& waiters = by_key[key];
      if (waiters.empty()) {
        if (p.query.algo == core::AlgoKind::Bfs) {
          uniq.push_back(p.source);
        } else {
          units.push_back(key);
        }
      }
      waiters.push_back(std::move(p));
    }

    std::vector<std::vector<graph::vid_t>> batches;
    if (!dynamic() && sharded_ == nullptr) {
      if (uniq.size() > 1) {
        uniq = algos::group_sources(*host_g_, std::move(uniq), cfg_.max_batch);
      }
      for (std::size_t b = 0; b < uniq.size(); b += cfg_.max_batch) {
        const std::size_t e = std::min(b + cfg_.max_batch, uniq.size());
        if (e - b < cfg_.min_sweep_sources) {
          // Too narrow to amortize a sweep's fixed full-vertex-scan cost:
          // per-source adaptive runs, spread across the GCD lanes.
          for (std::size_t i = b; i < e; ++i) batches.push_back({uniq[i]});
        } else {
          batches.emplace_back(uniq.begin() + b, uniq.begin() + e);
        }
      }
    } else {
      // Dynamic and sharded cycles: one traversal per distinct source (the
      // bit-parallel sweep and neighborhood grouping both need the static
      // CSR on one device).
      for (const graph::vid_t s : uniq) batches.push_back({s});
    }

    const std::size_t n_bfs = batches.size();
    pool_->parallel_for(n_bfs + units.size(),
                        [&](unsigned worker, std::uint64_t bi) {
                          if (bi < n_bfs) {
                            run_batch(worker, batches[bi], by_key,
                                      dispatch_us);
                          } else {
                            run_algo(worker, units[bi - n_bfs], by_key,
                                     dispatch_us);
                          }
                        });
  }

  if (span != 0) {
    tr.attr(span, "queries", static_cast<double>(cycle_queries));
    tr.end(span);
  }
  return cycle_queries;
}

bool Server::validation_active() const {
  // The corruption detector runs exactly when something can corrupt.
  return sim::FaultInjector::global().enabled();
}

void Server::backoff(unsigned attempt) {
  if (cfg_.retry_backoff_ms <= 0.0) return;
  double ms = cfg_.retry_backoff_ms;
  for (unsigned i = 1; i < attempt && ms < kRetryBackoffMaxMs; ++i) {
    ms *= 2.0;
  }
  ms = std::min(ms, kRetryBackoffMaxMs);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

xbfs::Status Server::note_attempt_failure(unsigned gcd,
                                          const xbfs::Status& why,
                                          QueryId primary) {
  obs::FlightRecorder::global().record("serve", "attempt_failed",
                                       xbfs::status_code_name(why.code()),
                                       primary, gcd);
  if (why == xbfs::StatusCode::FaultInjected) {
    faults_seen_.fetch_add(1, std::memory_order_relaxed);
  } else if (why == xbfs::StatusCode::DataCorruption) {
    faults_seen_.fetch_add(1, std::memory_order_relaxed);
    validation_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  health_.record_failure(gcd, wall_us());
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.counter("serve.faults").add();
    if (why == xbfs::StatusCode::DataCorruption) {
      mx.counter("serve.validation_failures").add();
    }
  }
  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    tr.instant("serve.fault", "serve", "serve", 0, wall_us(),
               {{"gcd", std::to_string(gcd), true},
                {"status", xbfs::status_code_name(why.code()), false}});
  }
  return why;
}

bool Server::note_dispatch_time(unsigned gcd, double dispatch_us) {
  if (cfg_.dispatch_timeout_ms < 0.0) return false;
  const double elapsed_ms = (wall_us() - dispatch_us) / 1000.0;
  if (elapsed_ms <= cfg_.dispatch_timeout_ms) return false;
  // Straggler: the work itself completed (the result is still used), but
  // the device blew its budget — report it unhealthy so the next dispatch
  // routes elsewhere while its breaker cools down.
  dispatch_timeouts_.fetch_add(1, std::memory_order_relaxed);
  health_.record_failure(gcd, wall_us());
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("serve.dispatch_timeouts").add();
  return true;
}

std::string Server::validate_payload(const core::AlgoQuery& q,
                                     const CachedResult& res,
                                     const dyn::Snapshot& snap) const {
  switch (q.algo) {
    case core::AlgoKind::Bfs:
      if (!res.levels) return "bfs payload has no levels vector";
      return snap ? dyn::validate_levels(*snap.graph, q.source, *res.levels)
                  : graph::validate_levels_graph500(*host_g_, q.source,
                                                    *res.levels);
    case core::AlgoKind::Sssp:
      if (!res.distances) return "sssp payload has no distances vector";
      return host_g_ ? graph::validate_sssp_distances(
                           *host_g_, q.source, *res.distances,
                           q.params.weight_seed, q.params.max_weight)
                     : std::string();
    case core::AlgoKind::Cc:
      if (!res.components) return "cc payload has no components vector";
      return host_g_ ? graph::validate_components(*host_g_, *res.components)
                     : std::string();
    case core::AlgoKind::KCore:
      if (!res.cores) return "kcore payload has no cores vector";
      return host_g_ ? graph::validate_kcore(*host_g_, *res.cores,
                                             q.params.k)
                     : std::string();
    case core::AlgoKind::Bc:
    case core::AlgoKind::Scc:
      // No partition/relaxation-style validator exists for these kinds;
      // payload_validatable() keeps them off the validation path.
      return {};
  }
  return {};
}

bool Server::payload_validatable(core::AlgoKind k) const {
  switch (k) {
    case core::AlgoKind::Bfs:
      return true;  // static and dynamic validators both exist
    case core::AlgoKind::Sssp:
    case core::AlgoKind::Cc:
    case core::AlgoKind::KCore:
      return host_g_ != nullptr;  // validators need the static topology
    case core::AlgoKind::Bc:
    case core::AlgoKind::Scc:
      return false;
  }
  return false;
}

template <class Lock, class Run, class Realize, class Validate>
bool Server::attempt(Attempt& a, unsigned& attempts, xbfs::Status& last,
                     Lock&& lock, Run&& run, Realize&& realize,
                     Validate&& validate) {
  if (attempts > 0) retries_.fetch_add(1, std::memory_order_relaxed);
  ++attempts;
  obs::QueryTrace* log = a.log;
  const double attempt_us = wall_us();
  if (log) {
    log->event(attempt_us, "attempt",
               a.attempt + " attempt=" + std::to_string(attempts));
  }
  // Declared outside the try: a faulted run keeps the partial counters it
  // accumulated before the fault (the faulted launch itself attributes
  // nothing — hipsim throws before executing it).
  sim::AttributionSink sink;
  unsigned corrupt_slot = HealthTracker::kNone;
  std::uint64_t corrupt_copies = 0;
  // The verdict: an ok status, or the failure, the slot it charges, and
  // its trace event and rung outcome.
  xbfs::Status why;
  unsigned charged = a.home;
  const char* event = "resolved";
  const char* outcome = "ok";
  std::string detail;
  try {
    {
      auto held = lock();
      // Detached and drained under the attempt's locks on every exit, so a
      // copy this attempt corrupted can never surface in the next attempt
      // on that device (its counters are plain fields other lanes mutate
      // once the lock drops).
      const auto detach = [&] {
        for (const Touched& t : a.on) {
          t.dev->attach_attribution(nullptr);
          if (t.dev->take_pending_corruption()) {
            corrupt_slot = t.slot;
            corrupt_copies = t.dev->corrupted_copies();
          }
        }
      };
      for (const Touched& t : a.on) t.dev->attach_attribution(&sink);
      try {
        run();
      } catch (...) {
        detach();
        throw;
      }
      detach();
    }
    // A corrupt verdict charges the device whose copy was corrupt.
    const bool corrupt = corrupt_slot != HealthTracker::kNone;
    if (corrupt) charged = corrupt_slot;
    std::optional<std::string> verr;
    if (corrupt && !realize(corrupt_copies)) {
      why = xbfs::Status::Corruption(
          std::string("transfer corruption pending on ") + a.engine);
      event = "corrupted";
      outcome = "corrupt";
      if (log) detail = a.engine;
    } else if ((verr = validate()) && !verr->empty()) {
      why = xbfs::Status::Corruption(*verr);
      event = "validation_failed";
      outcome = "corrupt";
      detail = std::move(*verr);
    } else if (verr) {
      validated_results_.fetch_add(a.shared, std::memory_order_relaxed);
      if (log) log->event(wall_us(), "validated");
    }
  } catch (const shard::ShardSweepFault& f) {
    charged = sharded_->slot(f.shard(), f.replica());
    why = xbfs::Status::Fault(f.what());
    event = outcome = "fault";
    if (log) {
      detail = "slot=s" + std::to_string(f.shard()) + "r" +
               std::to_string(f.replica()) + " " + f.what();
    }
  } catch (const sim::FaultInjected& e) {
    why = xbfs::Status::Fault(e.what());
    event = outcome = "fault";
    if (log) detail = e.what();
  } catch (const std::exception& e) {
    why = xbfs::Status::Internal(e.what());
    event = outcome = "error";
    if (log) detail = e.what();
  }

  if (why.ok()) {
    // A straggler keeps its result but its home slot eats a breaker
    // failure instead of a success (which would reset the failure streak).
    const bool straggler = note_dispatch_time(a.home, a.dispatch_us);
    for (const Touched& t : a.on) {
      if (!straggler || t.slot != a.home) health_.record_success(t.slot);
    }
  } else {
    last = note_attempt_failure(charged, why, a.primary);
    // Hand back the allow() grant of every slot the failure does not
    // charge: a HalfOpen breaker's probe token would otherwise stay
    // outstanding and that device would never serve again.
    for (const Touched& t : a.on) {
      if (t.slot != charged) health_.release(t.slot);
    }
    a.charged = charged;
  }
  if (log) {
    log->event(wall_us(), event, std::move(why.ok() ? a.resolved : detail));
    log->rung(make_rung(sink, a.engine, outcome, a.home, attempts, a.rung,
                        a.shared, attempt_us, wall_us()));
  }
  if (why.ok()) return true;
  if (why == xbfs::StatusCode::DataCorruption) {
    obs::FlightRecorder::global().trigger("validation_failure");
  }
  backoff(attempts);
  return false;
}

Server::Resolution Server::resolve_query(unsigned preferred,
                                         const core::AlgoQuery& q,
                                         unsigned attempts_so_far,
                                         double dispatch_us,
                                         QueryId primary) {
  const auto kidx = static_cast<std::size_t>(q.algo);
  Resolution out;
  out.attempts = attempts_so_far;
  out.gcd = preferred;
  if (cfg_.query_tracing) {
    out.log = std::make_shared<obs::QueryTrace>(primary, q.source);
  }
  obs::QueryTrace* log = out.log.get();
  const bool validate = validation_active() && payload_validatable(q.algo);
  xbfs::Status last = xbfs::Status::Unavailable("no device attempt made");
  unsigned budget = cfg_.max_attempts;
  // The sharded backing's one device rung is the distributed sweep.
  const std::size_t rungs = sharded_ ? 1 : gcds_[0]->ladders[kidx].size();
  if (sharded_) {
    if (resolve_sharded(q, dispatch_us, primary, validate, out, last)) {
      return out;
    }
    budget = 0;  // no ladder to walk: straight to the host rung
    // No replica produced this outcome: the host rung's result or the
    // failure belongs to the scope aggregate lane, not to the dispatch
    // lane's slot (lane w is slot s0r<w>, unrelated to the source shard).
    out.gcd = health_.num_slots();
  }

  // SLO-aware proactive degrade: when the error budget is exhausted (or
  // the window burn runs past burn_fast), start on the cheaper rung
  // instead of spending device attempts the objective can't afford.
  std::size_t start_rung = 0;
  if (slo_ != nullptr && rungs > 1 && slo_->prefer_cheap(obs::slo_now_ms())) {
    start_rung = 1;
    slo_proactive_degrades_.fetch_add(1, std::memory_order_relaxed);
    if (log) log->event(wall_us(), "slo_degrade", "start_rung=1");
    obs::FlightRecorder::global().record("serve", "slo_degrade", {}, primary,
                                         preferred);
  }

  for (std::size_t rung = start_rung; rung < rungs && budget > 0; ++rung) {
    while (budget > 0) {
      const unsigned g = health_.pick(preferred, wall_us());
      if (g == HealthTracker::kNone) {
        last = xbfs::Status::Unavailable("all GCD circuit breakers open");
        if (log) log->event(wall_us(), "unavailable", "all breakers open");
        budget = 0;
        break;
      }
      if (g != preferred) rerouted_.fetch_add(1, std::memory_order_relaxed);
      --budget;
      Gcd& gcd = *gcds_[g];
      core::AlgorithmEngine& eng = *gcd.ladders[kidx][rung];
      const Touched on[] = {{g, gcd.dev.get()}};
      Attempt a{.on = on, .home = g, .engine = eng.name(),
                .rung = static_cast<unsigned>(rung), .primary = primary,
                .log = log, .dispatch_us = dispatch_us};
      if (log) {
        a.resolved =
            "engine=" + std::string(eng.name()) + " gcd=" + std::to_string(g);
        a.attempt = a.resolved + " rung=" + std::to_string(rung);
      }
      core::AlgoResult ar;
      dyn::Snapshot dsnap;
      const bool ok = attempt(
          a, out.attempts, last, [&] { return std::unique_lock(gcd.mu); },
          [&] {
            ar = eng.solve(q);
            // Dynamic: pin the exact snapshot this run used (still under
            // the GCD lock — served() follows solve()'s serialization) so
            // validation and the cache key match the graph that was served,
            // not whatever epoch the store is on by now.
            if (gcd.inc && q.algo == core::AlgoKind::Bfs) {
              dsnap = gcd.inc->served();
              const dyn::IncrementalBfs::LastRun& dlr = gcd.inc->last_run();
              if (log && dlr.valid) {
                log->event(wall_us(), dlr.repair ? "repair" : "recompute",
                           "epoch=" + std::to_string(dlr.epoch) + " dirty=" +
                               std::to_string(dlr.dirty) + " seeds=" +
                               std::to_string(dlr.seeds) +
                               (dlr.fallback[0] != '\0'
                                    ? std::string(" fallback=") + dlr.fallback
                                    : std::string()));
              }
            } else if (gcd.inc_cc && q.algo == core::AlgoKind::Cc) {
              dsnap = gcd.inc_cc->served();
            }
          },
          [&](std::uint64_t) {
            // Non-BFS payloads have no realization hook: the attempt fails
            // rather than serve a payload the detector can't check.
            if (q.algo != core::AlgoKind::Bfs || !ar.payload.levels) {
              return false;
            }
            // The modelled copy moved no real bytes; realize the corruption
            // on the levels so validation (when active) sees it.
            std::vector<std::int32_t> lv = *ar.payload.levels;
            sim::FaultInjector::global().corrupt_levels(lv);
            ar.payload.levels =
                std::make_shared<const std::vector<std::int32_t>>(
                    std::move(lv));
            return true;
          },
          [&]() -> std::optional<std::string> {
            if (!validate) return std::nullopt;
            return validate_payload(q, ar.payload, dsnap);
          });
      if (!ok) continue;
      out.res = std::move(ar.payload);
      out.modelled_ms = ar.total_ms;
      out.engine = eng.name();
      out.gcd = g;
      out.fp = dsnap ? dsnap.fingerprint
                     : graph_fp_.load(std::memory_order_acquire);
      // Degraded: a failed sweep preceded this, or we are below rung 0.
      out.degraded = attempts_so_far > 0 || rung > 0;
      out.validated = validate;
      out.status = xbfs::Status::Ok();
      return out;
    }
  }

  core::AlgorithmEngine* host = host_engines_[kidx].get();
  if (cfg_.host_fallback && host != nullptr) {
    // Terminal rung: the host CPU engine never touches the simulated
    // device, so no injected fault can reach it.  Dynamic servers pin one
    // snapshot so the traversal, validation and cache key agree even if an
    // update lands mid-run.
    const double host_us = wall_us();
    if (log) {
      log->event(host_us, "host_fallback",
                 "engine=" + std::string(host->name()));
    }
    dyn::Snapshot hsnap;
    core::ResultPayload payload;
    if (host_dyn_ != nullptr && q.algo == core::AlgoKind::Bfs) {
      hsnap = store_->snapshot();
      core::BfsResult br = host_dyn_->run_on(hsnap, q.source);
      payload.kind = core::AlgoKind::Bfs;
      payload.levels = std::make_shared<const std::vector<std::int32_t>>(
          std::move(br.levels));
      payload.depth = br.depth;
    } else {
      payload = host->solve(q).payload;
    }
    host_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
    if (mx.enabled()) mx.counter("serve.host_fallbacks").add();
    if (validate) {
      const std::string verr = validate_payload(q, payload, hsnap);
      if (!verr.empty()) {
        // Cannot happen short of a bug in the host engine itself; report
        // rather than serve a wrong answer.
        out.status = xbfs::Status::Internal(
            "host fallback failed validation: " + verr);
        if (log) log->event(wall_us(), "validation_failed", verr);
        return out;
      }
      validated_results_.fetch_add(1, std::memory_order_relaxed);
    }
    out.res = std::move(payload);
    out.engine = host->name();
    out.degraded = true;
    out.validated = validate;
    out.status = xbfs::Status::Ok();
    out.fp = hsnap ? hsnap.fingerprint
                   : graph_fp_.load(std::memory_order_acquire);
    if (log) {
      // The host rung runs no simulated device work, so its attribution
      // record is all-zero counters — rung index one past the ladder.
      obs::RungAttribution ha;
      ha.engine = out.engine;
      ha.gcd = out.gcd;
      ha.attempt = out.attempts;
      ha.rung = static_cast<unsigned>(rungs);
      ha.wall_start_us = host_us;
      ha.wall_dur_us = wall_us() - host_us;
      log->rung(std::move(ha));
      log->event(wall_us(), "resolved", "engine=" + out.engine);
    }
    return out;
  }

  out.status = last;
  if (log) log->event(wall_us(), "exhausted", last.to_string());
  obs::FlightRecorder::global().record("serve", "budget_exhausted",
                                       xbfs::status_code_name(last.code()),
                                       primary, out.gcd);
  return out;
}

unsigned Server::build_plan(QueryId id, unsigned attempt,
                            const std::vector<char>& excluded,
                            std::vector<int>& plan, obs::QueryTrace* log) {
  const unsigned S = sharded_->shards();
  const unsigned R = sharded_->replicas();
  plan.assign(S, shard::ShardSweep::kLost);
  unsigned lost = 0;
  std::vector<unsigned> group;
  for (unsigned s = 0; s < S; ++s) {
    group.clear();
    for (unsigned r = 0; r < R; ++r) {
      const unsigned sl = sharded_->slot(s, r);
      if (sharded_->alive(s, r) && !excluded[sl]) group.push_back(sl);
    }
    if (group.empty()) {
      // Exclusion is a soft preference: when this query has already seen a
      // fault on every live replica of the shard, retrying one (faults are
      // transient) beats degrading the whole shard to lost.
      for (unsigned r = 0; r < R; ++r) {
        if (sharded_->alive(s, r)) group.push_back(sharded_->slot(s, r));
      }
    }
    // Spread load across the replica row by query id; retries rotate the
    // preference so a re-plan naturally lands elsewhere first.
    const unsigned pref =
        sharded_->slot(s, static_cast<unsigned>((id + attempt) % R));
    const unsigned got = health_.pick_in(group, pref, wall_us());
    if (got == HealthTracker::kNone) {
      ++lost;
      if (log) log->event(wall_us(), "shard_lost", "shard=" + std::to_string(s));
      continue;
    }
    if (got != pref) {
      rerouted_.fetch_add(1, std::memory_order_relaxed);
      if (log) {
        log->event(wall_us(), "rerouted",
                   "shard=" + std::to_string(s) + " slot=" +
                       std::to_string(got));
      }
    }
    plan[s] = static_cast<int>(got - sharded_->slot(s, 0));
  }
  return lost;
}

bool Server::resolve_sharded(const core::AlgoQuery& q, double dispatch_us,
                             QueryId primary, bool validate, Resolution& out,
                             xbfs::Status& last) {
  const unsigned S = sharded_->shards();
  const unsigned owner = sharded_->layout().owner(q.source);
  obs::QueryTrace* log = out.log.get();
  std::vector<char> excluded(sharded_->num_slots(), 0);
  std::vector<int> plan;
  std::vector<Touched> on;
  on.reserve(S);

  for (unsigned round = 0; round < cfg_.max_attempts; ++round) {
    const unsigned lost = build_plan(primary, round, excluded, plan, log);
    on.clear();
    for (unsigned s = 0; s < S; ++s) {
      if (plan[s] == shard::ShardSweep::kLost) continue;
      const auto r = static_cast<unsigned>(plan[s]);
      on.push_back(
          {sharded_->slot(s, r), sharded_->replica(s, r).device.get()});
    }
    if (plan[owner] == shard::ShardSweep::kLost) {
      // Abandoned before the sweep: hand back every planned slot's grant
      // (a HalfOpen breaker's probe token would otherwise stay outstanding).
      for (const Touched& t : on) health_.release(t.slot);
      last = xbfs::Status::Unavailable("source shard " +
                                       std::to_string(owner) +
                                       " has no healthy replica");
      unavailable_failures_.fetch_add(1, std::memory_order_relaxed);
      if (log) log->event(wall_us(), "unavailable", last.detail());
      return false;
    }
    const unsigned home =
        sharded_->slot(owner, static_cast<unsigned>(plan[owner]));
    Attempt a{.on = on, .home = home, .engine = "shard-sweep",
              .primary = primary, .log = log, .dispatch_us = dispatch_us};
    if (log) {
      a.attempt = "engine=shard-sweep live=" + std::to_string(S - lost) +
                  " lost=" + std::to_string(lost);
      a.resolved = "engine=shard-sweep slot=" + std::to_string(home);
    }
    shard::ShardSweepResult sw;
    const bool ok = attempt(
        a, out.attempts, last,
        [&] {
          // Chosen replicas locked in ascending slot order (plans are
          // iterated by shard, and slots grow with shard) — overlapping
          // plans from concurrent lanes serialize instead of deadlocking.
          std::vector<std::unique_lock<std::mutex>> held;
          held.reserve(S);
          for (unsigned s = 0; s < S; ++s) {
            if (plan[s] == shard::ShardSweep::kLost) continue;
            held.emplace_back(
                sharded_->replica(s, static_cast<unsigned>(plan[s])).mu);
          }
          return held;
        },
        [&] {
          sw = sweep_->run(q.source, plan);
          if (log) {
            if (sw.partial) {
              log->event(wall_us(), "partial",
                         "lost=" + std::to_string(sw.shards_lost));
            }
            a.resolved += " depth=" + std::to_string(sw.depth);
          }
        },
        [&](std::uint64_t) {
          // The modelled copy moved no real bytes; realize the corruption
          // so validation can see it.
          sim::FaultInjector::global().corrupt_levels(sw.levels);
          return true;
        },
        [&]() -> std::optional<std::string> {
          // Partial results are never validated: edges into a lost range
          // legitimately break the level rules.
          if (!validate || sw.partial) return std::nullopt;
          return graph::validate_levels_graph500(*host_g_, q.source,
                                                 sw.levels);
        });
    if (!ok) {
      excluded[a.charged] = 1;
      continue;
    }

    levels_swept_.fetch_add(sw.level_stats.size(), std::memory_order_relaxed);
    std::uint64_t two = 0;
    for (const shard::ShardLevelStats& st : sw.level_stats) {
      two += st.two_phase;
    }
    two_phase_levels_.fetch_add(two, std::memory_order_relaxed);
    exchange_raw_bytes_.fetch_add(sw.raw_bytes, std::memory_order_relaxed);
    exchange_wire_bytes_.fetch_add(sw.wire_bytes, std::memory_order_relaxed);
    lost_shard_events_.fetch_add(sw.shards_lost, std::memory_order_relaxed);
    obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
    if (mx.enabled()) {
      mx.histogram("shard.sweep_modelled_ms").observe(sw.total_ms);
      mx.histogram("shard.sweep_comm_ms").observe(sw.comm_ms);
    }

    out.res.kind = core::AlgoKind::Bfs;
    out.res.levels = std::make_shared<const std::vector<std::int32_t>>(
        std::move(sw.levels));
    out.res.depth = sw.depth;
    out.modelled_ms = sw.total_ms;
    out.engine = "shard-sweep";
    out.gcd = home;
    out.fp = graph_fp_.load(std::memory_order_acquire);
    out.partial = sw.partial;
    out.shards_lost = sw.shards_lost;
    out.degraded = sw.partial || out.attempts > 1;
    out.validated = validate && !sw.partial;
    out.status = xbfs::Status::Ok();
    if (sw.partial) {
      out.status = xbfs::Status::Unavailable(
          std::to_string(sw.shards_lost) +
          " shard(s) had no healthy replica; their vertex ranges report "
          "-1");
      partial_queries_.fetch_add(1, std::memory_order_relaxed);
      if (mx.enabled()) mx.counter("serve.partial").add();
    }
    return true;
  }
  return false;
}

void Server::deliver_unit(const DispatchKey& key, const Resolution& res,
                          QueryMap& by_key, double dispatch_us,
                          unsigned batch_size,
                          const obs::QueryTrace* batch_log) {
  auto waiters = by_key.find(key);
  if (waiters == by_key.end()) return;
  const double complete_us = wall_us();

  bool published = false;
  if (res.res) {
    computed_sources_.fetch_add(1, std::memory_order_relaxed);
    // Publish before resolving waiters so a submit racing with completion
    // can already hit.  When validation is active only validated results
    // are cacheable — a corrupted entry must never outlive its query — and
    // a partial result must not outlive the shard loss that caused it.
    const bool publish =
        (!validation_active() || res.validated) && !res.partial;
    bool wanted = false;
    for (const PendingQuery& p : waiters->second) wanted |= !p.bypass_cache;
    // Keyed under the fingerprint of the graph that actually produced the
    // result; on a dynamic server that may trail the live fingerprint, in
    // which case the entry is unreachable (and purged on the next bump)
    // rather than served stale.
    if (publish && wanted) {
      cache_.put(res.fp, key.algo, key.phash, key.source, res.res);
      published = true;
    }
  }

  for (PendingQuery& p : waiters->second) {
    if (p.trace) {
      // Batch-shared work first (sweep attempts), then this unit's own
      // resolution log; wall clocks keep the merged record ordered.
      if (batch_log != nullptr) p.trace->absorb(*batch_log);
      if (res.log != nullptr) p.trace->absorb(*res.log);
      if (published) {
        p.trace->event(complete_us, "cache_publish",
                       "fp=" + std::to_string(res.fp));
      }
    }
    QueryResult r;
    r.id = p.id;
    r.algo = key.algo;
    r.source = p.source;
    r.batch_size = batch_size;
    r.gcd = res.gcd;
    r.engine = res.engine;
    r.attempts = res.attempts;
    r.degraded = res.degraded;
    r.validated = res.validated;
    r.error = res.status;  // failure, or the Unavailable detail of a partial
    r.shards_lost = res.shards_lost;
    r.partial = res.partial;
    r.queue_ms = (dispatch_us - p.enqueue_us) / 1000.0;
    r.service_ms = (complete_us - dispatch_us) / 1000.0;
    r.total_ms = (complete_us - p.enqueue_us) / 1000.0;
    if (res.res) {
      r.status = QueryStatus::Completed;
      r.payload = res.res;
      r.levels = res.res.levels;
      r.depth = res.res.depth;
      if (res.degraded) {
        degraded_queries_.fetch_add(1, std::memory_order_relaxed);
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
      record_latency(r);
    } else {
      r.status = QueryStatus::Failed;
      failed_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
      if (mx.enabled()) mx.counter("serve.failed").add();
    }
    finish_query(std::move(p), std::move(r));
  }
}

void Server::run_batch(unsigned worker,
                       const std::vector<graph::vid_t>& batch,
                       QueryMap& by_key, double dispatch_us) {
  const bool singleton = batch.size() == 1;
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  if (singleton) singleton_sweeps_.fetch_add(1, std::memory_order_relaxed);

  const bool validate = validation_active();
  std::vector<Resolution> outcomes(batch.size());
  double modelled_ms = 0.0;
  bool solved = false;
  unsigned sweep_attempts = 0;

  // Batch-shared scratch trace: sweep-stage events and attribution,
  // absorbed into every member's QueryTrace at delivery (shared_members
  // marks work amortized across the whole batch).
  obs::QueryTracePtr batch_log;
  if (cfg_.query_tracing && !singleton) {
    batch_log = std::make_shared<obs::QueryTrace>(0, batch[0]);
  }

  if (!singleton) {
    // Stage 1: the shared 64-way sweep, retried across healthy GCDs.  One
    // corrupted or faulted attempt fails the whole unit; per-source
    // resolution below is the degradation path.
    const auto members = static_cast<unsigned>(batch.size());
    xbfs::Status sweep_failure;  // per-source resolution reports its own
    while (sweep_attempts < cfg_.max_attempts) {
      const unsigned g = health_.pick(worker, wall_us());
      if (g == HealthTracker::kNone) break;
      if (g != worker) rerouted_.fetch_add(1, std::memory_order_relaxed);
      Gcd& gcd = *gcds_[g];
      const Touched on[] = {{g, gcd.dev.get()}};
      Attempt a{.on = on, .home = g, .engine = "sweep", .shared = members,
                .log = batch_log.get(), .dispatch_us = dispatch_us};
      if (batch_log) {
        a.resolved = "engine=sweep gcd=" + std::to_string(g);
        a.attempt = a.resolved + " members=" + std::to_string(members);
      }
      algos::MultiBfsResult r;
      const bool ok = attempt(
          a, sweep_attempts, sweep_failure,
          [&] { return std::unique_lock(gcd.mu); },
          [&] { r = algos::multi_source_bfs(*gcd.dev, gcd.dg, batch); },
          [&](std::uint64_t copies) {
            // The modelled copy moved no real bytes; realize the corruption
            // on one deterministic source's levels so validation sees it.
            sim::FaultInjector::global().corrupt_levels(
                r.levels[copies % batch.size()]);
            return true;
          },
          [&]() -> std::optional<std::string> {
            if (!validate) return std::nullopt;
            std::string verr;
            for (std::size_t i = 0; i < batch.size() && verr.empty(); ++i) {
              verr = graph::validate_levels_graph500(*host_g_, batch[i],
                                                     r.levels[i]);
            }
            return verr;
          });
      if (!ok) continue;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        std::int32_t max_level = 0;
        for (const std::int32_t lv : r.levels[i]) {
          max_level = std::max(max_level, lv);
        }
        Resolution& o = outcomes[i];
        o.res.kind = core::AlgoKind::Bfs;
        o.res.levels = std::make_shared<const std::vector<std::int32_t>>(
            std::move(r.levels[i]));
        // Same convention as every TraversalEngine: number of BFS levels
        // run, i.e. deepest reached level + 1.
        o.res.depth = static_cast<std::uint32_t>(max_level) + 1;
        o.engine = "sweep";
        o.attempts = sweep_attempts;
        o.gcd = g;
        o.validated = validate;
        o.status = xbfs::Status::Ok();
        o.fp = graph_fp_.load(std::memory_order_acquire);
      }
      modelled_ms += r.total_ms;
      solved = true;
      break;
    }
  }

  if (!solved) {
    // Stage 2: per-source resolution through the BFS engine ladder (also
    // the normal path for singleton batches, where ladder[0] is exactly
    // the pre-resilience adaptive Xbfs run).
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const DispatchKey key{core::AlgoKind::Bfs, bfs_phash_, batch[i]};
      const auto w = by_key.find(key);
      const QueryId primary =
          (w != by_key.end() && !w->second.empty()) ? w->second.front().id
                                                    : 0;
      core::AlgoQuery q;
      q.algo = core::AlgoKind::Bfs;
      q.source = batch[i];
      outcomes[i] = resolve_query(worker, q, sweep_attempts, dispatch_us,
                                  primary);
      modelled_ms += outcomes[i].modelled_ms;
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    deliver_unit(DispatchKey{core::AlgoKind::Bfs, bfs_phash_, batch[i]},
                 outcomes[i], by_key, dispatch_us,
                 static_cast<unsigned>(batch.size()), batch_log.get());
  }

  {
    std::lock_guard<sim::RankedMutex> lk(agg_mu_);
    occupancy_sum_ += static_cast<double>(batch.size()) / cfg_.max_batch;
    sources_per_sweep_sum_ += static_cast<double>(batch.size());
    modelled_busy_ms_ += modelled_ms;
  }
  if (modelled_ms > 0.0) modelled_ms_.observe(modelled_ms);
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.histogram("serve.batch_occupancy")
        .observe(static_cast<double>(batch.size()) / cfg_.max_batch);
    mx.counter("serve.sweeps").add();
  }
}

void Server::run_algo(unsigned worker, const DispatchKey& key,
                      QueryMap& by_key, double dispatch_us) {
  algo_dispatches_.fetch_add(1, std::memory_order_relaxed);
  const auto w = by_key.find(key);
  if (w == by_key.end() || w->second.empty()) return;
  // The dedup representative: every waiter under this key agrees on
  // (algo, params-hash, source), so the front query stands for all.
  const core::AlgoQuery q = w->second.front().query;
  const QueryId primary = w->second.front().id;

  Resolution res = resolve_query(worker, q, 0, dispatch_us, primary);
  {
    std::lock_guard<sim::RankedMutex> lk(agg_mu_);
    modelled_busy_ms_ += res.modelled_ms;
  }
  if (res.modelled_ms > 0.0) modelled_ms_.observe(res.modelled_ms);
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("serve.algo_dispatches").add();
  deliver_unit(key, res, by_key, dispatch_us, /*batch_size=*/1, nullptr);
}

void Server::complete_expired(PendingQuery&& p, double now_us) {
  QueryResult r;
  r.id = p.id;
  r.algo = p.query.algo;
  r.source = p.source;
  r.status = QueryStatus::Expired;
  r.queue_ms = (now_us - p.enqueue_us) / 1000.0;
  r.total_ms = r.queue_ms;
  expired_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("serve.expired").add();
  finish_query(std::move(p), std::move(r));
}

void Server::complete_from_cache(PendingQuery&& p, CachedResult hit,
                                 double now_us) {
  QueryResult r;
  r.id = p.id;
  r.algo = p.query.algo;
  r.source = p.source;
  r.status = QueryStatus::Completed;
  r.depth = hit.depth;
  r.levels = hit.levels;
  r.payload = std::move(hit);
  r.cache_hit = true;
  r.queue_ms = (now_us - p.enqueue_us) / 1000.0;
  r.total_ms = r.queue_ms;
  if (p.trace) {
    p.trace->event(now_us, "cache_hit", "depth=" + std::to_string(r.depth));
  }
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  cache_hits_by_algo_[static_cast<std::size_t>(p.query.algo)].fetch_add(
      1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  record_latency(r);
  finish_query(std::move(p), std::move(r));
}

void Server::finish_query(PendingQuery&& p, QueryResult&& r) {
  if (p.trace != nullptr) r.trace = p.trace;
  r.shards = sharded_ ? sharded_->shards() : 0;
  note_terminal(r);
  {
    std::lock_guard<sim::RankedMutex> lk(inflight_mu_);
    inflight_.erase(p.id);
  }
  p.promise.set_value(std::move(r));
  retire_one();
}

void Server::note_terminal(QueryResult& r) {
  const bool ok = r.status == QueryStatus::Completed;
  // Cache hits and expiries never touched a device lane: r.batch_size is
  // 0 exactly when no traversal ran, and an out-of-range lane attributes
  // to the scope aggregate only.
  const unsigned lane = r.batch_size > 0 ? r.gcd : health_.num_slots();
  if (slo_ != nullptr) {
    slo_->record(lane, ok, r.total_ms, obs::slo_now_ms());
  }
  if (obs::SloScope* ks = slo_by_algo_[static_cast<std::size_t>(r.algo)]) {
    ks->record(lane, ok, r.total_ms, obs::slo_now_ms());
  }
  const char* status = query_status_name(r.status);
  if (r.trace != nullptr) {
    traced_.fetch_add(1, std::memory_order_relaxed);
    std::string detail = "total_ms=" + fmt_double(r.total_ms);
    if (!r.engine.empty()) detail += " engine=" + r.engine;
    if (r.cache_hit) detail += " cache_hit=1";
    if (r.shards_lost > 0) {
      detail += " shards_lost=" + std::to_string(r.shards_lost);
    }
    if (!ok && !r.error.ok()) detail += " error=" + r.error.to_string();
    r.trace->event(wall_us(), status, std::move(detail));
    obs::TraceSession& tr = obs::TraceSession::global();
    if (tr.enabled()) obs::emit_query_spans(tr, *r.trace, status);
  }
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  if (fr.enabled()) {
    fr.record("serve",
              ok ? "query_completed"
                 : r.status == QueryStatus::Expired ? "query_expired"
                                                    : "query_failed",
              r.engine, r.id, r.gcd);
    // Post-mortem dumps on the escalations worth a snapshot: a query that
    // exhausted its resilience budget, and a deadline miss.
    if (r.status == QueryStatus::Failed) fr.trigger("query_failed");
    if (r.status == QueryStatus::Expired) fr.trigger("deadline_miss");
  }
}

std::string Server::flight_context_json() const {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("scope", cfg_.slo_scope);
  w.kv("queue_depth", static_cast<std::uint64_t>(queue_.size()));
  w.kv("queue_capacity", static_cast<std::uint64_t>(queue_.capacity()));
  w.kv("accepted", accepted_.load(std::memory_order_relaxed));
  w.kv("retired", retired_.load(std::memory_order_relaxed));
  w.kv("graph_fp", graph_fp_.load(std::memory_order_acquire));
  w.key("breakers").begin_array();
  for (unsigned i = 0; i < health_.num_slots(); ++i) {
    w.value(breaker_state_name(health_.state(i)));
  }
  w.end_array();
  w.key("inflight").begin_array();
  {
    std::lock_guard<sim::RankedMutex> lk(inflight_mu_);
    std::size_t emitted = 0;
    for (const QueryId id : inflight_) {
      if (++emitted > 64) break;  // cap the dump; the depth is above
      w.value(static_cast<std::uint64_t>(id));
    }
  }
  w.end_array();
  w.end_object();
  return os.str();
}

void Server::retire_one() {
  // The empty critical section orders the increment against drain()'s
  // predicate check, so the final retirement can't slip between a
  // drainer's check and its wait (lost wakeup).
  retired_.fetch_add(1, std::memory_order_release);
  { std::lock_guard<sim::RankedMutex> lk(drain_mu_); }
  drain_cv_.notify_all();
}

void Server::record_latency(const QueryResult& r) {
  latency_ms_.observe(r.total_ms);
  queue_ms_.observe(r.queue_ms);
  const auto kidx = static_cast<std::size_t>(r.algo);
  if (kidx < core::kNumAlgoKinds) {
    latency_by_algo_[kidx].observe(r.total_ms);
    completed_by_algo_[kidx].fetch_add(1, std::memory_order_relaxed);
  }
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.histogram("serve.latency_ms").observe(r.total_ms);
    mx.histogram("serve.queue_ms").observe(r.queue_ms);
    mx.counter("serve.completed").add();
    if (r.cache_hit) mx.counter("serve.cache_hits").add();
  }
}

void Server::drain() {
  if (cfg_.manual_dispatch) {
    while (retired_.load(std::memory_order_acquire) <
           accepted_.load(std::memory_order_acquire)) {
      if (dispatch_once() == 0) std::this_thread::yield();
    }
    return;
  }
  std::unique_lock<sim::RankedMutex> lk(drain_mu_);
  drain_cv_.wait(lk, [&] {
    return retired_.load(std::memory_order_acquire) >=
           accepted_.load(std::memory_order_acquire);
  });
}

void Server::shutdown() {
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.close();
  if (scheduler_.joinable()) {
    scheduler_.join();
  } else {
    // Manual mode: retire whatever is still queued.
    while (dispatch_once() != 0) {
    }
  }
  // The context provider captures `this`; drop it before the members it
  // samples go away.
  if (flight_ctx_ != 0) {
    obs::FlightRecorder::global().unregister_context(flight_ctx_);
    flight_ctx_ = 0;
  }
  emit_summary();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.dispatch_cycles = dispatch_cycles_.load(std::memory_order_relaxed);
  s.sweeps = sweeps_.load(std::memory_order_relaxed);
  s.singleton_sweeps = singleton_sweeps_.load(std::memory_order_relaxed);
  s.algo_dispatches = algo_dispatches_.load(std::memory_order_relaxed);
  s.computed_sources = computed_sources_.load(std::memory_order_relaxed);

  s.failed = failed_.load(std::memory_order_relaxed);
  s.faults_seen = faults_seen_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.validation_failures =
      validation_failures_.load(std::memory_order_relaxed);
  s.validated_results = validated_results_.load(std::memory_order_relaxed);
  s.degraded_queries = degraded_queries_.load(std::memory_order_relaxed);
  s.host_fallbacks = host_fallbacks_.load(std::memory_order_relaxed);
  s.dispatch_timeouts = dispatch_timeouts_.load(std::memory_order_relaxed);
  s.rerouted = rerouted_.load(std::memory_order_relaxed);
  const HealthTracker::Counters hc = health_.counters();
  s.breaker_opens = hc.opens;
  s.breaker_half_opens = hc.half_opens;
  s.breaker_closes = hc.closes;

  s.updates_submitted = updates_submitted_.load(std::memory_order_relaxed);
  s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  s.updates_expired = updates_expired_.load(std::memory_order_relaxed);
  s.update_edges_applied =
      update_edges_applied_.load(std::memory_order_relaxed);
  s.update_noops = update_noops_.load(std::memory_order_relaxed);
  s.updates_rejected_durability =
      updates_rejected_durability_.load(std::memory_order_relaxed);
  s.recovery_stale_rejected =
      recovery_stale_rejected_.load(std::memory_order_relaxed);
  if (store_) {
    s.graph_epoch = store_->epoch();
    s.compactions = store_->stats().compactions;
    if (const dyn::DurabilityHook* hook = store_->durability()) {
      const dyn::DurabilityStats ds = hook->stats();
      s.durable = true;
      s.wal_appends = ds.wal_appends;
      s.wal_append_failures = ds.wal_append_failures;
      s.wal_fsync_failures = ds.fsync_failures;
      s.wal_bytes = ds.wal_bytes;
      s.snapshots_spilled = ds.snapshots_spilled;
      s.wal_rotations = ds.wal_rotations;
      s.last_durable_epoch = ds.last_durable_epoch;
      s.recovered = ds.recovered;
      s.recovery_torn_tail = ds.torn_tail_detected;
      s.recovered_epoch = ds.recovered_epoch;
      s.recovery_replayed = ds.wal_records_replayed;
      s.recovery_truncated_bytes = ds.wal_bytes_truncated;
    }
    for (const auto& gp : gcds_) {
      if (gp->inc) {
        const dyn::DynEngineStats es = gp->inc->stats();
        s.repairs += es.repairs;
        s.recomputes += es.recomputes;
        s.repair_fallbacks += es.fallbacks_ratio + es.fallbacks_log;
      }
      if (gp->inc_cc) {
        const dyn::IncCcStats cs = gp->inc_cc->stats();
        s.repairs += cs.repairs;
        s.recomputes += cs.recomputes;
        s.repair_fallbacks += cs.fallbacks_delete + cs.fallbacks_log;
      }
    }
  }

  const ResultCache::Stats cs = cache_.stats();
  s.cache_evictions = cs.evictions;
  s.cache_entries = cs.entries;
  s.cache_epoch_bumps = cs.epoch_bumps;
  s.cache_purged_stale = cs.purged_stale;
  s.cache_stale_hits_avoided = cs.stale_hits_avoided;
  s.cache_hit_rate =
      s.completed == 0
          ? 0.0
          : static_cast<double>(s.cache_hits) / static_cast<double>(s.completed);

  {
    std::lock_guard<sim::RankedMutex> lk(agg_mu_);
    s.mean_batch_occupancy = s.sweeps == 0 ? 0.0 : occupancy_sum_ / s.sweeps;
    s.mean_sources_per_sweep =
        s.sweeps == 0 ? 0.0 : sources_per_sweep_sum_ / s.sweeps;
    s.modelled_busy_ms = modelled_busy_ms_;
  }

  if (sharded_) {
    s.shards = sharded_->shards();
    s.replicas = sharded_->replicas();
  }
  s.partial_queries = partial_queries_.load(std::memory_order_relaxed);
  s.lost_shard_events = lost_shard_events_.load(std::memory_order_relaxed);
  s.unavailable_failures =
      unavailable_failures_.load(std::memory_order_relaxed);
  s.levels_swept = levels_swept_.load(std::memory_order_relaxed);
  s.two_phase_levels = two_phase_levels_.load(std::memory_order_relaxed);
  s.exchange_raw_bytes = exchange_raw_bytes_.load(std::memory_order_relaxed);
  s.exchange_wire_bytes =
      exchange_wire_bytes_.load(std::memory_order_relaxed);
  s.compression_ratio =
      s.exchange_wire_bytes == 0
          ? 0.0
          : static_cast<double>(s.exchange_raw_bytes) /
                static_cast<double>(s.exchange_wire_bytes);

  s.traced_queries = traced_.load(std::memory_order_relaxed);
  s.slo_proactive_degrades =
      slo_proactive_degrades_.load(std::memory_order_relaxed);
  if (slo_ != nullptr) s.slo = slo_->snapshot(obs::slo_now_ms());

  s.wall_elapsed_ms = wall_us() / 1000.0;
  s.qps = s.wall_elapsed_ms <= 0.0
              ? 0.0
              : static_cast<double>(s.completed) / (s.wall_elapsed_ms / 1000.0);

  for (std::size_t k = 0; k < core::kNumAlgoKinds; ++k) {
    AlgoClassStats& a = s.per_algo[k];
    a.submitted = submitted_by_algo_[k].load(std::memory_order_relaxed);
    a.completed = completed_by_algo_[k].load(std::memory_order_relaxed);
    a.cache_hits = cache_hits_by_algo_[k].load(std::memory_order_relaxed);
    a.queued =
        queue_.class_counters(static_cast<core::AlgoKind>(k)).depth;
    a.latency_p50_ms = latency_by_algo_[k].percentile(0.50);
    a.latency_p99_ms = latency_by_algo_[k].percentile(0.99);
    a.qps = s.wall_elapsed_ms <= 0.0
                ? 0.0
                : static_cast<double>(a.completed) /
                      (s.wall_elapsed_ms / 1000.0);
  }

  s.latency_p50_ms = latency_ms_.percentile(0.50);
  s.latency_p95_ms = latency_ms_.percentile(0.95);
  s.latency_p99_ms = latency_ms_.percentile(0.99);
  s.latency_mean_ms = latency_ms_.mean();
  s.latency_max_ms = latency_ms_.max();
  s.queue_p50_ms = queue_ms_.percentile(0.50);
  s.queue_p99_ms = queue_ms_.percentile(0.99);
  s.modelled_p50_ms = modelled_ms_.percentile(0.50);
  s.modelled_p99_ms = modelled_ms_.percentile(0.99);
  return s;
}

void Server::emit_summary() {
  const ServerStats st = stats();
  std::string slo_gcd_burns;
  for (const obs::SloWindow& wnd : st.slo.per_gcd) {
    if (!slo_gcd_burns.empty()) slo_gcd_burns += ",";
    slo_gcd_burns += fmt_double(wnd.burn_rate);
  }
  std::string algo_list;
  for (const core::AlgoKind k : cfg_.algos) {
    if (!algo_list.empty()) algo_list += ",";
    algo_list += core::algo_kind_name(k);
  }

  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.gauge("serve.qps").set(st.qps);
    mx.gauge("serve.cache_hit_rate").set(st.cache_hit_rate);
    mx.gauge("serve.batch_occupancy").set(st.mean_batch_occupancy);
    mx.gauge("serve.breaker_opens").set(static_cast<double>(st.breaker_opens));
    mx.gauge("serve.retries").set(static_cast<double>(st.retries));
    if (sharded_) {
      mx.gauge("serve.compression_ratio").set(st.compression_ratio);
    }
  }

  obs::ReportSession& rs = obs::ReportSession::global();
  if (!rs.enabled()) return;
  obs::RunRecord r;
  r.tool = "serve";
  // The historical record name for BFS-only servers; mixed-family servers
  // say so (run-report consumers key off `tool` either way).
  r.algorithm =
      cfg_.algos.size() == 1 && cfg_.algos[0] == core::AlgoKind::Bfs
          ? "bfs-serving"
          : "family-serving";
  if (store_) {
    const dyn::Snapshot snap = store_->snapshot();
    r.n = snap.graph->num_vertices();
    r.m = snap.graph->num_edges();
  } else {
    r.n = host_g_->num_vertices();
    r.m = host_g_->num_edges();
  }
  r.source = -1;
  r.total_ms = st.wall_elapsed_ms;
  r.config = {
      {"num_gcds", std::to_string(cfg_.num_gcds)},
      {"max_batch", std::to_string(cfg_.max_batch)},
      {"queue_capacity", std::to_string(cfg_.queue_capacity)},
      {"cache_capacity", std::to_string(cfg_.cache_capacity)},
      {"algos", algo_list},
      {"submitted", std::to_string(st.submitted)},
      {"accepted", std::to_string(st.accepted)},
      {"completed", std::to_string(st.completed)},
      {"expired", std::to_string(st.expired)},
      {"rejected_full", std::to_string(st.rejected_full)},
      {"rejected_invalid", std::to_string(st.rejected_invalid)},
      {"rejected_shutdown", std::to_string(st.rejected_shutdown)},
      {"cache_hits", std::to_string(st.cache_hits)},
      {"cache_hit_rate", fmt_double(st.cache_hit_rate)},
      {"cache_evictions", std::to_string(st.cache_evictions)},
      {"sweeps", std::to_string(st.sweeps)},
      {"singleton_sweeps", std::to_string(st.singleton_sweeps)},
      {"algo_dispatches", std::to_string(st.algo_dispatches)},
      {"computed_sources", std::to_string(st.computed_sources)},
      {"batch_occupancy", fmt_double(st.mean_batch_occupancy)},
      {"sources_per_sweep", fmt_double(st.mean_sources_per_sweep)},
      {"qps", fmt_double(st.qps)},
      {"p50_ms", fmt_double(st.latency_p50_ms)},
      {"p95_ms", fmt_double(st.latency_p95_ms)},
      {"p99_ms", fmt_double(st.latency_p99_ms)},
      {"mean_ms", fmt_double(st.latency_mean_ms)},
      {"max_ms", fmt_double(st.latency_max_ms)},
      {"queue_p50_ms", fmt_double(st.queue_p50_ms)},
      {"queue_p99_ms", fmt_double(st.queue_p99_ms)},
      {"modelled_busy_ms", fmt_double(st.modelled_busy_ms)},
      {"modelled_p50_ms", fmt_double(st.modelled_p50_ms)},
      {"modelled_p99_ms", fmt_double(st.modelled_p99_ms)},
      {"wall_elapsed_ms", fmt_double(st.wall_elapsed_ms)},
      {"failed", std::to_string(st.failed)},
      {"faults_seen", std::to_string(st.faults_seen)},
      {"retries", std::to_string(st.retries)},
      {"validation_failures", std::to_string(st.validation_failures)},
      {"validated_results", std::to_string(st.validated_results)},
      {"degraded_queries", std::to_string(st.degraded_queries)},
      {"host_fallbacks", std::to_string(st.host_fallbacks)},
      {"dispatch_timeouts", std::to_string(st.dispatch_timeouts)},
      {"rerouted", std::to_string(st.rerouted)},
      {"breaker_opens", std::to_string(st.breaker_opens)},
      {"breaker_half_opens", std::to_string(st.breaker_half_opens)},
      {"breaker_closes", std::to_string(st.breaker_closes)},
      {"max_attempts", std::to_string(cfg_.max_attempts)},
      {"host_fallback", cfg_.host_fallback ? "1" : "0"},
      {"dynamic", dynamic() ? "1" : "0"},
      {"updates_applied", std::to_string(st.updates_applied)},
      {"updates_expired", std::to_string(st.updates_expired)},
      {"update_edges_applied", std::to_string(st.update_edges_applied)},
      {"update_noops", std::to_string(st.update_noops)},
      {"graph_epoch", std::to_string(st.graph_epoch)},
      {"compactions", std::to_string(st.compactions)},
      {"cache_epoch_bumps", std::to_string(st.cache_epoch_bumps)},
      {"cache_purged_stale", std::to_string(st.cache_purged_stale)},
      {"cache_stale_hits_avoided",
       std::to_string(st.cache_stale_hits_avoided)},
      {"repairs", std::to_string(st.repairs)},
      {"recomputes", std::to_string(st.recomputes)},
      {"repair_fallbacks", std::to_string(st.repair_fallbacks)},
      {"durable", st.durable ? "1" : "0"},
      {"wal_appends", std::to_string(st.wal_appends)},
      {"wal_append_failures", std::to_string(st.wal_append_failures)},
      {"wal_fsync_failures", std::to_string(st.wal_fsync_failures)},
      {"snapshots_spilled", std::to_string(st.snapshots_spilled)},
      {"wal_rotations", std::to_string(st.wal_rotations)},
      {"last_durable_epoch", std::to_string(st.last_durable_epoch)},
      {"updates_rejected_durability",
       std::to_string(st.updates_rejected_durability)},
      {"recovered", st.recovered ? "1" : "0"},
      {"recovery_torn_tail", st.recovery_torn_tail ? "1" : "0"},
      {"recovered_epoch", std::to_string(st.recovered_epoch)},
      {"recovery_replayed", std::to_string(st.recovery_replayed)},
      {"recovery_truncated_bytes",
       std::to_string(st.recovery_truncated_bytes)},
      {"recovery_stale_rejected",
       std::to_string(st.recovery_stale_rejected)},
      {"query_tracing", cfg_.query_tracing ? "1" : "0"},
      {"traced_queries", std::to_string(st.traced_queries)},
      {"slo_scope", cfg_.slo_scope},
      {"slo_active", st.slo.active ? "1" : "0"},
      {"slo_good", std::to_string(st.slo.total_good)},
      {"slo_bad", std::to_string(st.slo.total_bad)},
      {"slo_slow", std::to_string(st.slo.total_slow)},
      {"slo_budget_remaining", fmt_double(st.slo.budget_remaining)},
      {"slo_budget_exhausted", st.slo.budget_exhausted ? "1" : "0"},
      {"slo_window_burn", fmt_double(st.slo.window.burn_rate)},
      {"slo_gcd_burns", slo_gcd_burns},
      {"slo_proactive_degrades",
       std::to_string(st.slo_proactive_degrades)},
      {"flight_dumps",
       std::to_string(obs::FlightRecorder::global().dumps())},
  };
  if (sharded_) {
    const shard::ShardMemoryReport mem = sharded_->memory_report();
    const std::pair<const char*, std::string> sharded_cols[] = {
        {"shards", std::to_string(st.shards)},
        {"replicas", std::to_string(st.replicas)},
        {"grid_rows", std::to_string(sharded_->layout().grid_rows())},
        {"grid_cols", std::to_string(sharded_->layout().grid_cols())},
        {"budget_bytes", std::to_string(mem.budget_bytes)},
        {"single_device_bytes", std::to_string(mem.single_device_bytes)},
        {"max_shard_bytes", std::to_string(mem.max_shard_bytes)},
        {"oversubscription", fmt_double(mem.oversubscription)},
        {"serving_fingerprint", std::to_string(graph_fingerprint())},
        {"partial_queries", std::to_string(st.partial_queries)},
        {"lost_shard_events", std::to_string(st.lost_shard_events)},
        {"unavailable_failures", std::to_string(st.unavailable_failures)},
        {"levels_swept", std::to_string(st.levels_swept)},
        {"two_phase_levels", std::to_string(st.two_phase_levels)},
        {"exchange_raw_bytes", std::to_string(st.exchange_raw_bytes)},
        {"exchange_wire_bytes", std::to_string(st.exchange_wire_bytes)},
        {"compression_ratio", fmt_double(st.compression_ratio)},
    };
    for (const auto& [k, v] : sharded_cols) r.config.emplace_back(k, v);
  }
  // Per-kind serving columns, one block per served algorithm.
  for (const core::AlgoKind k : cfg_.algos) {
    const AlgoClassStats& a = st.per_algo[static_cast<std::size_t>(k)];
    const std::string p = core::algo_kind_name(k);
    r.config.emplace_back(p + "_submitted", std::to_string(a.submitted));
    r.config.emplace_back(p + "_completed", std::to_string(a.completed));
    r.config.emplace_back(p + "_cache_hits", std::to_string(a.cache_hits));
    r.config.emplace_back(p + "_p50_ms", fmt_double(a.latency_p50_ms));
    r.config.emplace_back(p + "_p99_ms", fmt_double(a.latency_p99_ms));
    r.config.emplace_back(p + "_qps", fmt_double(a.qps));
  }
  rs.add(std::move(r));
}

}  // namespace xbfs::serve
