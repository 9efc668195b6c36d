// SLO / error-budget engine for the serving stack.
//
// An SLO is a sliding-window objective over query outcomes: an
// availability target (fraction of queries that must terminate
// Completed) and, optionally, a latency target (completed queries
// slower than latency_ms at the configured percentile count against the
// budget too).  The engine tracks, per named scope (one per serving
// engine instance) and per GCD lane inside it:
//
//   * a bucketed sliding window (window_ms / buckets) of good / bad /
//     slow outcomes, from which the current availability and the
//     error-budget *burn rate* are derived — burn 1.0 means the budget
//     is being consumed exactly as fast as the objective allows,
//     burn >> 1 means an incident;
//   * lifetime totals, from which the cumulative budget_remaining is
//     derived (1.0 = untouched, <= 0 = exhausted).
//
// burn_rate = (bad + slow fraction of the window) / (1 - availability
// objective).  The degradation ladder consults prefer_cheap(): when the
// window burn exceeds burn_fast or the lifetime budget is exhausted, the
// server starts queries on a cheaper rung proactively instead of
// spending device attempts it can no longer afford.
//
// Enabled by XBFS_SLO=<spec>, e.g.
//   XBFS_SLO="availability=0.999,latency_ms=50,window_ms=60000"
// Scopes snapshot their config at creation; record()/snapshot() take the
// caller's clock (slo_now_ms() for production, explicit values in tests).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xbfs::obs {

struct SloConfig {
  double availability = 0.999;  ///< objective: fraction of good outcomes
  double latency_ms = 0.0;      ///< 0 = no latency objective
  double window_ms = 60000.0;   ///< sliding-window span
  unsigned buckets = 12;        ///< window granularity
  double burn_fast = 1.0;       ///< prefer_cheap when window burn >= this

  /// Parse "k=v,k=v" (unknown keys ignored; malformed values keep
  /// defaults).  Keys: availability, latency_ms, window_ms, buckets,
  /// burn_fast.
  static SloConfig parse(const std::string& spec);
};

/// Window (or lifetime) aggregate for one lane.
struct SloWindow {
  std::uint64_t good = 0;
  std::uint64_t bad = 0;   ///< failed / expired outcomes
  std::uint64_t slow = 0;  ///< completed but over the latency objective
  double availability = 1.0;
  double burn_rate = 0.0;
};

struct SloSnapshot {
  bool active = false;
  SloConfig cfg;
  std::uint64_t total_good = 0;
  std::uint64_t total_bad = 0;
  std::uint64_t total_slow = 0;
  /// Fraction of the lifetime error budget left; < 0 = overspent.
  double budget_remaining = 1.0;
  bool budget_exhausted = false;
  SloWindow window;               ///< all lanes combined
  std::vector<SloWindow> per_gcd;
  /// Human-readable lane names (same indexing as per_gcd; empty string for
  /// unlabeled lanes).  A sharded server labels its per-shard-replica
  /// lanes "s<shard>r<replica>" so burn-rate dashboards name the replica,
  /// not a flat slot index.
  std::vector<std::string> lane_labels;
};

/// One named objective scope (e.g. "serve", "serve-chaos") with per-GCD
/// lanes.  Thread-safe.
class SloScope {
 public:
  SloScope(std::string name, SloConfig cfg, unsigned num_gcds);

  SloScope(const SloScope&) = delete;
  SloScope& operator=(const SloScope&) = delete;

  const std::string& name() const { return name_; }
  const SloConfig& config() const { return cfg_; }

  /// Record one terminal outcome.  `gcd` >= num_gcds attributes to the
  /// aggregate only (cache hits / expiries with no device lane).
  /// `latency_ms` only matters for ok outcomes under a latency objective.
  void record(unsigned gcd, bool ok, double latency_ms, double now_ms);

  SloSnapshot snapshot(double now_ms) const;

  /// Should the dispatcher proactively take a cheaper rung right now?
  bool prefer_cheap(double now_ms) const;

  /// Grow the per-GCD lane count (scopes are shared across servers).
  void ensure_gcds(unsigned num_gcds);

  /// Name a lane (grows the lane list if needed); names ride along in
  /// SloSnapshot::lane_labels.
  void label_lane(unsigned lane, std::string label);

 private:
  struct Bucket {
    std::int64_t epoch = -1;  ///< bucket index this slot currently holds
    std::uint64_t good = 0, bad = 0, slow = 0;
  };
  struct Lane {
    std::vector<Bucket> buckets;
    std::uint64_t total_good = 0, total_bad = 0, total_slow = 0;
  };

  void record_lane(Lane& lane, bool ok, bool slow, std::int64_t epoch);
  SloWindow window_of(const Lane& lane, std::int64_t epoch) const;
  double bucket_ms() const { return cfg_.window_ms / cfg_.buckets; }

  const std::string name_;
  const SloConfig cfg_;
  mutable std::mutex mu_;
  Lane all_;
  std::vector<std::unique_ptr<Lane>> gcds_;
  std::vector<std::string> lane_labels_;  ///< sparse; sized on label_lane()
};

class SloEngine {
 public:
  /// Process-wide engine; reads XBFS_SLO on first use.
  static SloEngine& global();

  SloEngine();

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void configure(const SloConfig& cfg);
  void configure(const std::string& spec) { configure(SloConfig::parse(spec)); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  SloConfig config() const;

  /// Create-or-get a named scope (config snapshotted from the engine at
  /// creation; an existing scope grows its lanes to `num_gcds`).  The
  /// reference stays valid for the engine's lifetime.
  SloScope& scope(const std::string& name, unsigned num_gcds);
  /// Names of all scopes created so far.
  std::vector<std::string> scope_names() const;
  /// Existing scope or nullptr.
  SloScope* find(const std::string& name) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  SloConfig cfg_;
  std::map<std::string, std::unique_ptr<SloScope>> scopes_;
};

/// Monotonic milliseconds shared by every SLO call site in the process —
/// scopes are shared across server instances, so the clock must be too.
double slo_now_ms();

}  // namespace xbfs::obs
