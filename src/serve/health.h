// Per-GCD health tracking with a circuit breaker, the serving engine's
// defence against a persistently faulty device.
//
// Each GCD slot runs the classic three-state breaker:
//
//   Closed ----(failures >= threshold)----> Open
//   Open   ----(cooldown elapsed)---------> HalfOpen (one probe allowed)
//   HalfOpen --(probe succeeds)-----------> Closed
//   HalfOpen --(probe fails)--------------> Open (cooldown restarts)
//
// The dispatcher asks allow(gcd) before routing work to a device and
// reports record_success / record_failure afterwards; pick() finds a
// healthy GCD, preferring the caller's own lane so a fault-free server
// keeps its exact pre-resilience routing.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace xbfs::serve {

enum class BreakerState { Closed, Open, HalfOpen };

const char* breaker_state_name(BreakerState s);

struct BreakerConfig {
  /// Consecutive failures that trip a Closed breaker.
  unsigned failure_threshold = 3;
  /// How long an Open breaker rejects work before probing again.
  double cooldown_ms = 25.0;
};

class HealthTracker {
 public:
  static constexpr unsigned kNone = ~0u;

  HealthTracker(unsigned num_slots, BreakerConfig cfg);

  HealthTracker(const HealthTracker&) = delete;
  HealthTracker& operator=(const HealthTracker&) = delete;

  /// May work be routed to this slot right now?  An Open breaker whose
  /// cooldown has elapsed transitions to HalfOpen and hands out exactly one
  /// probe token (subsequent calls say no until the probe resolves).
  bool allow(unsigned slot, double now_us);

  void record_success(unsigned slot);
  void record_failure(unsigned slot, double now_us);
  /// Hand back an allow() grant whose work never ran (or ran but is not
  /// this slot's to judge): clears an outstanding HalfOpen probe token so
  /// the next allow() can probe again.  The breaker state is unchanged.
  void release(unsigned slot);

  BreakerState state(unsigned slot) const;

  /// First allowed slot, preferring `preferred`; kNone when every breaker
  /// is open (callers then degrade to the host ladder).
  unsigned pick(unsigned preferred, double now_us);

  /// pick() restricted to a replica group: the first allowed slot among
  /// `group`, preferring `preferred` (a slot id, not a group index).  A
  /// sharded Server keeps one tracker across shards x replicas and routes
  /// each shard's work within its own group; kNone means the shard has no
  /// healthy replica and the query degrades to a partial result.
  unsigned pick_in(const std::vector<unsigned>& group, unsigned preferred,
                   double now_us);

  unsigned num_slots() const { return static_cast<unsigned>(slots_.size()); }

  struct Counters {
    std::uint64_t failures = 0;
    std::uint64_t successes = 0;
    std::uint64_t opens = 0;       ///< Closed/HalfOpen -> Open transitions
    std::uint64_t half_opens = 0;  ///< Open -> HalfOpen probes granted
    std::uint64_t closes = 0;      ///< HalfOpen -> Closed recoveries
  };
  Counters counters() const;

 private:
  struct Slot {
    mutable std::mutex mu;
    BreakerState state = BreakerState::Closed;
    unsigned consecutive_failures = 0;
    double opened_at_us = 0.0;
    bool probe_outstanding = false;
  };

  BreakerConfig cfg_;
  std::vector<Slot> slots_;

  mutable std::mutex counters_mu_;
  Counters counters_;
};

}  // namespace xbfs::serve
