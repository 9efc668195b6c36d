#include "serve/health.h"

#include <algorithm>

#include "hipsim/chk_point.h"
#include "obs/flight_recorder.h"

namespace xbfs::serve {

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::Closed: return "closed";
    case BreakerState::Open: return "open";
    case BreakerState::HalfOpen: return "half-open";
  }
  return "?";
}

HealthTracker::HealthTracker(unsigned num_slots, BreakerConfig cfg)
    : cfg_(cfg), slots_(std::max(1u, num_slots)) {
  cfg_.failure_threshold = std::max(1u, cfg_.failure_threshold);
}

bool HealthTracker::allow(unsigned slot, double now_us) {
  if (slot >= slots_.size()) return false;
  // SchedCheck yield points sit before each transition's critical section
  // (never inside — chk_point discipline) so explored interleavings hit
  // the allow/success/failure decision races: e.g. two callers racing for
  // the single half-open probe token.
  sim::chk_point("serve.health.allow", slot);
  Slot& s = slots_[slot];
  std::lock_guard<std::mutex> lk(s.mu);
  switch (s.state) {
    case BreakerState::Closed:
      return true;
    case BreakerState::Open:
      if (now_us - s.opened_at_us >= cfg_.cooldown_ms * 1000.0) {
        s.state = BreakerState::HalfOpen;
        s.probe_outstanding = true;
        obs::FlightRecorder::global().record("serve", "breaker_half_open", {},
                                             0, slot);
        std::lock_guard<std::mutex> clk(counters_mu_);
        ++counters_.half_opens;
        return true;
      }
      return false;
    case BreakerState::HalfOpen:
      // One probe at a time: the slot stays quarantined until it resolves.
      if (s.probe_outstanding) return false;
      s.probe_outstanding = true;
      return true;
  }
  return false;
}

void HealthTracker::record_success(unsigned slot) {
  if (slot >= slots_.size()) return;
  sim::chk_point("serve.health.success", slot);
  Slot& s = slots_[slot];
  bool closed = false;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.consecutive_failures = 0;
    s.probe_outstanding = false;
    if (s.state == BreakerState::HalfOpen) {
      s.state = BreakerState::Closed;
      closed = true;
    }
  }
  if (closed) {
    obs::FlightRecorder::global().record("serve", "breaker_close", {}, 0,
                                         slot);
  }
  std::lock_guard<std::mutex> clk(counters_mu_);
  ++counters_.successes;
  if (closed) ++counters_.closes;
}

void HealthTracker::record_failure(unsigned slot, double now_us) {
  if (slot >= slots_.size()) return;
  sim::chk_point("serve.health.failure", slot);
  Slot& s = slots_[slot];
  bool opened = false;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.probe_outstanding = false;
    ++s.consecutive_failures;
    if (s.state == BreakerState::HalfOpen ||
        (s.state == BreakerState::Closed &&
         s.consecutive_failures >= cfg_.failure_threshold)) {
      s.state = BreakerState::Open;
      s.opened_at_us = now_us;
      opened = true;
    }
  }
  if (opened) {
    obs::FlightRecorder::global().record("serve", "breaker_open", {}, 0,
                                         slot);
  }
  std::lock_guard<std::mutex> clk(counters_mu_);
  ++counters_.failures;
  if (opened) ++counters_.opens;
}

void HealthTracker::release(unsigned slot) {
  if (slot >= slots_.size()) return;
  sim::chk_point("serve.health.release", slot);
  Slot& s = slots_[slot];
  std::lock_guard<std::mutex> lk(s.mu);
  s.probe_outstanding = false;
}

BreakerState HealthTracker::state(unsigned slot) const {
  // Out-of-range slots answer Open — never routable — mirroring allow().
  if (slot >= slots_.size()) return BreakerState::Open;
  const Slot& s = slots_[slot];
  std::lock_guard<std::mutex> lk(s.mu);
  return s.state;
}

unsigned HealthTracker::pick(unsigned preferred, double now_us) {
  const unsigned n = num_slots();
  if (preferred < n && allow(preferred, now_us)) return preferred;
  for (unsigned i = 0; i < n; ++i) {
    if (i == preferred) continue;
    if (allow(i, now_us)) return i;
  }
  return kNone;
}

unsigned HealthTracker::pick_in(const std::vector<unsigned>& group,
                                unsigned preferred, double now_us) {
  const unsigned n = num_slots();
  // Membership gate first: allow() may hand out a HalfOpen probe token, so
  // it must never be asked about a slot this pick cannot return.
  bool preferred_in_group = false;
  for (const unsigned slot : group) {
    if (slot == preferred) preferred_in_group = true;
  }
  if (preferred_in_group && preferred < n && allow(preferred, now_us)) {
    return preferred;
  }
  for (const unsigned slot : group) {
    if (slot == preferred) continue;
    if (slot < n && allow(slot, now_us)) return slot;
  }
  return kNone;
}

HealthTracker::Counters HealthTracker::counters() const {
  std::lock_guard<std::mutex> lk(counters_mu_);
  return counters_;
}

}  // namespace xbfs::serve
