// Shared pieces of the benchmark runner: command-line arguments, the wall
// clock, the in-memory span recorder, the raw-record writer, and the graph
// set-up every workload starts from.
//
// The runner measures each layer from outside: it times the calls it makes
// into the libraries and reads the public results those calls return.  It
// writes raw per-operation samples; run.py turns them into percentiles and
// metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "hipsim/device_profile.h"

namespace perfbench {

using namespace xbfs;

/// Seconds on the steady clock since the runner started.
double now_s();
void sleep_until_s(double t);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;      ///< raw record (JSON) written at the end
  std::string workdir;  ///< scratch directory for on-disk state
  /// Self-test: flip one entry of one answer before it is checked, so the
  /// run must fail.
  bool corrupt_one = false;
  /// Workload parameters (from perfbench/workloads.json via run.py).
  std::map<std::string, double> params;

  double param(const std::string& key) const;
};

/// One recorded interval.  Spans of one operation share `op`; `parent` is
/// the index of the enclosing span in the recorder, or -1.
struct Span {
  std::string name;
  std::uint64_t op = 0;
  int parent = -1;
  double t0 = 0.0;
  double t1 = 0.0;
  unsigned tid = 0;
};

/// In-memory span recorder.  Spans are kept until the run ends and are
/// written out once, as Chrome trace events.  Disabled recorders cost one
/// branch per call.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Record a finished interval; returns its index (or -1 when off).
  int add(std::string name, std::uint64_t op, int parent, double t0,
          double t1, unsigned tid = 0);
  /// Open a span now; close it with end().
  int begin(std::string name, std::uint64_t op, int parent, unsigned tid = 0);
  /// Close a span now, or at `t1` when given.
  void end(int idx, double t1 = -1.0);

  void write_chrome(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII begin/end of one span on a tracer that may be disabled.
class Scope {
 public:
  Scope(Tracer* t, std::string name, std::uint64_t op, int parent,
        unsigned tid = 0)
      : t_(t), idx_(t ? t->begin(std::move(name), op, parent, tid) : -1) {}
  ~Scope() {
    if (t_) t_->end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int idx() const { return idx_; }

 private:
  Tracer* t_;
  int idx_;
};

/// Everything one run measured, written as JSON for run.py.
struct Record {
  std::vector<std::pair<std::string, std::string>> config;  ///< JSON values
  std::map<std::string, double> values;                     ///< scalars
  std::map<std::string, std::vector<double>> samples;       ///< raw per-op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + refused + wrong operations
  std::uint64_t wrong = 0;   ///< answers the checker rejected
  std::vector<std::string> errors;     ///< first few failure diagnostics
  std::vector<std::string> invalid;    ///< reasons the run is not a measurement

  void cfg(const std::string& k, double v);
  void cfg(const std::string& k, const std::string& v);
  void cfg(const std::string& k, bool v);
  void sample(const std::string& k, double v) { samples[k].push_back(v); }
  void fail(const std::string& why);
  void write(const std::string& path) const;
};

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Graph500-style mean of per-query rates (0 when any rate is 0).
double harmonic_mean(const std::vector<double>& xs);

/// The Graph500 RMAT stand-in for the paper's Rmat25 row at a scale
/// divisor (Table II: 2^25 vertices, edge factor 16).  The generator seed
/// is fixed: every run serves the same dataset, and the run's seed drives
/// only the sources, arrival times and update batches, so the spread
/// between runs measures the system rather than the graph generator.
struct GraphSetup {
  graph::Csr csr;
  std::vector<graph::vid_t> giant;   ///< largest-component vertices
  std::uint64_t giant_edges = 0;     ///< undirected edges inside it
};
GraphSetup build_graph(unsigned divisor, Record& rec, Tracer* tr, int parent);

/// MI250X GCD with L2 scaled down by the divisor (as bench/bench_common.h
/// does), so the status-array-to-L2 ratio matches the full-size run.
sim::DeviceProfile scaled_profile(unsigned divisor);

/// Check a levels answer against the Graph500 rules, timing the check as
/// `graph.validate_ms`.  Returns an empty string when the answer is right.
std::string validate_levels(const graph::Csr& g, graph::vid_t src,
                            const std::vector<std::int32_t>& levels,
                            Record& rec, Tracer* tr, std::uint64_t op,
                            int parent);

/// Seeded Poisson arrival times in [0, seconds), exactly rate * seconds.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed);

/// `count` distinct giant-component vertices, seeded: the Zipf rank pool.
std::vector<graph::vid_t> source_pool(const std::vector<graph::vid_t>& giant,
                                      std::size_t count, std::uint64_t seed);

/// `n` sources drawn Zipf(s) over `pool` (rank k has weight 1/(k+1)^s).
/// Stratified: draw i takes its uniform from the i-th 1/n slice, and the
/// draws are then shuffled, so the rank frequencies (and with them the
/// cache hit rate) vary little from seed to seed.
std::vector<graph::vid_t> zipf_sources(const std::vector<graph::vid_t>& pool,
                                       double s, std::size_t n,
                                       std::uint64_t seed);

/// Threads this process keeps busy; the run is refused above nproc.
void record_threads(Record& rec, unsigned total);

/// Build a workload's state `setups` times, each under a "setup" span and
/// timed as one `setup_s` sample; only one is alive at a time and the last
/// is returned.  `build(i, span)` returns a std::unique_ptr to the state.
template <class Build>
auto timed_setups(int setups, Record& rec, Tracer* tr, Build build) {
  decltype(build(0, -1)) s;
  for (int i = 0; i < setups; ++i) {
    s.reset();
    const double t0 = now_s();
    Scope root(tr, "setup", 0, -1);
    s = build(i, root.idx());
    rec.sample("setup_s", now_s() - t0);
  }
  return s;
}

/// Closed-loop summary from the per-query `gteps` samples and the count of
/// queries answered correctly within the latency limit.
void finish_closed_loop(Record& rec, double wall_sum_ms, double slo_ok);

int run_bfs_rmat(const Args& a, Record& rec, Tracer& tr);
int run_shard_rmat(const Args& a, Record& rec, Tracer& tr);
int run_serve_zipf(const Args& a, Record& rec, Tracer& tr);
int run_serve_rw(const Args& a, Record& rec, Tracer& tr);

}  // namespace perfbench
