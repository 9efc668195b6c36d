#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "graph/builder.h"
#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "graph/rmat.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kStart =
    std::chrono::steady_clock::now();

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(
      kStart + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(t)));
}

double Args::param(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) {
    throw std::invalid_argument("missing workload parameter --" + key);
  }
  return it->second;
}

// --- spans ------------------------------------------------------------------

int Tracer::add(std::string name, std::uint64_t op, int parent, double t0,
                double t1, unsigned tid) {
  if (!on_) return -1;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(name), op, parent, t0, t1, tid});
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::begin(std::string name, std::uint64_t op, int parent,
                  unsigned tid) {
  if (!on_) return -1;
  const double t = now_s();
  return add(std::move(name), op, parent, t, t, tid);
}

void Tracer::end(int idx, double t1) {
  if (!on_ || idx < 0) return;
  const double t = t1 >= 0.0 ? t1 : now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(idx)].t1 = t;
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\":" << json_str(s.name)
       << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.tid
       << ",\"ts\":" << json_num(s.t0 * 1e6)
       << ",\"dur\":" << json_num((s.t1 - s.t0) * 1e6)
       << ",\"args\":{\"span\":" << i << ",\"op\":" << s.op
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

// --- record -----------------------------------------------------------------

void Record::cfg(const std::string& k, double v) {
  config.emplace_back(k, json_num(v));
}
void Record::cfg(const std::string& k, const std::string& v) {
  config.emplace_back(k, json_str(v));
}
void Record::cfg(const std::string& k, bool v) {
  config.emplace_back(k, v ? "true" : "false");
}

void Record::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void Record::write(const std::string& path) const {
  std::ostringstream os;
  os << "{\n\"config\": {";
  for (std::size_t i = 0; i < config.size(); ++i) {
    os << (i ? ", " : "") << json_str(config[i].first) << ": "
       << config[i].second;
  }
  os << "},\n\"values\": {";
  bool first = true;
  for (const auto& [k, v] : values) {
    os << (first ? "" : ", ") << json_str(k) << ": " << json_num(v);
    first = false;
  }
  os << "},\n\"samples\": {";
  first = true;
  for (const auto& [k, vs] : samples) {
    os << (first ? "\n" : ",\n") << json_str(k) << ": [";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      os << (i ? "," : "") << json_num(vs[i]);
    }
    os << "]";
    first = false;
  }
  os << "},\n\"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"wrong\": " << wrong << ",\n\"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? ", " : "") << json_str(errors[i]);
  }
  os << "],\n\"invalid\": [";
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    os << (i ? ", " : "") << json_str(invalid[i]);
  }
  os << "]\n}\n";
  std::ofstream f(path);
  f << os.str();
  if (!f) throw std::runtime_error("cannot write " + path);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double harmonic_mean(const std::vector<double>& xs) {
  double inv = 0.0;
  for (double x : xs) {
    if (x <= 0.0) return 0.0;
    inv += 1.0 / x;
  }
  return xs.empty() ? 0.0 : static_cast<double>(xs.size()) / inv;
}

// --- graph set-up -------------------------------------------------------------

GraphSetup build_graph(unsigned divisor, Record& rec, Tracer* tr, int parent) {
  // Same parameters as graph::make_dataset(DatasetId::R25, divisor, 1),
  // split into its generate and build steps so each can be timed.
  constexpr std::uint64_t kR25Vertices = 33554432;
  graph::RmatParams p;
  p.scale = 0;
  while ((std::uint64_t{2} << p.scale) <= kR25Vertices / divisor) ++p.scale;
  p.edge_factor = 16;
  p.seed = 1;

  GraphSetup g;
  double t = now_s();
  std::vector<graph::Edge> edges;
  {
    Scope s(tr, "graph.generate", 0, parent);
    edges = graph::rmat_edges(p);
  }
  rec.sample("graph.generate_s", now_s() - t);
  t = now_s();
  {
    Scope s(tr, "graph.build", 0, parent);
    g.csr = graph::build_csr(graph::vid_t{1} << p.scale, std::move(edges));
  }
  rec.sample("graph.build_s", now_s() - t);
  t = now_s();
  {
    Scope s(tr, "graph.components", 0, parent);
    g.giant = graph::largest_component_vertices(g.csr);
  }
  rec.sample("graph.components_s", now_s() - t);
  std::uint64_t deg = 0;
  for (graph::vid_t v : g.giant) deg += g.csr.degree(v);
  g.giant_edges = deg / 2;
  return g;
}

sim::DeviceProfile scaled_profile(unsigned divisor) {
  sim::DeviceProfile p = sim::DeviceProfile::mi250x_gcd();
  p.l2_bytes = std::max<std::uint64_t>(p.l2_bytes / divisor, 64 * 1024);
  return p;
}

std::string validate_levels(const graph::Csr& g, graph::vid_t src,
                            const std::vector<std::int32_t>& levels,
                            Record& rec, Tracer* tr, std::uint64_t op,
                            int parent) {
  const double t = now_s();
  std::string err;
  {
    Scope s(tr, "graph.validate", op, parent);
    err = graph::validate_levels_graph500(g, src, levels);
  }
  rec.sample("graph.validate_ms", (now_s() - t) * 1e3);
  return err;
}

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  // A Poisson process conditioned on its count: rate * seconds arrivals
  // placed uniformly at random, so every run offers the same load.
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> at(0.0, seconds);
  std::vector<double> due(static_cast<std::size_t>(std::llround(rate * seconds)));
  for (double& t : due) t = at(rng);
  std::sort(due.begin(), due.end());
  return due;
}

std::vector<graph::vid_t> source_pool(const std::vector<graph::vid_t>& giant,
                                      std::size_t count, std::uint64_t seed) {
  std::vector<graph::vid_t> pool = giant;
  std::mt19937_64 rng(seed);
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(std::min(count, pool.size()));
  return pool;
}

std::vector<graph::vid_t> zipf_sources(const std::vector<graph::vid_t>& pool,
                                       double s, std::size_t n,
                                       std::uint64_t seed) {
  std::vector<double> cdf(pool.size());
  double acc = 0.0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = acc;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::vector<graph::vid_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + u01(rng)) /
                     static_cast<double>(n) * acc;
    const auto k = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out[i] = pool[std::min(k, pool.size() - 1)];
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

void finish_closed_loop(Record& rec, double wall_sum_ms, double slo_ok) {
  const double n = static_cast<double>(rec.attempted);
  rec.values["query_qps"] = n / (wall_sum_ms / 1e3);
  rec.values["slo_ok_frac"] = slo_ok / n;
  rec.values["modelled_gteps"] = harmonic_mean(rec.samples["gteps"]);
}

void record_threads(Record& rec, unsigned total) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  rec.cfg("nproc", static_cast<double>(nproc));
  rec.cfg("total_threads", static_cast<double>(total));
  if (total > nproc) {
    rec.invalid.push_back("busy threads " + std::to_string(total) +
                          " exceed nproc " + std::to_string(nproc));
  }
}

}  // namespace perfbench
