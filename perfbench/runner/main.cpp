// Benchmark runner: runs one workload in this process and writes its raw
// record (per-operation samples, layer counters, configuration, check
// results) for run.py, plus the span trace when tracing is on.
//
//   xbfs_perfbench --workload bfs-rmat --seed 1 --seconds 10 --trace 0
//                  --out rec.json --workdir dir [--trace-out t.json]
//                  [--corrupt-one] --param key=value ...
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: xbfs_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --out FILE --workdir DIR [--trace-out FILE] "
               "[--corrupt-one] [--param key=value ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-one") {
      a.corrupt_one = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--trace-out") {
      trace_out = v;
    } else if (k == "--param") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) return usage();
      a.params[v.substr(0, eq)] = std::strtod(v.c_str() + eq + 1, nullptr);
    } else {
      return usage();
    }
  }
  if (a.workload.empty() || a.out.empty() || a.workdir.empty()) return usage();

  Record rec;
  Tracer tr(a.trace);
  try {
    std::filesystem::create_directories(a.workdir);
    rec.cfg("workload", a.workload);
    rec.cfg("seed", static_cast<double>(a.seed));
    rec.cfg("seconds", a.seconds);
    rec.cfg("traced", a.trace);
    rec.cfg("modelled_validated_against_hardware", false);
    if (a.workload == "bfs-rmat") {
      run_bfs_rmat(a, rec, tr);
    } else if (a.workload == "shard-rmat") {
      run_shard_rmat(a, rec, tr);
    } else if (a.workload == "serve-zipf") {
      run_serve_zipf(a, rec, tr);
    } else if (a.workload == "serve-rw") {
      run_serve_rw(a, rec, tr);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
      return 2;
    }
    rec.values["peak_rss_mb"] = peak_rss_mb();
    rec.write(a.out);
    if (a.trace && !trace_out.empty()) tr.write_chrome(trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbfs_perfbench: %s\n", e.what());
    std::filesystem::remove_all(a.workdir);
    return 1;
  }
  std::filesystem::remove_all(a.workdir);
  return 0;
}
