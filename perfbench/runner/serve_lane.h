// Open-loop read lane shared by the serving workloads: a generator thread
// submits BFS reads at seeded Poisson due times, whatever the server's
// progress; the calling thread collects the answers.  Each read is timed
// from its due time, so a stall also charges the reads queued behind it.
#pragma once

#include <vector>

#include "common.h"
#include "serve/server.h"

namespace perfbench {

struct ReadOutcome {
  graph::vid_t src = 0;
  bool accepted = false;
  serve::QueryResult result;  ///< levels dropped unless kept for checking
  double due = 0.0;           ///< s, run clock
  double latency_ms = 0.0;    ///< due -> complete
  double done = 0.0;          ///< s, run clock
};

struct ReadLaneStats {
  double backlog_end = 0.0;  ///< accepted but unresolved reads at last arrival
  double last_done = 0.0;    ///< s, completion of the last read
};

/// Submit `srcs[i]` at `start + due[i]` from one generator thread (tid 1)
/// and wait for every answer on the calling thread.  Records the generator
/// lag as `gen.lag_ms` samples.  Levels are kept only when `keep_levels`.
std::vector<ReadOutcome> run_read_lane(serve::Server& server,
                                       const std::vector<double>& due,
                                       const std::vector<graph::vid_t>& srcs,
                                       double start, bool keep_levels,
                                       Record& rec, Tracer* tr,
                                       ReadLaneStats* stats);

/// Per-read samples and counts common to both serving workloads:
/// `query_ms`, `serve.queue_ms`, `serve.service_ms`, cache hits, and the
/// reads answered within `limit_ms` (`ok[i]` says whether read i was
/// correct).
void record_reads(const std::vector<ReadOutcome>& reads,
                  const std::vector<bool>& ok, double limit_ms, bool traced,
                  Record& rec);

/// Counters every serving workload reads from ServerStats.
void record_server_stats(const serve::ServerStats& st, Record& rec);

}  // namespace perfbench
