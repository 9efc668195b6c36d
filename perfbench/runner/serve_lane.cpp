#include "serve_lane.h"

#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace perfbench {

std::vector<ReadOutcome> run_read_lane(serve::Server& server,
                                       const std::vector<double>& due,
                                       const std::vector<graph::vid_t>& srcs,
                                       double start, bool keep_levels,
                                       Record& rec, Tracer* tr,
                                       ReadLaneStats* stats) {
  struct Pending {
    std::size_t i = 0;
    serve::Admission adm;
    double submitted = 0.0;
    int root = -1;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool arrivals_done = false;
  std::exception_ptr gen_error;
  std::vector<double> lag_ms;
  lag_ms.reserve(due.size());
  std::vector<ReadOutcome> out(due.size());

  std::thread gen([&] {
    try {
      for (std::size_t i = 0; i < due.size(); ++i) {
        const double due_s = start + due[i];
        sleep_until_s(due_s);
        const bool traced = tr && i % 2 == 0;
        Tracer* qt = traced ? tr : nullptr;
        const std::uint64_t op = i + 1;
        Pending p;
        p.i = i;
        p.root = qt ? qt->add("query", op, -1, due_s, due_s, 1) : -1;
        p.submitted = now_s();
        {
          Scope sub(qt, "serve.submit", op, p.root, 1);
          p.adm = server.submit(srcs[i]);
        }
        lag_ms.push_back((p.submitted - due_s) * 1e3);
        out[i].src = srcs[i];
        out[i].due = due_s;
        out[i].accepted = p.adm.accepted;
        std::lock_guard<std::mutex> lk(mu);
        pending.push_back(std::move(p));
        cv.notify_one();
      }
    } catch (...) {
      gen_error = std::current_exception();
    }
    const serve::ServerStats st = server.stats();
    std::lock_guard<std::mutex> lk(mu);
    stats->backlog_end = static_cast<double>(st.accepted) -
                         static_cast<double>(st.completed + st.expired +
                                             st.failed);
    arrivals_done = true;
    cv.notify_one();
  });

  try {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !pending.empty() || arrivals_done; });
        if (pending.empty()) break;
        p = std::move(pending.front());
        pending.pop_front();
      }
      if (!p.adm.accepted) continue;
      ReadOutcome& o = out[p.i];
      Tracer* qt = p.root >= 0 ? tr : nullptr;
      {
        Scope wait(qt, "serve.wait", p.i + 1, p.root, 0);
        o.result = p.adm.result.get();
      }
      // QueryResult::total_ms runs from submit() entry to completion.
      o.done = p.submitted + o.result.total_ms / 1e3;
      o.latency_ms = (o.done - o.due) * 1e3;
      if (qt) qt->end(p.root, o.done);
      if (!keep_levels) {
        o.result.levels.reset();
        o.result.payload = {};
      }
      o.result.trace.reset();
      stats->last_done = std::max(stats->last_done, o.done);
    }
  } catch (...) {
    gen.join();
    throw;
  }
  gen.join();
  if (gen_error) std::rethrow_exception(gen_error);
  for (double l : lag_ms) rec.sample("gen.lag_ms", l);
  return out;
}

void record_reads(const std::vector<ReadOutcome>& reads,
                  const std::vector<bool>& ok, double limit_ms, bool traced,
                  Record& rec) {
  double hits = 0.0, completed = 0.0, slo_ok = 0.0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const ReadOutcome& o = reads[i];
    ++rec.attempted;
    if (!o.accepted) {
      rec.fail("read " + std::to_string(i) + " refused");
      continue;
    }
    const serve::QueryResult& r = o.result;
    if (r.status != serve::QueryStatus::Completed) {
      rec.fail("read " + std::to_string(i) + " " +
               serve::query_status_name(r.status) + ": " + r.error.to_string());
      continue;
    }
    ++completed;
    hits += r.cache_hit;
    rec.sample("query_ms", o.latency_ms);
    if (traced) {
      rec.sample(i % 2 == 0 ? "traced.query_ms" : "untraced.query_ms",
                 o.latency_ms);
    }
    rec.sample("serve.queue_ms", r.queue_ms);
    if (!r.cache_hit) rec.sample("serve.service_ms", r.service_ms);
    if (ok[i] && o.latency_ms <= limit_ms) ++slo_ok;
  }
  rec.values["slo_ok_frac"] =
      reads.empty() ? 0.0 : slo_ok / static_cast<double>(reads.size());
  rec.values["serve.cache_hit_rate"] = completed > 0 ? hits / completed : 0.0;
}

void record_server_stats(const serve::ServerStats& st, Record& rec) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  rec.values["serve.batch_occupancy"] = st.mean_batch_occupancy;
  rec.values["serve.sweep_frac"] =
      st.sweeps ? d(st.sweeps - st.singleton_sweeps) / d(st.sweeps) : 0.0;
  rec.values["serve.computed_frac"] =
      st.completed ? d(st.computed_sources) / d(st.completed) : 0.0;
  rec.values["serve.retries"] = d(st.retries);
  rec.values["serve.rejected"] =
      d(st.rejected_full + st.rejected_invalid + st.rejected_shutdown);
}

}  // namespace perfbench
