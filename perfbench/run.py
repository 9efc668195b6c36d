#!/usr/bin/env python3
"""Repository benchmark: builds the runner from source, runs one workload in
its own process, checks every answer, and prints every metric by name with
its unit and clock.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload bfs-rmat --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all                    # each workload once
  python3 perfbench/run.py --steady 10 --workload all        # spread check
  python3 perfbench/run.py --selftest                        # checker check

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload with in-memory spans around the runner's calls into each layer
and reports the per-layer metrics, span self times and the tracing overhead.
How each metric is computed, and which end-to-end metric each layer metric
should move, is in perfbench/workloads.json.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build the runner (incremental after the first run)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ beside perfbench/: run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", "xbfs_perfbench"]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            die(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "xbfs_perfbench")


# --- statistics --------------------------------------------------------------

def nearest_rank(xs, p):
    s = sorted(xs)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def self_times(spans):
    """Mean self time (ms) per span name: duration minus the union of the
    intervals its direct children cover."""
    kids = {}
    for s in spans:
        kids.setdefault(s["args"]["parent"], []).append(s)
    total, count = {}, {}
    for s in spans:
        t0, t1 = s["ts"], s["ts"] + s["dur"]
        covered, end = 0.0, t0
        for c in sorted(kids.get(s["args"]["span"], []), key=lambda c: c["ts"]):
            a, b = max(c["ts"], end), min(c["ts"] + c["dur"], t1)
            if b > a:
                covered += b - a
                end = b
        total[s["name"]] = total.get(s["name"], 0.0) + (t1 - t0 - covered) / 1e3
        count[s["name"]] = count.get(s["name"], 0) + 1
    return {k: (total[k] / count[k], count[k]) for k in total}


def evaluate(spec, rec, selfs):
    """Value of one metric from the raw record; None when the workload does
    not exercise what it measures.  Returns (value, sample count)."""
    samples, values = rec["samples"], rec["values"]
    if spec == "fail_frac":
        return rec["failed"] / max(1, rec["attempted"]), rec["attempted"]
    if spec == "trace_overhead":
        on, off = samples.get("traced.query_ms"), samples.get("untraced.query_ms")
        if not on or not off:
            return None, 0
        base = nearest_rank(off, 0.5)
        return (nearest_rank(on, 0.5) - base) / base, len(on) + len(off)
    stat, key = spec.split(":", 1)
    if stat == "value":
        return values.get(key), 1
    if stat == "self_ms":
        return (selfs or {}).get(key, (None, 0))
    xs = samples.get(key)
    if not xs:
        return None, 0
    fn = {"p50": lambda x: nearest_rank(x, 0.5),
          "p90": lambda x: nearest_rank(x, 0.9),
          "median": statistics.median,
          "mean": statistics.fmean}[stat]
    return fn(xs), len(xs)


# --- one run -----------------------------------------------------------------

def run_once(args, bench, wl):
    binary = build()
    params = dict(wl["workloads"][args.workload]["params"])
    for kv in args.param or []:
        k, v = kv.split("=", 1)
        params[k] = float(v)
    out = build_dir()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    runs, traces = os.path.join(out, "runs"), os.path.join(out, "traces")
    work = os.path.join(out, "work", f"{tag}-{os.getpid()}")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    rec_path = os.path.join(runs, tag + ".json")
    trace_path = os.path.join(traces, tag + ".json")
    for p in (rec_path, trace_path):
        if os.path.exists(p):
            os.remove(p)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", rec_path, "--workdir", work, "--trace-out", trace_path]
    for k, v in params.items():
        cmd += ["--param", f"{k}={v}"]
    if args.corrupt_one:
        cmd.append("--corrupt-one")
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0 or not os.path.exists(rec_path):
        die(f"runner exited with {r.returncode}", 1)
    rec = load_json(rec_path)
    spans = load_json(trace_path)["traceEvents"] if args.trace else None
    selfs = self_times(spans) if args.trace else None

    table = wl["end_to_end"] if args.trace == 0 else wl["per_layer"]
    listed = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    metrics, lines = {}, []
    for m in listed:
        spec = table[m["name"]]
        v, n = evaluate(spec["from"], rec, selfs)
        idle = v is None
        if idle:
            v = 0.0  # layer not exercised by this workload
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        lines.append((m["name"], v, m["unit"], spec["clock"], n, idle))
    # The human report also shows every other metric the record supports.
    others = wl["per_layer"] if args.trace == 0 else wl["end_to_end"]
    for name, spec in others.items():
        if name in metrics:
            continue
        v, n = evaluate(spec["from"], rec, selfs)
        if v is not None:
            lines.append((name, v, "", spec["clock"], n, False))

    limits = wl["workloads"][args.workload].get("limits", {})
    for name, bound in limits.items():
        v, _ = evaluate(wl["per_layer"][name]["from"], rec, selfs)
        if v is not None and v > bound:
            rec["invalid"].append(f"{name} = {v:.3f} exceeds its limit {bound}")

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("# config " + json.dumps(rec["config"], sort_keys=True))
    print(f"# {'metric':34s} {'value':>14s} {'unit':8s} {'clock':14s} samples")
    for name, v, unit, clock, n, idle in lines:
        note = "  (layer idle)" if idle else ""
        print(f"  {name:34s} {v:14.6g} {unit:8s} {clock:14s} {n}{note}")
    if args.trace:
        print(f"# spans written to {trace_path}; mean self time per span:")
        for name, (ms, n) in sorted(selfs.items()):
            print(f"#   {name:30s} {ms:12.4f} ms  x{n}")
    for e in rec["errors"]:
        print(f"# FAIL {e}")
    for e in rec["invalid"]:
        print(f"# INVALID {e}")
    correct = rec["failed"] == 0 and rec["wrong"] == 0 and not rec["invalid"]
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


# --- steadiness and self-test ----------------------------------------------

def child(args, workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), *extra]
    for kv in args.param or []:
        cmd += ["--param", kv]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S + BUILD_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return r.returncode, None


def steady(args, bench):
    """Run each workload N times on distinct seeds; print each metric's
    median, quartiles and spread against its bound."""
    names = [w["name"] for w in bench["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary, ok = {}, True
    for w in todo:
        per = {}
        for i in range(args.steady):
            seed = args.first_seed + i
            code, res = child(args, w, seed, args.trace)
            if code != 0 or res is None or not res["correct"]:
                print(f"{w} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            for k, m in res["metrics"].items():
                per.setdefault(k, []).append(m["value"])
        print(f"\n{w}: {args.steady} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.steady - 1}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        summary[w] = {}
        for k, vs in per.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds.get(k) if args.trace == 0 else None
            flag = ""
            if b is not None and k != "setup_s":
                flag = "ok" if spread < b / 3 else ("wide" if spread <= b else "OVER")
                ok = ok and spread <= b
            print(f"  {k:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{b if b is not None else '':>6} {flag}")
            summary[w][k] = {"median": med, "q1": q1, "q3": q3, "values": vs}
    if args.against:
        prev = load_json(args.against)
        print("\nmedian drift against", args.against)
        for w, ms in summary.items():
            for k, s in ms.items():
                b = bounds.get(k)
                p = prev.get(w, {}).get(k)
                if b is None or p is None or not p["median"]:
                    continue
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == k)
                worse = (s["median"] - p["median"]) / p["median"]
                worse = worse if better == "lower" else -worse
                verdict = "ok" if worse <= b else "WORSE"
                ok = ok and worse <= b
                print(f"  {w:12s} {k:22s} {worse:+8.4f} (bound {b}) {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


def selftest(args, bench):
    """Hand each workload's checker one corrupted level array; every run
    must come back incorrect with a non-zero exit."""
    small = {"bfs-rmat": ["min_queries=3", "setups=1"],
             "shard-rmat": ["min_queries=3", "setups=1"],
             "serve-zipf": ["setups=1"],
             "serve-rw": ["setups=1", "recovers=1"]}
    args.seconds = 2
    failed = 0
    for w in [w["name"] for w in bench["workloads"]]:
        extra = ["--corrupt-one"] + [a for p in small.get(w, []) for a in ("--param", p)]
        code, res = child(args, w, 1, 0, extra)
        caught = code != 0 and res is not None and not res["correct"] and res["failed"] > 0
        print(f"selftest {w}: corrupted answer {'caught' if caught else 'MISSED'}"
              f" (exit {code})")
        failed += not caught
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--param", action="append", help="override key=value")
    ap.add_argument("--corrupt-one", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--steady", type=int, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="steadiness summary to write (JSON)")
    ap.add_argument("--against", help="earlier --save summary to compare medians")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        die("BENCHMARK.json not found at the checkout root")
    bench = load_json(bench_path)
    wl = load_json(os.path.join(HERE, "workloads.json"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.selftest:
        return selftest(args, bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.steady:
        if args.workload != "all" and args.workload not in names:
            die(f"--workload must be one of {names} or all")
        return steady(args, bench)
    if args.workload == "all":
        # Every workload once, each in its own process.
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in names]
        return max(codes)
    if args.workload not in names:
        die(f"--workload must be one of {names} or all")
    return run_once(args, bench, wl)


if __name__ == "__main__":
    sys.exit(main())
