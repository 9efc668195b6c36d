#!/usr/bin/env bash
# CI gate for the resilient serving path: run the serving load harness at a
# toy scale with fault injection on (5% kernel faults, 2% memcpy corruption
# — the acceptance mix), then validate that
#   - every admitted query completed with validated-correct levels (the
#     bench itself exits non-zero on any Failed query or lost accounting),
#   - chaos p99 stays within 10x the fault-free p99,
#   - the chaos run-report record carries the resilience counters,
#   - the degraded and failed exemplar traces keep the one-attempt
#     contract: one rung per device attempt or host fallback, and one
#     fault / corrupt / error rung per matching failure event.
#
#   usage: check_resilience.sh <bench_serving-binary> [workdir]
set -euo pipefail

BENCH=${1:?usage: check_resilience.sh <bench_serving-binary> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"

REPORT="$WORKDIR/check_resilience.report.json"
METRICS="$WORKDIR/check_resilience.metrics.txt"
rm -f "$REPORT" "$METRICS"

# Toy scale keeps this in CI-seconds; the acceptance fault mix is on the
# second (chaos) phase only, so the clean p99 baseline is honest.
XBFS_RUN_REPORT="$REPORT" XBFS_METRICS="$METRICS" \
  "$BENCH" --scale=11 --edge-factor=8 --queries=128 --candidates=16 \
           --clients=4 --naive-queries=8 \
           --chaos --fault-kernel=0.05 --fault-memcpy=0.02 \
           --chaos-check=10 > "$WORKDIR/check_resilience.stdout" 2>&1 || {
    echo "FAIL: bench_serving --chaos exited non-zero"
    cat "$WORKDIR/check_resilience.stdout"
    exit 1
  }

for f in "$REPORT" "$METRICS"; do
  [[ -s "$f" ]] || { echo "FAIL: $f was not written"; exit 1; }
done

python3 - "$REPORT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["schema"] == "xbfs-run-report", report.get("schema")
runs = report["runs"]

# --- chaos record (emitted by bench_serving --chaos) -----------------------
chaos = next(r for r in runs if r["tool"] == "bench_serving-chaos")
cfg = chaos["config"]
for key in ("injected", "completed", "failed", "faults_seen", "retries",
            "validation_failures", "validated_results", "degraded_queries",
            "host_fallbacks", "breaker_opens", "p99_clean_ms",
            "p99_chaos_ms", "p99_ratio"):
    assert key in cfg, f"chaos record missing '{key}'"

assert int(cfg["failed"]) == 0, f"chaos queries failed: {cfg['failed']}"
assert int(cfg["completed"]) > 0, "no chaos queries completed"
# The acceptance fault mix must actually have fired and been absorbed.
assert int(cfg["injected"]) > 0, "no faults injected — chaos phase inert"
assert int(cfg["faults_seen"]) > 0, "server saw no faults"
assert int(cfg["validated_results"]) > 0, "no results were validated"

# --- chaos server summary ---------------------------------------------------
# The bench emits three serve summaries: clean, chaos, and the escalation
# probe (host fallback off, so its queries are *expected* to fail — it
# exists to produce a failed-query exemplar trace).  Select the chaos one
# structurally: faults flowed through it AND the host-fallback rung was on.
serves = [r for r in runs if r["tool"] == "serve"]
assert len(serves) == 3, f"expected clean+chaos+probe serve summaries, got {len(serves)}"
scfg = next(s["config"] for s in serves
            if int(s["config"]["faults_seen"]) > 0
            and s["config"]["host_fallback"] == "1")
for key in ("failed", "faults_seen", "retries", "validation_failures",
            "host_fallbacks", "breaker_opens"):
    assert key in scfg, f"serve summary missing resilience counter '{key}'"
assert int(scfg["failed"]) == 0

# The escalation probe must have actually failed queries (that is its job).
probe = next(s["config"] for s in serves if s["config"]["host_fallback"] == "0")
assert int(probe["failed"]) > 0, "escalation probe produced no failed queries"

# --- one-attempt contract on the exemplar traces ---------------------------
# Every device attempt and host fallback records exactly one rung, and each
# failed attempt's rung outcome matches its one failure event.
for name in ("degraded_trace", "failed_trace"):
    assert cfg.get(name), f"chaos record missing '{name}'"
    trace = json.loads(cfg[name])
    kinds = [e["kind"] for e in trace["events"]]
    outcomes = [r["outcome"] for r in trace["rungs"]]
    n = kinds.count
    assert len(outcomes) == n("attempt") + n("host_fallback"), \
        f"{name}: {len(outcomes)} rungs for {n('attempt')} attempts + " \
        f"{n('host_fallback')} host fallbacks"
    assert outcomes.count("fault") == n("fault"), f"{name}: fault rungs"
    corrupt = n("validation_failed") + n("corrupted")
    assert outcomes.count("corrupt") == corrupt, f"{name}: corrupt rungs"
    assert outcomes.count("error") == n("error"), f"{name}: error rungs"

print(f"OK: injected={cfg['injected']} seen={cfg['faults_seen']} "
      f"retries={cfg['retries']} "
      f"host_fallbacks={cfg['host_fallbacks']} "
      f"validated={cfg['validated_results']} "
      f"p99_ratio={float(cfg['p99_ratio']):.2f}x")
EOF

echo "check_resilience: PASS"
