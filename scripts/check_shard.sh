#!/usr/bin/env bash
# CI gate for the sharded serving tier (docs/sharding.md): run the
# bench_dist_scaling serving study at toy scale with XBFS_SANITIZE=all and
# XBFS_RUN_REPORT active, with the chaos sub-phase on, then require
#   - zero unannotated SimSan findings across the shard kernels (the bench
#     itself exits non-zero otherwise),
#   - the served graph oversubscribing one budget-capped GCD >= 2x,
#   - modelled p99 sublinear in shard count (4 -> 8 shards below 2.00x;
#     enforced by the bench via --check-p99),
#   - the killed replica rerouting (not failing) queries, with the probe
#     under fault injection validating Graph500-clean.
#
#   usage: check_shard.sh <bench_dist_scaling-binary> [workdir]
set -euo pipefail

BENCH=${1:?usage: check_shard.sh <bench_dist_scaling-binary> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"

REPORT="$WORKDIR/check_shard.report.json"
rm -f "$REPORT"

# Toy scale keeps this in CI-seconds: 24 distinct-source queries against a
# scale-13 RMAT graph, served at 4 and 8 shards, then the chaos sub-phase
# (4 shards x 2 replicas, one replica killed, fault injector on).
XBFS_RUN_REPORT="$REPORT" XBFS_SANITIZE=all \
  "$BENCH" --serve --chaos --serve-scale=13 --queries=24 --check-p99=2.0 \
           > "$WORKDIR/check_shard.stdout" 2>&1 || {
    echo "FAIL: bench_dist_scaling --serve exited non-zero"
    cat "$WORKDIR/check_shard.stdout"
    exit 1
  }

[[ -s "$REPORT" ]] || { echo "FAIL: $REPORT was not written"; exit 1; }

grep -q "SimSan" "$WORKDIR/check_shard.stdout" || {
  echo "FAIL: sanitizer summary missing from bench output"
  cat "$WORKDIR/check_shard.stdout"
  exit 1
}

python3 - "$REPORT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["schema"] == "xbfs-run-report", report.get("schema")
runs = report["runs"]

# --- serving-study summary (emitted by bench_dist_scaling --serve) ---------
bench = next(r for r in runs if r["tool"] == "bench_shard_serving")
cfg = bench["config"]
for key in ("oversubscription", "p99_4_shards_ms", "p99_8_shards_ms",
            "p99_ratio", "exchange_raw_bytes", "exchange_wire_bytes",
            "chaos_failed", "chaos_rerouted", "chaos_probe_valid"):
    assert key in cfg, f"bench_shard_serving record missing '{key}'"

oversub = float(cfg["oversubscription"])
assert oversub >= 2.0, f"oversubscription {oversub} below the 2x bar"
ratio = float(cfg["p99_ratio"])
assert 0.0 < ratio < 2.0, f"p99 not sublinear in shard count: {ratio}"
assert int(cfg["chaos_failed"]) == 0, "chaos queries resolved Failed"
assert int(cfg["chaos_rerouted"]) > 0, "killed replica never forced a reroute"
assert cfg["chaos_probe_valid"] == "1", "chaos probe not Graph500-clean"
wire = int(cfg["exchange_wire_bytes"])
raw = int(cfg["exchange_raw_bytes"])
assert 0 < wire < raw, f"compressed exchange not smaller than raw ({wire}/{raw})"

# --- sharded server summaries (the "serve" records carrying `shards`,
# emitted by serve::Server::shutdown over a ShardedStore) -------------------
servers = [r for r in runs if r["tool"] == "serve" and "shards" in r["config"]]
assert len(servers) >= 3, f"expected >= 3 sharded serve records, got {len(servers)}"
shard_counts = {r["config"]["shards"] for r in servers}
assert {"4", "8"} <= shard_counts, shard_counts
for r in servers:
    rcfg = r["config"]
    for key in ("replicas", "serving_fingerprint", "compression_ratio",
                "modelled_p99_ms", "breaker_opens"):
        assert key in rcfg, f"sharded serve summary missing '{key}'"

print(f"OK: oversub={oversub:.2f}x p99_ratio={ratio:.2f}x "
      f"compression={raw / wire:.2f}x "
      f"rerouted={cfg['chaos_rerouted']}")
EOF

echo "check_shard: PASS"
