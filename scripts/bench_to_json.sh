#!/usr/bin/env bash
# Captures simulator/campaign throughput into BENCH_sim.json and the SYNFI
# analysis-engine throughput into BENCH_synfi.json so the perf trajectory of
# the batched engines is recorded per PR.
#
# Usage: scripts/bench_to_json.sh [build_dir] [sim_output_json] [synfi_output_json]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_sim.json}"
SYNFI_OUT="${3:-BENCH_synfi.json}"
BENCH="$BUILD_DIR/bench_micro"
SYNFI_BENCH="$BUILD_DIR/bench_sec64_synfi"

if [[ ! -x "$BENCH" ]]; then
  echo "error: $BENCH not found; build with benchmarks enabled first" >&2
  exit 1
fi

SCALE_BENCH="$BUILD_DIR/bench_campaign_scale"

RAW="$(mktemp)"
SCALE_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$SCALE_RAW"' EXIT
# Five repetitions per benchmark, recorded as median + MAD (median absolute
# deviation): a single run moves by tens of percent on hosts whose speed
# changes while the bench runs.
"$BENCH" --benchmark_filter='BM_Simulator|BM_Campaign|BM_SynfiInjection|BM_SynfiSatQueries' \
         --benchmark_min_time=0.3 --benchmark_repetitions=5 \
         --benchmark_format=json > "$RAW"

# Campaign-at-scale: streaming-planner throughput and peak RSS of one large
# campaign at two lane/thread packings. The bench exits non-zero if the two
# packings ever disagree, so a divergent run cannot land in the repo.
if [[ -x "$SCALE_BENCH" ]]; then
  "$SCALE_BENCH" --runs 2000000 --cycles 6 --json > "$SCALE_RAW"
else
  echo "warning: $SCALE_BENCH not found; campaign_scale omitted from $OUT" >&2
  echo '{}' > "$SCALE_RAW"
fi

python3 - "$RAW" "$SCALE_RAW" "$OUT" <<'EOF'
import json, statistics, sys

raw = json.load(open(sys.argv[1]))
scale = json.load(open(sys.argv[2]))
samples = {}
for b in raw.get("benchmarks", []):
    ips = b.get("items_per_second")
    if ips is not None and b.get("run_type") == "iteration":
        samples.setdefault(b["run_name"], []).append(ips)
out = {
    "bench": "sim",
    "unit": "items_per_second",
    "repetitions": max((len(v) for v in samples.values()), default=0),
    "results": {},
    "mad": {},
}
for name, values in samples.items():
    median = statistics.median(values)
    out["results"][name] = round(median, 1)
    out["mad"][name] = round(statistics.median(abs(v - median) for v in values), 1)

scalar = out["results"].get("BM_Campaign/1")
batched = out["results"].get("BM_Campaign/64")
if scalar and batched:
    out["campaign_batch_speedup"] = round(batched / scalar, 2)
scalar = out["results"].get("BM_SimulatorStep")
batched = out["results"].get("BM_SimulatorStepBatched/words:1")
if scalar and batched:
    out["step_lane_speedup"] = round(batched / scalar, 2)
# Multi-word lane blocks: widest SoA block vs the one-word (historical
# 64-lane) layout, on both the raw step loop and the SYNFI injection engine.
narrow = out["results"].get("BM_SimulatorStepBatched/words:1")
wide = out["results"].get("BM_SimulatorStepBatched/words:8")
if narrow and wide:
    out["lane_width_speedup"] = round(wide / narrow, 2)
narrow = out["results"].get("BM_SynfiInjection/lanes:64")
wide = out["results"].get("BM_SynfiInjection/lanes:512")
if narrow and wide:
    out["synfi_lane_width_speedup"] = round(wide / narrow, 2)
# The throughput-optimal batch width for this module size (wider blocks
# eventually trade L2 locality for fewer passes, so the peak is a data
# point worth recording, not always the maximum width).
synfi = {n: v for n, v in out["results"].items()
         if n.startswith("BM_SynfiInjection/lanes:")}
if synfi:
    best = max(synfi, key=synfi.get)
    out["synfi_best_lanes"] = int(best.rsplit(":", 1)[1])

if scale.get("bench") == "campaign_scale":
    assert scale.get("engines_agree") is True, "campaign packings diverged; not recording"
    out["campaign_scale"] = scale

json.dump(out, open(sys.argv[3], "w"), indent=2)
print(f"wrote {sys.argv[3]}")
EOF

# SYNFI analysis engines: batched-vs-scalar exhaustive simulation and
# incremental-vs-rebuild SAT. The bench emits the JSON itself; validate and
# pretty-print it through python so a malformed run cannot land in the repo.
if [[ -x "$SYNFI_BENCH" ]]; then
  "$SYNFI_BENCH" --json > "$RAW"
  python3 - "$RAW" "$SYNFI_OUT" <<'EOF'
import json, os, sys

out = json.load(open(sys.argv[1]))
assert out.get("bench") == "synfi", "unexpected bench payload"
assert out.get("engines_agree") is True, "engine reports diverged; not recording"
assert "kfault_sim" in out and "kfault_sat_incremental" in out, \
    "k-fault engine throughput missing from bench payload"

# Non-regression gate on the incremental SAT engine (synfi14_n2): a fresh
# run more than 3x slower than the committed number is a real engine
# regression, not machine noise — refuse to record it. The committed file
# is the baseline; delete it first to intentionally re-baseline.
if os.path.exists(sys.argv[2]):
    prev = json.load(open(sys.argv[2]))
    old = prev.get("sat_incremental")
    new = out.get("sat_incremental")
    if old and new and prev.get("sat_module") == out.get("sat_module"):
        assert new >= old / 3.0, (
            f"sat_incremental regressed on {out['sat_module']}: "
            f"{new:.0f} q/s vs committed {old:.0f} q/s (>3x slower)")
json.dump(out, open(sys.argv[2], "w"), indent=2)
print(f"wrote {sys.argv[2]}")
EOF
else
  echo "warning: $SYNFI_BENCH not found; skipping $SYNFI_OUT" >&2
fi
