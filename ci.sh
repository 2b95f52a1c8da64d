#!/usr/bin/env bash
# Continuous-integration entry point: tier-1 verify (configure, build, ctest)
# plus a smoke run of the micro-benchmarks, the SYNFI engines, the sweep
# fleet (SYNFI + Monte-Carlo campaign jobs, over the zoo and the committed
# KISS2 corpus), Wilson-bounded sweep-diff regression gates against the
# committed baseline stores, exact-match gates on a SAT back-end sweep and
# on an exhaustive back-end sweep at two lane widths (the SAT smoke and the
# sim smoke) and on the zoo's campaign sweep at two lane widths (the
# campaign smoke), and crash smokes for both the JSONL store
# (SIGKILL + torn tail + --resume) and the multi-process fleet supervisor
# (SIGKILL a worker mid-sweep; poison-job quarantine). Mirrors the verify
# command in ROADMAP.md; run from the repository root.
#
# CI_SANITIZE=1 additionally builds an ASan+UBSan tree (build-asan/) and
# runs the fast ctest subset under it.
set -euo pipefail
cd "$(dirname "$0")"

# Lazy-message gate: check()/require() build a string_view message only when
# they fail, but a message composed at the call site ("..." + name) is built
# on every call. The rtlil builders, flatten's structural pass and FSM
# extraction run their checks per cell and per bit, static timing and gate
# sizing theirs per net once per upsize, the sweep orchestrator and the store
# writer theirs per job and per record, and the store parser its checks per
# JSON delimiter, so a composed message there must sit inside the failing
# branch instead (see base/error.h). The pattern matches a whole, possibly
# multi-line, call with its balanced parentheses.
perl -0777 -ne '
  while (/\b(?:check|require)\s*(\((?:[^()"]++|"(?:[^"\\]|\\.)*"|(?1))*\))/g) {
    my $call = $&;
    if ($1 =~ /"\s*\+|\+\s*"/) { $call =~ s/\s+/ /g; print "$ARGV: $call\n"; $bad = 1; }
  }
  END { exit($bad ? 1 : 0) }' src/rtlil/*.h src/rtlil/*.cpp src/fsm/extract.cpp \
  src/synth/sta.cpp src/synth/sizing.cpp src/sweep/sweep.cpp \
  src/sweep/store_writer.cpp src/sweep/result_store.cpp \
  || { echo "lazy-message gate: composed check()/require() message on a per-cell, per-job or per-record path"; exit 1; }

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# Forced-portable lane blocks: SCFI_LANE_WORDS_CAP=1 clamps every *derived*
# lane-block width (campaign/SYNFI executors) to the one-word 64-lane
# layout, so the parallel-engine suites re-verify bit-identity with the
# multi-word SIMD path switched off — the coverage a machine without wide
# vectors would get. Explicitly-constructed wide Simulators are not
# clamped, so the wide unit tests still run wide here. SimSlice runs here
# too: the cone-sliced simulator is the one both engines classify on, so
# its agreement with the unsliced one is part of the same contract, and so
# does Flatten, the cone and slice that simulator is built from.
SCFI_LANE_WORDS_CAP=1 ctest --test-dir build --output-on-failure -j "$(nproc)" \
  -R 'SimParallel|SimSlice|SynfiParallel|CorpusParallel|ZooParallel|Campaign|Sweep|WorkShare|SweepStraggler|SimLatch|RngBelow|CampaignGolden|SynfiEdgeMajor|SynfiObservability|CampaignObservability|Flatten'

# Optional sanitizer lanes: a second compilation with AddressSanitizer +
# UndefinedBehaviorSanitizer over the fast suites (base/store/planner/sweep
# units, not the minutes-long corpus sweeps, plus the k-fault SYNFI and
# Analyzer suites that drive the one SYNFI engine path, the shared
# run_shards fan-out and the WorkShare range stealing, and the straggler
# sweeps whose idle workers help another group's run, the eval/latch split
# of the simulator's clock edge, the Rng::below fast path and the pinned
# campaign counts) so memory bugs in the hot engines surface without slowing
# the tier-1 path; the SAT solver's pinned search and its differential
# property tests run here too, since its clause arena hands out raw pointers
# into a growing vector, and so do the edge-major SAT SYNFI oracle, solve
# count and cancellation tests, whose k > 1 queries add a clause per model,
# and the observability-pruning suites, whose weighted SYNFI layers and
# unsimulated campaign runs are checked against brute-force references
# (as are the campaign lane pool's mid-walk starts and refilled lanes), the
# exhaustive segment suite (per-batch segment bounds and site arrays,
# lane-range masks across word and batch boundaries), and
# the campaign knob checks (an empty kind set used to read past its end),
# the sliced-simulator check (slicing renumbers the flip-flops that
# the skip and latch tables index), the CNF encoder's truth-table and
# equivalence suites (the encoder indexes dense per-net variable and
# override arrays by the flattened netlist's net numbers), the flat
# netlist's cone and slice (dense per-net flag and producer arrays), the
# Fsm suite (its witness search recurses over sub-cubes of a guard), the
# Validate error-text pins (the rtlil checks build their messages only on
# failure), and FsmExtract, whose FsmExtractOracle cases replay every
# lane-parallel recovery through the scalar reference (lane words, per-net
# trace stamps and index-addressed cube compaction), and the group-commit
# store writer's suites, since the writer hands records from the thread
# that wrote them to the thread that leads their fsync, and static timing
# and gate sizing, which index per-net driver, reader and arrival arrays by
# the flattened netlist's net numbers.
# Then a standalone ThreadSanitizer build of the header-only
# base/parallel.h tests (src/base only: libscfi itself crashes under TSan
# before main, in the target_clones ifunc resolvers of the simulator).
# float-cast-overflow is named on its own because GCC's `undefined` group
# leaves it out, and an out-of-range double-to-integer cast is undefined.
if [[ "${CI_SANITIZE:-0}" == "1" ]]; then
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSCFI_BUILD_BENCHMARKS=OFF -DSCFI_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build build-asan -j "$(nproc)"
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
    -R 'Rng|Error|Strutil|SimParallel|SimSlice|ResultStore|DiffReport|SweepJobs|GlobMatch|Kiss2|ModuleSource|WilsonInterval|CancelToken|BackoffPolicy|FleetSupervisor|VerilogLexer|VerilogParse|Validate|FsmExtract|CardinalityCounter|KFaultCampaign|ResultStoreKFault|AutoLanes|KFaultSynfi|SynfiAnalyzer|RunShards|SweepDegree|WorkShare|SweepStraggler|SimLatch|RngBelow|CampaignGolden|SolverGolden|SolverProperty|SynfiEdgeMajor|SynfiObservability|SynfiParallelSegments|CampaignObservability|CampaignKnobs|Cnf|GateCross|WordCross|SynthEquiv|Flatten|Fsm\.|StoreWriter|SweepGroupCommit|Sta\.|Sizing'
  mkdir -p build-tsan
  "${CXX:-c++}" -std=c++20 -O1 -g -fsanitize=thread -Isrc tests/test_parallel.cpp \
    src/base/*.cpp -lgtest -lgtest_main -pthread -o build-tsan/parallel_tests
  build-tsan/parallel_tests --gtest_repeat=10
fi

# Verilog write->read roundtrip gate: every zoo module (unprotected and SCFI-
# hardened) is emitted by the writer, re-parsed by the frontend, and must
# simulate bit-identically over pinned stimulus; the extraction suite then
# proves each zoo FSM emitted through the writer is recovered
# transition-equivalent (exhaustive product-state bisimulation). These run in
# the tier-1 ctest above too — the named re-run keeps the lane loud and
# self-documenting even if the tier-1 filter ever changes.
ctest --test-dir build --output-on-failure -R 'VerilogRoundtrip|FsmExtract'

# Benchmark smoke test: make sure the perf harness still runs end to end.
if [[ -x build/bench_micro ]]; then
  build/bench_micro --benchmark_min_time=0.01 \
    --benchmark_filter='BM_Simulator|BM_Campaign|BM_SynfiInjection|BM_SynfiSatQueries'
else
  echo "bench_micro not built (google-benchmark unavailable); skipping bench smoke"
fi

# SYNFI engine smoke test (one timing iteration): exercises the batched
# exhaustive backend, the incremental SAT backend, and the reusable
# Analyzer, and exits non-zero if the batched reports diverge from the
# scalar one, the SAT verdicts (k = 1 and 2) from the exhaustive ones, or
# the Analyzer's reports from per-call ones. The bit-exact SAT check against
# the per-(site, edge) rebuild oracle is in the test suite (SynfiEdgeMajor).
build/bench_sec64_synfi --quick

# Campaign-at-scale smoke: one quick campaign at two lane/thread packings,
# which must agree bit for bit (the bench exits 1 otherwise; the full-size
# run lands in BENCH_sim.json via scripts/bench_to_json.sh).
build/bench_campaign_scale --quick

# Sweep fleet smoke test: run a small module x kind matrix — SYNFI and
# Monte-Carlo campaign jobs side by side, the campaigns split per target
# class (any + state-register-only) so the schema-v6 threat-model fields
# are exercised end to end — streaming into a JSONL store, then re-run with
# --resume and assert that every job is skipped (nothing re-executed).
# NOTE: grep reads from a herestring, not an `echo |` pipe — under
# `set -o pipefail` grep -q exiting at the first match can SIGPIPE the
# echo side on large logs and fail the whole script.
SWEEP_OUT="$(mktemp -d)/sweep_smoke.jsonl"
trap 'rm -rf "$(dirname "$SWEEP_OUT")"' EXIT
build/scfi_cli sweep --modules 'pwrmgr_fsm,adc_ctrl_fsm' --levels 2 \
  --kinds flip,stuck1 --campaign-runs 2000 --campaign-cycles 12 \
  --campaign-target any,state --jobs 2 --threads 2 --out "$SWEEP_OUT"
[[ "$(wc -l < "$SWEEP_OUT")" -eq 12 ]] || { echo "sweep smoke: expected 12 JSONL records"; exit 1; }
RESUME_LOG="$(build/scfi_cli sweep --modules 'pwrmgr_fsm,adc_ctrl_fsm' --levels 2 \
  --kinds flip,stuck1 --campaign-runs 2000 --campaign-cycles 12 \
  --campaign-target any,state --jobs 2 --threads 2 --out "$SWEEP_OUT" --resume)"
tail -1 <<<"$RESUME_LOG"
grep -q 'executed 0 job(s), skipped 12' <<<"$RESUME_LOG" \
  || { echo "sweep smoke: --resume re-executed jobs"; exit 1; }

# Regression gate: diff the fresh sweep against the committed baseline.
# Exits non-zero when a verdict regresses (new exploitable injection, a
# campaign rate whose Wilson interval separates from the baseline's, or a
# key that vanished); sub-threshold metric drift is printed but does not
# gate.
build/scfi_cli sweep-diff bench/baselines/sweep_smoke.jsonl "$SWEEP_OUT" --fail-on-removed

# SAT back-end gate: pwrmgr_fsm's MDS and whole-logic k = 2 sweep on the
# incremental SAT back-end, whose miter encodes the state/alert cone slice
# and gives selectors only to the sites inside it (the others share one
# query per edge). No verdict may move at all, so the store must equal the
# committed baseline record for record (stalls and exploitable-site lists
# included), not merely show no regression.
SAT_OUT="$(dirname "$SWEEP_OUT")/sat_smoke.jsonl"
build/scfi_cli sweep --modules pwrmgr_fsm --levels 2 --regions mds_,all \
  --kinds flip,stuck1 --backend sat --faults-k 2 --jobs 2 --threads 2 --out "$SAT_OUT"
SAT_DIFF="$(build/scfi_cli sweep-diff bench/baselines/sat_smoke.jsonl "$SAT_OUT" --fail-on-removed)"
echo "$SAT_DIFF"
grep -q 'stores are identical' <<<"$SAT_DIFF" \
  || { echo "sat smoke: store differs from bench/baselines/sat_smoke.jsonl"; exit 1; }

# Exhaustive back-end gate: the zoo's MDS and whole-logic k = 2 sweep on
# the exhaustive simulator, for flip, stuck-at-1 and skip faults on the
# logic and on the state register (63 jobs). A combination's edges fill a
# run of lanes (a segment) that gets each fault injected once, so the
# sweep runs at the default lane width and at 100 lanes, where segments end
# inside a lane word and span batches. Both stores must equal the committed
# baseline record for record.
SIM_ARGS=(sweep --levels 2 --regions mds_,all --kinds flip,stuck1,skip --target logic,state
  --faults-k 2 --jobs 2 --threads 2)
for SIM_LANES in default 100; do
  SIM_OUT="$(dirname "$SWEEP_OUT")/sim_k2_smoke_$SIM_LANES.jsonl"
  SIM_LANE_ARGS=()
  [[ "$SIM_LANES" == default ]] || SIM_LANE_ARGS=(--lanes "$SIM_LANES")
  build/scfi_cli "${SIM_ARGS[@]}" "${SIM_LANE_ARGS[@]}" --out "$SIM_OUT" > /dev/null
  SIM_DIFF="$(build/scfi_cli sweep-diff bench/baselines/sim_k2_smoke.jsonl "$SIM_OUT" --fail-on-removed)"
  echo "$SIM_DIFF"
  grep -q 'stores are identical' <<<"$SIM_DIFF" \
    || { echo "sim smoke (lanes $SIM_LANES): store differs from bench/baselines/sim_k2_smoke.jsonl"; exit 1; }
done

# Campaign executor gate: the zoo's Monte-Carlo campaigns at protection
# level 2 on all three variants, for flip, stuck-at-1 and skip faults, two
# faults per run, on any site and on the state register (126 campaign jobs
# beside 21 SYNFI jobs). The executor's lanes start runs mid-walk and free
# themselves as runs are decided, so the sweep runs at the default lane
# width, at 100 lanes, where lanes end inside a lane word, and at the
# default width under SCFI_LANE_WORDS_CAP=1, where every lane pool and every
# planned unit is 64 runs wide. Each count is a pure function of its run
# plans, so every store must equal the committed baseline record for
# record, not merely fall inside a Wilson interval.
CAMPAIGN_ARGS=(sweep --modules '*' --levels 2 --kinds flip,stuck1,skip --campaign-runs 3000
  --campaign-cycles 16 --campaign-faults 2 --campaign-target any,state
  --campaign-variants scfi,unprotected,redundancy --jobs 2 --threads 2)
for CAMPAIGN_LANES in default 100 cap1; do
  CAMPAIGN_OUT="$(dirname "$SWEEP_OUT")/campaign_smoke_$CAMPAIGN_LANES.jsonl"
  CAMPAIGN_LANE_ARGS=()
  [[ "$CAMPAIGN_LANES" == default || "$CAMPAIGN_LANES" == cap1 ]] \
    || CAMPAIGN_LANE_ARGS=(--lanes "$CAMPAIGN_LANES")
  CAMPAIGN_CAP=()
  [[ "$CAMPAIGN_LANES" != cap1 ]] || CAMPAIGN_CAP=(SCFI_LANE_WORDS_CAP=1)
  env "${CAMPAIGN_CAP[@]}" build/scfi_cli "${CAMPAIGN_ARGS[@]}" "${CAMPAIGN_LANE_ARGS[@]}" \
    --out "$CAMPAIGN_OUT" > /dev/null
  CAMPAIGN_DIFF="$(build/scfi_cli sweep-diff bench/baselines/campaign_smoke.jsonl "$CAMPAIGN_OUT" \
    --fail-on-removed)"
  echo "$CAMPAIGN_DIFF"
  grep -q 'stores are identical' <<<"$CAMPAIGN_DIFF" \
    || { echo "campaign smoke (lanes $CAMPAIGN_LANES): store differs from bench/baselines/campaign_smoke.jsonl"; exit 1; }
done

# KISS2-corpus sweep smoke: the same fleet run drawing modules from the
# committed bench/corpus/ directory instead of the zoo (SYNFI + campaign
# jobs per .kiss2 file), gated against its own committed baseline. A
# self-diff must also be clean (exit 0).
CORPUS_OUT="$(dirname "$SWEEP_OUT")/corpus_smoke.jsonl"
build/scfi_cli sweep --corpus bench/corpus --levels 2 --kinds flip \
  --campaign-runs 2000 --campaign-cycles 12 --campaign-target any,state \
  --jobs 2 --threads 2 --out "$CORPUS_OUT"
[[ "$(wc -l < "$CORPUS_OUT")" -eq 9 ]] || { echo "corpus smoke: expected 9 JSONL records"; exit 1; }
build/scfi_cli sweep-diff "$CORPUS_OUT" "$CORPUS_OUT"
build/scfi_cli sweep-diff bench/baselines/corpus_smoke.jsonl "$CORPUS_OUT" --fail-on-removed

# Verilog-corpus sweep smoke: the front-door path end to end — parse every
# committed bench/corpus-verilog/ netlist, extract its FSM(s), and sweep the
# extracted machines (SYNFI + campaign jobs), gated against the committed
# baseline. The corpus mixes writer-emitted zoo netlists with hand-written
# ones (non-ANSI ports, primitives, escaped identifiers), so a frontend or
# extraction regression surfaces here as a parse error or a key change.
VCORPUS_OUT="$(dirname "$SWEEP_OUT")/corpus_verilog_smoke.jsonl"
VCORPUS_LOG="$(build/scfi_cli sweep --corpus-verilog bench/corpus-verilog --levels 2 \
  --kinds flip --campaign-runs 2000 --campaign-cycles 12 --jobs 2 --threads 2 \
  --out "$VCORPUS_OUT" 2>&1)"
tail -1 <<<"$VCORPUS_LOG"
grep -q 'corpus corpus-verilog: 9 module(s), 0 skipped' <<<"$VCORPUS_LOG" \
  || { echo "corpus-verilog smoke: expected 9 clean modules"; exit 1; }
[[ "$(wc -l < "$VCORPUS_OUT")" -eq 18 ]] \
  || { echo "corpus-verilog smoke: expected 18 JSONL records"; exit 1; }
build/scfi_cli sweep-diff "$VCORPUS_OUT" "$VCORPUS_OUT"
build/scfi_cli sweep-diff bench/baselines/corpus_verilog_smoke.jsonl "$VCORPUS_OUT" \
  --fail-on-removed

# Malformed-input smoke: the frontend must reject broken netlists with a
# clean ScfiError exit (status 1 and an "error:" diagnostic naming the
# file) — never a crash, an abort, or a silent success.
MALFORMED_DIR="$(dirname "$SWEEP_OUT")/malformed"
mkdir -p "$MALFORMED_DIR"
printf 'module trunc (input a, output y);\n  assign y = ~a;\n' \
  > "$MALFORMED_DIR/truncated.v"
printf 'module m (output y);\n  assign y = 1%sb0;\nendmodule\nendmodule\n' "'" \
  > "$MALFORMED_DIR/unbalanced.v"
printf 'module m (output y);\n  assign y = 2%sb11111111;\nendmodule\n' "'" \
  > "$MALFORMED_DIR/bogus_width.v"
for bad in truncated unbalanced bogus_width; do
  set +e
  BAD_LOG="$(build/scfi_cli import-verilog "$MALFORMED_DIR/$bad.v" 2>&1)"
  BAD_STATUS=$?
  set -e
  [[ "$BAD_STATUS" -eq 1 ]] \
    || { echo "malformed smoke: $bad.v exited $BAD_STATUS, want 1"; exit 1; }
  grep -q "error: .*$bad\.v" <<<"$BAD_LOG" \
    || { echo "malformed smoke: $bad.v diagnostic did not name the file: $BAD_LOG"; exit 1; }
done

# Crash-injection smoke: SIGKILL an identical sweep mid-run, tear the JSONL
# tail (simulating a write cut off mid-record), and assert that --resume
# salvages the store and reconstructs it bit-identical to the uninterrupted
# run (modulo per-job timing). The campaign runs are sized up so the kill
# lands mid-fleet on most machines; if the sweep wins the race the torn
# tail alone still exercises recovery.
CRASH_FULL="$(dirname "$SWEEP_OUT")/crash_full.jsonl"
CRASH_KILL="$(dirname "$SWEEP_OUT")/crash_kill.jsonl"
CRASH_ARGS=(sweep --corpus bench/corpus --levels 2 --kinds flip
  --campaign-runs 200000 --campaign-cycles 12 --jobs 1 --threads 1)
build/scfi_cli "${CRASH_ARGS[@]}" --out "$CRASH_FULL" > /dev/null
build/scfi_cli "${CRASH_ARGS[@]}" --out "$CRASH_KILL" > /dev/null 2>&1 &
CRASH_PID=$!
for _ in $(seq 1 200); do [[ -s "$CRASH_KILL" ]] && break; sleep 0.05; done
kill -9 "$CRASH_PID" 2> /dev/null || true
wait "$CRASH_PID" 2> /dev/null || true
[[ -s "$CRASH_KILL" ]] || { echo "crash smoke: no records survived SIGKILL"; exit 1; }
truncate -s -7 "$CRASH_KILL"
CRASH_RESUME_LOG="$(build/scfi_cli "${CRASH_ARGS[@]}" --out "$CRASH_KILL" --resume 2>&1)"
grep -q 'dropping torn final line' <<<"$CRASH_RESUME_LOG" \
  || { echo "crash smoke: torn tail was not salvaged on --resume"; exit 1; }
build/scfi_cli sweep-diff "$CRASH_FULL" "$CRASH_KILL" --fail-on-removed
diff <(sed 's/"seconds":[0-9.eE+-]*//' "$CRASH_FULL" | LC_ALL=C sort) \
     <(sed 's/"seconds":[0-9.eE+-]*//' "$CRASH_KILL" | LC_ALL=C sort) \
  || { echo "crash smoke: resumed store differs from uninterrupted run"; exit 1; }
build/scfi_cli store-compact "$CRASH_KILL"

# Fleet smoke: the same corpus matrix through the supervised multi-process
# fleet (--fleet 2), with one worker SIGKILLed mid-sweep. The supervisor
# must reap the dead worker, requeue its job, respawn the slot, and still
# finish cleanly with a store bit-identical to the single-process run
# (modulo timing/attempts/worker tags — all diagnostics, stripped below).
# Workers are forked children of the supervisor (fork, no exec), so they
# share its process name and pgrep -P is how we pick a victim; if the kill
# races a fast sweep and misses, the run still gates on bit-identity.
FLEET_OUT="$(dirname "$SWEEP_OUT")/fleet_smoke.jsonl"
FLEET_LOG="$(dirname "$SWEEP_OUT")/fleet_smoke.log"
build/scfi_cli "${CRASH_ARGS[@]}" --fleet 2 --out "$FLEET_OUT" > "$FLEET_LOG" 2>&1 &
FLEET_PID=$!
WORKER_PID=""
for _ in $(seq 1 200); do
  WORKER_PID="$(pgrep -P "$FLEET_PID" | head -n1 || true)"
  [[ -n "$WORKER_PID" ]] && break
  sleep 0.05
done
[[ -n "$WORKER_PID" ]] || { cat "$FLEET_LOG"; echo "fleet smoke: no worker child appeared"; exit 1; }
kill -9 "$WORKER_PID" 2> /dev/null || true
wait "$FLEET_PID" || { cat "$FLEET_LOG"; echo "fleet smoke: supervisor exited non-zero"; exit 1; }
tail -1 "$FLEET_LOG"
NORMALIZE='s/"(seconds|attempts)":[0-9.eE+-]+,?//g; s/"worker":"[^"]*",?//g; s/,\}/}/g'
diff <(sed -E "$NORMALIZE" "$CRASH_FULL" | LC_ALL=C sort) \
     <(sed -E "$NORMALIZE" "$FLEET_OUT" | LC_ALL=C sort) \
  || { echo "fleet smoke: fleet store differs from single-process run"; exit 1; }

# Poison-job quarantine smoke: SCFI_FLEET_POISON makes the worker that
# is dispatched the named key SIGKILL itself, so the job crashes its worker on
# every attempt. After --max-crashes (default 2) crashes the supervisor
# must quarantine the key as a failed record with error "crashed", finish
# every other job, and exit non-zero for the failed key.
POISON_OUT="$(dirname "$SWEEP_OUT")/poison_smoke.jsonl"
POISON_KEY="$(grep -o '"key":"[^"]*"' "$CRASH_FULL" | head -n1 | cut -d'"' -f4)"
if SCFI_FLEET_POISON="$POISON_KEY" build/scfi_cli "${CRASH_ARGS[@]}" --fleet 2 \
    --out "$POISON_OUT" > "$FLEET_LOG" 2>&1; then
  cat "$FLEET_LOG"; echo "poison smoke: fleet exited zero with a quarantined job"; exit 1
fi
tail -1 "$FLEET_LOG"
grep -q 'failed 1 (quarantined 1)' "$FLEET_LOG" \
  || { cat "$FLEET_LOG"; echo "poison smoke: expected exactly one quarantined job"; exit 1; }
POISON_REC="$(grep -F "\"key\":\"$POISON_KEY\"" "$POISON_OUT")"
[[ "$POISON_REC" == *'"status":"failed"'* && "$POISON_REC" == *'"error":"crashed"'* ]] \
  || { echo "poison smoke: poisoned job was not quarantined as crashed"; exit 1; }
