#!/usr/bin/env bash
# Multi-configuration gate for the kernel substrate, observability layer,
# and serving layer:
#
#   1. native       — default build; AVX2+FMA kernels compiled in and selected
#                     at runtime when the CPU supports them.
#   2. scalar       — same binaries, DACE_KERNELS=scalar forces the blocked
#                     scalar fallback, proving SIMD-off correctness.
#   3. precision    — the kernel/layer/packed/differential/tiered suites
#                     under every DACE_KERNELS={scalar,avx2} x
#                     DACE_PRECISION={f32,i8} combination (avx2 columns
#                     skipped on machines without AVX2+FMA). f64 is the
#                     default precision, so stages 1 and 2 already run these
#                     suites at f64 in both ISA modes. Precision routes
#                     teacher misses (f64 per plan, f32/i8 packed), and every
#                     suite asserting bit-identity pins its precision
#                     internally, so a green run here proves both that the
#                     env resolution works and that no suite accidentally
#                     depends on the ambient default.
#   4. asan         — separate build tree with -DDACE_SANITIZE=address, run
#                     in both ISA modes (the AVX2 tail handling and the
#                     aligned allocator are the interesting targets).
#   5. input-fuzz   — the checkpoint corruption fuzz (which now covers the
#                     optional student section) AND the plan-text mutation
#                     fuzz (truncations, bit flips, nesting bombs,
#                     duplicate/unknown fields, separator splices) re-run
#                     explicitly under ASan in both ISA modes, together with
#                     the int8 kernel and tiered-serving suites (the i8
#                     quantize/gemv tails and the student scratch reuse are
#                     the interesting overflow targets): every rejected input
#                     must be leak- and overflow-clean, not just return
#                     non-OK.
#   6. tsan-obs     — separate build tree with -DDACE_SANITIZE=thread, run
#                     with logging at INFO and tracing enabled so the metrics
#                     registry, trace ring buffers, and log lines are
#                     exercised concurrently under TSan.
#   7. tsan-serve   — the serving-layer suites (coalescing scheduler, hot
#                     swap, soak with concurrent swappers, differential
#                     bit-identity — including the PackedF32* variants
#                     that pin f32, so every miss takes the packed path;
#                     the ExpositionServerTest scrapes, one of which
#                     scrapes a served tenant while clients report actuals)
#                     re-run explicitly under TSan with tracing and INFO
#                     logging on: the admission queue, drainer threads,
#                     packed fan-out, snapshot publication and live scrapes
#                     must be race-free, not just produce correct numbers.
#   8. obs-off      — separate build tree with -DDACE_OBS=OFF proving the
#                     DACE_TRACE_SPAN no-op macro compiles everywhere and the
#                     suite still passes without span instrumentation.
#   9. drift-soak   — the long-stream drift-detector soak suites (stationary
#                     streams must stay alarm-free, injected accuracy shifts
#                     must trip Page-Hinkley AND KS), then the fig07 drift
#                     scenario replayed through the online detectors: the
#                     WDM's accuracy collapse past scale 1x must be detected
#                     by BOTH detectors with zero false alarms on the
#                     stationary prefix (writes BENCH_fig07_drift.json,
#                     which also carries the adaptation-soak records gated
#                     by the next stage).
#  10. drift-recovery — the closed-loop adaptation soak gate, read from the
#                     BENCH_fig07_drift.json the previous stage wrote: the
#                     drift alarm must trigger a fine-tune whose canary is
#                     promoted (adapted == 1), the post-adaptation median
#                     q-error must land within 1.5x of the pre-drift
#                     baseline, not a single request may fail during the
#                     swaps, and the forced-regression canary must roll
#                     back with the incumbent's predictions bit-identical.
#  11. bench-micro  — kernel/inference microbenchmarks; writes
#                     BENCH_micro.json and gates on the derived records:
#                     the packed f32 path must not be slower than the
#                     per-plan path (packed_f32_vs_perplan_speedup >= 1.0), the
#                     int8 student tier must hold a healthy margin over the
#                     packed f32 teacher (student_vs_teacher_speedup >= 3.0),
#                     the tiered path's median q-error must stay within
#                     its accuracy budget (tiered_qerror_budget <= 1.05),
#                     and per-prediction accuracy tracking must stay in the
#                     noise on the tiered hot path
#                     (feedback_overhead_pct <= 2%).
#  12. bench-select — plan-selection quality replay (estimators CHOOSE plans
#                     from the optimizer's candidate sets; chosen plans are
#                     executed on both machine profiles); rewrites
#                     BENCH_select.json and gates against the committed
#                     baseline: neither the native model's nor DACE's mean
#                     selection regret may regress by more than 5% on either
#                     machine. The bench is fully deterministic, so the
#                     committed numbers are exact, not a tolerance band.
#
# Usage: tools/check.sh [-j N]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc)
while getopts "j:" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

run_ctest() {
  local dir="$1"; shift
  (cd "$dir" && "$@" ctest --output-on-failure)
}

echo "==> [1/12] native build + tests"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "$JOBS"
run_ctest build env

echo "==> [2/12] scalar-forced tests (same build, DACE_KERNELS=scalar)"
run_ctest build env DACE_KERNELS=scalar

echo "==> [3/12] kernels x precision matrix (targeted suites, 4 combos)"
PRECISION_SUITES='Kernels|Matrix|Layers|PackedInference|ServeDifferential|TieredServing'
ISAS="scalar"
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then ISAS="scalar avx2"; fi
for isa in $ISAS; do
  for prec in f32 i8; do
    echo "    -- DACE_KERNELS=$isa DACE_PRECISION=$prec"
    (cd build && env DACE_KERNELS="$isa" DACE_PRECISION="$prec" \
      ctest --output-on-failure -R "$PRECISION_SUITES")
  done
done

echo "==> [4/12] address-sanitizer build + tests (both ISA modes)"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDACE_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS"
run_ctest build-asan env
run_ctest build-asan env DACE_KERNELS=scalar

echo "==> [5/12] checkpoint + plan-text fuzz + int8/tiered under ASan"
echo "           (both ISA modes)"
(cd build-asan && env \
  ctest --output-on-failure -R 'Checkpoint|PlanIoFuzz|KernelsI8|TieredServing')
(cd build-asan && env DACE_KERNELS=scalar \
  ctest --output-on-failure -R 'Checkpoint|PlanIoFuzz|KernelsI8|TieredServing')

echo "==> [6/12] thread-sanitizer build + tests (logging INFO, tracing on)"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDACE_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
run_ctest build-tsan env DACE_LOG_LEVEL=INFO DACE_TRACE=1

echo "==> [7/12] serving-layer suites under TSan (soak, swap, differential"
echo "           incl. PackedF32* packed-path variants, live scrapes)"
(cd build-tsan && env DACE_LOG_LEVEL=INFO DACE_TRACE=1 \
  ctest --output-on-failure -R 'Serve|RegistrySwap')

echo "==> [8/12] observability-disabled build + tests (-DDACE_OBS=OFF)"
cmake -B build-obs-off -S . -DCMAKE_BUILD_TYPE=Release \
  -DDACE_OBS=OFF >/dev/null
cmake --build build-obs-off -j "$JOBS"
run_ctest build-obs-off env

echo "==> [9/12] drift-detector soak + fig07 detector-replay gate"
(cd build && ctest --output-on-failure -R 'DriftSoak|PageHinkley|^KsTest')
./build/bench/bench_fig07_data_drift --wdm_train=300 --test_queries=150 \
  --queries_per_db=30 --epochs=2 --json=BENCH_fig07_drift.json
python3 - <<'EOF'
import json, sys

records = [r for r in json.load(open("BENCH_fig07_drift.json"))["records"]
           if r["name"] == "fig07_drift_detection"]
by_model = {r["model"]: r for r in records}
failures = []

if "mscn" not in by_model:
    failures.append("fig07_drift_detection record for the WDM (mscn) missing")
else:
    wdm = by_model["mscn"]
    # The drifting WDM must be caught by BOTH online detectors.
    if wdm["ph_detected"] != 1:
        failures.append("Page-Hinkley never detected the WDM's accuracy drift")
    if wdm["ks_detected"] != 1:
        failures.append("KS never detected the WDM's accuracy drift")

# Nobody may alarm on the stationary scale-1 prefix.
for model, r in sorted(by_model.items()):
    if r["false_alarms"] != 0:
        failures.append(
            f"{model}: {int(r['false_alarms'])} false alarm(s) on the "
            f"stationary prefix")

if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

for model, r in sorted(by_model.items()):
    def delay(v):
        return f"+{int(v)} obs" if v >= 0 else "never"
    print(f"    {model:5s} false_alarms=0  ph={delay(r['ph_time_to_detect'])}  "
          f"ks={delay(r['ks_time_to_detect'])}")
EOF

echo "==> [10/12] drift-recovery gate (closed-loop adaptation soak records)"
python3 - <<'EOF'
import json, sys

records = {r["name"]: r for r in json.load(open("BENCH_fig07_drift.json"))["records"]
           if r["name"] in ("fig07_soak", "fig07_rollback")}
failures = []

soak = records.get("fig07_soak")
if soak is None:
    failures.append("fig07_soak record missing from BENCH_fig07_drift.json")
else:
    # The loop must have closed: alarm -> fine-tune -> canary -> promote.
    if soak["adapted"] != 1:
        failures.append("adaptation loop never promoted a candidate")
    # Recovery gate: post-adaptation accuracy within 1.5x of pre-drift.
    if soak["recovery_ratio"] > 1.5:
        failures.append(
            f"post-adaptation median q-error {soak['recovered_median']:.3f} is "
            f"{soak['recovery_ratio']:.2f}x the pre-drift baseline "
            f"{soak['pre_drift_median']:.3f} (gate <= 1.5x)")
    # Zero-downtime gate: no request may fail across the canary swaps.
    if soak["requests_failed"] != 0:
        failures.append(
            f"{int(soak['requests_failed'])} request(s) failed during "
            f"adaptation swaps (gate: zero)")

rb = records.get("fig07_rollback")
if rb is None:
    failures.append("fig07_rollback record missing from BENCH_fig07_drift.json")
else:
    # The regressing candidate must be rejected, and rollback must be EXACT:
    # the incumbent object survives and predicts bit-identically.
    if rb["rolledback"] < 1:
        failures.append("forced-regression canary was not rolled back")
    if rb["bit_identical"] != 1:
        failures.append(
            "rollback left the incumbent's predictions not bit-identical")
    if rb["requests_failed"] != 0:
        failures.append(
            f"{int(rb['requests_failed'])} request(s) failed during the "
            f"forced-regression rollback (gate: zero)")

if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

print(f"    soak: pre-drift {soak['pre_drift_median']:.3f} -> drifted "
      f"{soak['drifted_median']:.3f} -> recovered {soak['recovered_median']:.3f} "
      f"({soak['recovery_ratio']:.2f}x pre-drift, gate <= 1.5x)")
print(f"    {int(soak['promoted'])} candidate(s) promoted, generation "
      f"{int(soak['generation'])}, {int(soak['requests'])} requests, 0 failed")
print(f"    forced-regression canary rolled back, incumbent bit-identical")
EOF

echo "==> [11/12] microbenchmarks + speedup/overhead gates (writes BENCH_micro.json)"
./build/bench/bench_micro --json=BENCH_micro.json --benchmark_min_time=0.5
python3 - <<'EOF'
import json, sys

records = {r["name"]: r for r in json.load(open("BENCH_micro.json"))["records"]}
failures = []

# The packed f32 path prices every teacher miss at f32/i8; it exists only
# for speed, so it must never be slower than the per-plan f64 reference.
packed = records.get("packed_f32_vs_perplan_speedup")
if packed is None:
    failures.append("packed_f32_vs_perplan_speedup record missing from BENCH_micro.json")
elif packed["speedup"] < 1.0:
    failures.append(
        f"packed f32 path slower than per-plan reference: "
        f"{packed['speedup']:.3f}x < 1.0x")

# The student tier only earns its keep while it is decisively cheaper than
# the packed f32 teacher it escalates to. 3.0x is the floor, not the target
# (the committed record should sit well above it).
student = records.get("student_vs_teacher_speedup")
if student is None:
    failures.append("student_vs_teacher_speedup record missing from BENCH_micro.json")
elif student["speedup"] < 3.0:
    failures.append(
        f"int8 student tier too close to the packed f32 teacher: "
        f"{student['speedup']:.3f}x < 3.0x")

# Accuracy tracking must be free on the serving hot path: the wait-free
# feedback-ledger write per prediction may cost at most 2% over the bare
# tiered path (the join + drift detectors run on the ReportActual side).
feedback = records.get("feedback_overhead_pct")
if feedback is None:
    failures.append("feedback_overhead_pct record missing from BENCH_micro.json")
elif feedback["overhead_pct"] > 2.0:
    failures.append(
        f"feedback tracking too expensive on the tiered hot path: "
        f"{feedback['overhead_pct']:+.2f}% > +2.00%")

# Accuracy guard: the agreement gate must keep the tiered path's median
# q-error within budget of serving every plan through the teacher.
qerr = records.get("tiered_qerror_budget")
if qerr is None:
    failures.append("tiered_qerror_budget record missing from BENCH_micro.json")
elif qerr["ratio"] > qerr["budget"]:
    failures.append(
        f"tiered q-error outside budget: ratio {qerr['ratio']:.4f} > "
        f"{qerr['budget']:.2f} (tiered {qerr['tiered_median_qerror']:.3f} vs "
        f"teacher {qerr['teacher_median_qerror']:.3f})")

if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

print(f"    packed_f32_vs_perplan_speedup    {packed['speedup']:.2f}x")
print(f"    student_vs_teacher_speedup       {student['speedup']:.2f}x")
print(f"    tiered_qerror_budget             {qerr['ratio']:.4f} (<= {qerr['budget']:.2f})")
print(f"    feedback_overhead_pct            {feedback['overhead_pct']:+.2f}% (<= +2.00%)")
EOF

echo "==> [12/12] plan-selection regret gate (rewrites BENCH_select.json)"
cp BENCH_select.json /tmp/bench_select_baseline.json
./build/bench/bench_select --json=BENCH_select.json
python3 - <<'EOF'
import json, sys

def rows(path):
    return {(r["machine"], r["model"]): r
            for r in json.load(open(path))["records"] if r["name"] == "select_row"}

fresh = rows("BENCH_select.json")
base = rows("/tmp/bench_select_baseline.json")
failures = []

# The native scorer's regret is the floor the enumeration guarantees; DACE's
# is the learned-model number this repository exists to defend. Both must
# stay within 5% of the committed baseline on both machines.
for machine in ("M1", "M2"):
    for model in ("native", "DACE"):
        key = (machine, model)
        if key not in fresh:
            failures.append(f"select_row {key} missing from fresh BENCH_select.json")
            continue
        if key not in base:
            failures.append(f"select_row {key} missing from committed BENCH_select.json")
            continue
        got, want = fresh[key]["mean_regret"], base[key]["mean_regret"]
        if got < 1.0:
            failures.append(f"{model}@{machine}: mean regret {got:.4f} < 1.0 (impossible)")
        if got > want * 1.05 + 1e-9:
            failures.append(
                f"{model}@{machine}: mean selection regret regressed "
                f"{got:.4f} > {want:.4f} * 1.05")

if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)

for machine in ("M1", "M2"):
    for model in ("heuristic", "native", "DACE"):
        r = fresh.get((machine, model))
        if r:
            print(f"    {model:10s}@{machine}  mean_regret {r['mean_regret']:.3f}  "
                  f"pct_optimal {r['pct_optimal']:.1f}%")
EOF

echo "==> all twelve configurations passed"
