#!/bin/sh
# Single entry point for the pre-commit checks:
#   1. fast test profile (everything except the @slow figure
#      regenerations, about 2 min: 123 s on a 2-core host; see
#      pytest.ini for the profiles) --
#      explicitly including the scheduling-subsystem modules
#      (tests/scheduling, the seed-compat goldens and the scheduler
#      spec validation), the workload-subsystem modules
#      (tests/workload, the engine op-attribution regression and the
#      workload_compare scenario checks) and the declarative scenario
#      API (tests/scenario: spec validation/round-trip/sweeps, plus
#      the spec-vs-direct golden equivalence in
#      tests/experiments/test_seed_compat.py, the spec-source CLI
#      checks in tests/test_cli.py and the documented-command check in
#      tests/test_cli_docs.py), the three fast example scripts
#      (tests/test_examples.py) and the repository benchmark's own
#      checks (bench/test_bench.py); the slow-marked benches
#      (benchmarks/test_schedulers.py, benchmarks/test_workloads.py)
#      and the three slow examples run in the FULL profile;
#   2. a --dump-spec replay: a registry scenario with a --set override
#      is written as a JSON spec, and run --spec must run that file
#      (--quick);
#   3. the parallel experiment plane: a --jobs 2 sweep persisted to a
#      result store, the serial twin, and a store diff between them
#      (must pair every artifact), then a perf guard on the repository
#      benchmark (three bench/run.py --quick passes, the one measurement
#      plane; see bench/README.md): every run of every pass must be
#      correct ("correct": true, "failed": 0), and each workload's
#      median host-normalised quick wall_s over the three passes must
#      stay at or below a ceiling of 2.5x the median of five quick
#      passes on the reference host -- coarse, and a median, so only a
#      gross kernel or solver slowdown trips it, not one slow pass on a
#      busy host.  The work a run does
#      is pinned exactly by step 1's trace and artifact digests
#      (tests/obs/test_trace_golden.py,
#      tests/results/test_artifact_pins.py), not here.  Three of the
#      four workloads run untraced, so the guard doubles as the
#      observability plane's zero-overhead guard
#      (docs/observability.md);
#   4. an export smoke: run --export writes the artifact a result
#      store holds (a synthetic export used to die with "not JSON
#      serializable"); diff of two exports at different seeds must
#      print a makespan_s row, analyze --artifact on a traced, SLO-bearing
#      export must print its SLO verdict, and diff of an export against
#      a sweep --export document must exit 2 (it used to diff any two
#      JSON objects as identical);
#   5. a bad-spec smoke: sweep cells with a NaN fair-model knob
#      (network.transfer_flow_weight=NaN) or a NaN placement penalty
#      (scheduler.bw_pending_penalty=NaN), each of which used to run to
#      a wrong makespan, and with a NaN admission limit
#      (max_in_flight=NaN), which used to deadlock mid-run, must each
#      be marked errored with the validate() message; run with a
#      NaN compute_time, which used to die mid-run in the kernel
#      ("Invalid delay nan"), and run with a NaN topology.jitter, which
#      used to run jittered under a spec hash of its own, must each
#      exit 2 with the validate() message; run --dump-spec into a
#      missing directory, which used to end in a traceback, must exit 2
#      with an "error:" line; and results on a store holding a sweep
#      --export document, which it used to list as a "?" run, must exit
#      2 with an "error:" line naming the file, and so must analyze
#      --artifact on that sweep document, which it used to refuse as
#      carrying no analysis block (and a JSON list with a traceback);
#   6. an outage smoke: run --set with a whole faults list (JSON
#      objects, which used to end in a traceback) puts a 20 s outage
#      of west-europe into quick paper_synthetic, and the run must
#      print its site-outage-end fault line (the synthetic surface used
#      to wire outages to no registry, so the run ended at 13.233 s,
#      before the outage did); and sweep --set with a whole strategy
#      object of two keys must run it as one cell without error (the
#      sweep used to split it at its comma into two errored cells);
#   7. a trace smoke: a quick fully-traced scenario must export valid,
#      non-empty Chrome trace-event JSON covering the kernel, network,
#      scheduler and span layers (the exporter turns every row of the
#      tracer's event log into an event, kernel rows included);
#   8. an analyze smoke: repro.cli analyze on the SLO-bearing registry
#      scenario must render an observed-critical-path section and an
#      SLO verdict line (docs/observability.md);
#   9. an elasticity smoke: a quick autoscale_ramp run must emit at
#      least one scale_up event under the elastic trace category (read
#      through tracer.events_of("elastic")), repro.cli analyze on it
#      must render the capacity-timeline section the controller
#      records (docs/elasticity.md), and analyze --artifact of the
#      same run's run --export must print the same report from line 2
#      on (the stored elastic block used to lack the priced cost and
#      the timeline);
#  10. a figures smoke: Fig. 8 at CI sizes through the sweep path in
#      two worker processes (repro.cli figures --jobs) must render;
#  11. lint over the source tree: unused imports and yielded
#      timeouts (step 1 also runs tests/test_lint.py, which holds
#      tests/, benchmarks/, examples/, scripts/ and bench/ to the
#      unused-import rule).
#
# Usage, from the repo root:
#   scripts/check.sh            # fast profile + lint
#   FULL=1 scripts/check.sh     # full tier-1 suite + lint (~4-5 min)
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [ "${FULL:-0}" = "1" ]; then
    python -m pytest -x -q tests benchmarks bench
else
    python -m pytest -x -q -m "not slow" tests benchmarks bench
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
python -m repro.cli run --scenario paper_default --set ops_per_task=2 \
    --dump-spec "$TMP/spec.json" > /dev/null
python -m repro.cli run --spec "$TMP/spec.json" --quick > /dev/null
python -m repro.cli sweep --scenario paper_synthetic \
    --set "strategy.name=centralized,hybrid" --quick \
    --jobs 2 --out "$TMP/par" > /dev/null
python -m repro.cli sweep --scenario paper_synthetic \
    --set "strategy.name=centralized,hybrid" --quick \
    --out "$TMP/ser" > /dev/null
python -m repro.cli diff "$TMP/par" "$TMP/ser" > "$TMP/diff.txt"
grep -q "2 paired" "$TMP/diff.txt"
python -m repro.cli results "$TMP/par" > /dev/null
# Perf guard: three quick benchmark passes, each of them correct, and
# each workload's median quick wall_s over the passes (reference-host
# seconds) at or below 2.5x the median of five quick passes, measured
# when the ceilings were set.  One quick pass is one sample per
# workload, and a single pass on a busy host can read 1.7x its median.
for n in 1 2 3; do
    python bench/run.py --quick > "$TMP/bench$n.txt"
done
python - "$TMP/bench1.txt" "$TMP/bench2.txt" "$TMP/bench3.txt" <<'PY'
import json, statistics, sys
from pathlib import Path
lines = [json.loads(Path(p).read_text().splitlines()[-1])
         for p in sys.argv[1:]]
for line in lines:
    if not line["correct"] or line["failed"]:
        sys.exit(f"perf guard: {line['failed']} of {line['attempted']} "
                 "runs failed")
ceilings = {"synthetic_hybrid": 0.22, "montage_slots": 0.41,
            "montage_fair": 0.80, "autoscale_traced": 0.30}
walls = {w: statistics.median(line["metrics"][f"{w}.wall_s"]["value"]
                              for line in lines) for w in ceilings}
slow = [w for w in ceilings if walls[w] > ceilings[w]]
for w in slow:
    print(f"perf guard: {w} median quick wall_s {walls[w]:.3f}s > "
          f"{ceilings[w]}s", file=sys.stderr)
sys.exit(1 if slow else 0)
PY

# Export smoke: one artifact format per run.  Two exports at different
# seeds diff to metric deltas, a traced export analyzes from disk, and
# a sweep document is refused by diff.
python -m repro.cli run --scenario paper_synthetic --quick \
    --export "$TMP/a.json" > /dev/null
python -m repro.cli run --scenario paper_synthetic --quick --set seed=3 \
    --export "$TMP/b.json" > /dev/null
python -m repro.cli diff "$TMP/a.json" "$TMP/b.json" > "$TMP/diff_ab.txt"
grep -Eq "^ *makespan_s \|" "$TMP/diff_ab.txt"
python -m repro.cli run --scenario multi_tenant_slo --quick \
    --export "$TMP/slo.json" > /dev/null
python -m repro.cli analyze --artifact "$TMP/slo.json" > "$TMP/slo.txt"
grep -q "SLO verdict:" "$TMP/slo.txt"
python -m repro.cli sweep --scenario paper_synthetic --set "seed=0,1" \
    --quick --export "$TMP/sweep.json" > /dev/null
rc=0
python -m repro.cli diff "$TMP/a.json" "$TMP/sweep.json" \
    > "$TMP/out.txt" 2>&1 || rc=$?
[ "$rc" = 2 ]
grep -q "^error:" "$TMP/out.txt"

# Bad-spec smoke: NaN passes a "<= 0" check and json.loads accepts it,
# so a NaN knob given to sweep --set must be refused by validate() and
# the cell reported as errored with that message; given to run --set,
# it must stop the run before it starts (exit 2), and so must a NaN
# switch.  An output path in a missing directory exits 2 with "error:",
# and so do a result store holding a document that is no run artifact
# and analyze --artifact on that document.
python -m repro.cli sweep --scenario fanout_bandwidth_aware \
    --set network.transfer_flow_weight=NaN --quick > "$TMP/nan.txt" 2>&1
grep -q "ERROR: ValueError: transfer_flow_weight must be a positive finite" \
    "$TMP/nan.txt"
python -m repro.cli sweep --scenario multi_tenant_8 \
    --set max_in_flight=NaN --quick > "$TMP/nan.txt" 2>&1
grep -q "ERROR: ValueError: max_in_flight must be a positive integer" \
    "$TMP/nan.txt"
python -m repro.cli sweep --scenario fanout_bandwidth_aware \
    --set scheduler.bw_pending_penalty=NaN --quick > "$TMP/nan.txt" 2>&1
grep -q "ERROR: ValueError: bw_pending_penalty must be a finite number >= 0" \
    "$TMP/nan.txt"
rc=0
python -m repro.cli run --scenario paper_default --set compute_time=NaN \
    --quick > "$TMP/nan.txt" 2>&1 || rc=$?
[ "$rc" = 2 ]
grep -q "error: compute_time must be a finite number >= 0" "$TMP/nan.txt"
rc=0
python -m repro.cli run --scenario paper_default --set topology.jitter=NaN \
    --quick > "$TMP/nan.txt" 2>&1 || rc=$?
[ "$rc" = 2 ]
grep -q "error: topology.jitter must be true or false" "$TMP/nan.txt"
rc=0
python -m repro.cli run --scenario paper_default \
    --dump-spec /nonexistent/dir/x.json > "$TMP/out.txt" 2>&1 || rc=$?
[ "$rc" = 2 ]
grep -q "^error:" "$TMP/out.txt"
mkdir "$TMP/mixed"
cp "$TMP/a.json" "$TMP/sweep.json" "$TMP/mixed/"
rc=0
python -m repro.cli results "$TMP/mixed" > "$TMP/out.txt" 2>&1 || rc=$?
[ "$rc" = 2 ]
grep -q "^error: .*sweep.json is not a run artifact" "$TMP/out.txt"
rc=0
python -m repro.cli analyze --artifact "$TMP/sweep.json" \
    > "$TMP/out.txt" 2>&1 || rc=$?
[ "$rc" = 2 ]
grep -q "^error: .*sweep.json is not a run artifact" "$TMP/out.txt"

# Outage smoke: a faults list given as JSON objects becomes FaultSpecs,
# and on the synthetic surface the outage holds the site's registry
# slots, so the run outlasts it and reports its end.  A sweep axis value
# that is a JSON object stays one value.
python -m repro.cli run --scenario paper_synthetic --quick \
    --set 'faults=[{"kind":"site_outage","site":"west-europe","start":0.5,"duration":20.0}]' \
    > "$TMP/outage.txt"
grep -q "site-outage-end" "$TMP/outage.txt"
python -m repro.cli sweep --scenario paper_synthetic --quick \
    --set 'strategy={"name":"hybrid","home_site":"east-us"}' \
    > "$TMP/sweep_obj.txt" 2>&1
grep -q -- "-- 1 combinations" "$TMP/sweep_obj.txt"
if grep -q "ERROR" "$TMP/sweep_obj.txt"; then
    echo "sweep split a JSON object axis value" >&2
    exit 1
fi

# Trace smoke: full tracing on a quick scenario must yield a valid,
# non-empty Chrome trace with every major layer represented.  The
# export reads tracer.events, so it also covers turning the whole log
# (kernel rows and kwargs rows) into events.
python -m repro.cli trace --scenario fanout_bandwidth_aware --quick \
    --out "$TMP/trace.json" > /dev/null
python - "$TMP/trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty Chrome trace"
cats = {e.get("cat") for e in events}
missing = {"kernel", "network", "scheduler", "span"} - cats
assert not missing, f"trace missing categories: {sorted(missing)}"
PY

# Analyze smoke: the trace-analysis plane must turn a quick traced
# run into a bottleneck report with an observed critical path and a
# judged SLO verdict.
python -m repro.cli analyze --scenario multi_tenant_slo --quick \
    > "$TMP/analyze.txt"
grep -qi "observed critical path" "$TMP/analyze.txt"
grep -q "SLO verdict:" "$TMP/analyze.txt"

# Elasticity smoke: the autoscaler must actually scale on the ramp
# scenario (>= 1 scale_up trace event, read by category), the analyze
# report must carry the capacity timeline the controller records, and
# the stored run's report must equal the live one below its header.
python - <<'PY'
from repro.scenario import get_scenario

res = get_scenario("autoscale_ramp").run(quick=True)
ups = [
    (ts, args)
    for ts, _, name, args in res.tracer.events_of("elastic")
    if name == "scale_up"
]
assert ups, "autoscale_ramp --quick ordered no capacity"
assert res.elastic is not None and res.elastic.stranded_tasks == 0
PY
python -m repro.cli analyze --scenario autoscale_ramp --quick \
    > "$TMP/elastic.txt"
grep -q "capacity timeline" "$TMP/elastic.txt"
grep -q "elastic policy predictive" "$TMP/elastic.txt"
python -m repro.cli run --scenario autoscale_ramp --quick \
    --export "$TMP/ramp.json" > /dev/null
python -m repro.cli analyze --artifact "$TMP/ramp.json" \
    > "$TMP/elastic_stored.txt"
tail -n +2 "$TMP/elastic.txt" > "$TMP/live_body.txt"
tail -n +2 "$TMP/elastic_stored.txt" > "$TMP/stored_body.txt"
diff "$TMP/live_body.txt" "$TMP/stored_body.txt"

# Figures smoke: the paper's figures run as scenario sweeps; Fig. 8's
# 16 quick cells in two workers must render the figure.
python -m repro.cli figures --quick --only fig8 --jobs 2 > "$TMP/fig8.txt"
grep -q "Fig. 8" "$TMP/fig8.txt"

python -m repro.util.lint src

echo "check: all green"
