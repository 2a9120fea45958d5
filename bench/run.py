"""The pochex benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it imports pochex from `src/`).  The seed
makes the workload's inputs (workloads.py); each pass then runs the whole
workload once in a fresh interpreter with one thread (worker.py), so module
caches start empty as they do for a CLI user.  Passes repeat, one at a time,
until the next would end after S seconds.  Each op's latency is its median
over the passes; times are scaled to reference-machine seconds by a
calibration loop timed in every pass (worker.calibrate).  Outputs of the
first pass are checked by independent routes (checks.py) and every later
pass must repeat them exactly.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (tracing.py).  Human-readable
lines come first; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import POCH_METHODS, RECIP_METHODS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_PER_PASS = 2  # set-up samples taken before each untraced pass
# Seconds the calibration loop (worker.calibrate) took on the reference
# machine.  Every reported time is scaled by this over the loop's median time
# in the same pass, i.e. it is given in reference-machine seconds.
CALIBRATION_NOMINAL_S = 0.1
MIN_TRACED_PAIRS = 2
RUN_LIMIT_S = 150  # stop starting passes after this, whatever --seconds says
SETUP_ARGV = ["poch", "--alpha", "1", "-m", "1", "-k", "0"]
# Exactly what the installed `pochex` console script runs.
SETUP_CODE = "import sys; from pochex.cli import main; sys.exit(main(sys.argv[1:]))"

LAYERS = (
    "cli", "specfile", "hyper_expand", "pochhammer", "series",
    "combinatorics", "partial_fractions", "duals", "verify",
)
# Per-layer self times summed over these span names (see tracing.py).
SELF_TIMES = {
    "pochhammer.poch_eps_series.s": ["pochhammer.poch_eps_series"],
    "series.mul.s": ["series.mul"],
    "series.invert.s": ["series.series_invert"],
    "hyper_expand.expand_general.s": ["hyper_expand.expand_general"],
    "pochhammer.pochhammer.s": ["pochhammer.pochhammer"],
    "hyper_expand.expand_closed.s": ["hyper_expand.expand_closed"],
    "duals.delta_dual_expand.s": ["hyper_expand.delta_dual_expand"],
    "verify.identity.s": ["verify.identity_eval", "verify.run_identity"],
    "verify.genfun.s": ["verify.genfun_check", "verify.run_genfun"],
    **{f"pochhammer.poch_deriv.{m}.s": [f"pochhammer.poch_deriv.{m}"] for m in POCH_METHODS},
    **{
        f"pochhammer.recip_poch_deriv.{m}.s": [f"pochhammer.recip_poch_deriv.{m}"]
        for m in RECIP_METHODS
    },
    "combinatorics.gen_bernoulli_poly.s": ["combinatorics.gen_bernoulli_poly"],
    "combinatorics.stirling_s1.s": ["combinatorics.stirling_s1"],
    "cli.main.s": ["cli.main"],
    "specfile.parse.s": ["specfile.parse_spec_text", "specfile.parse_quotient_text"],
    "partial_fractions.decompose_multi.s": ["partial_fractions.decompose_multi"],
    "pochhammer.recip_poch_laurent.s": ["pochhammer.recip_poch_laurent"],
    "pochhammer.quotient_deriv.s": ["pochhammer.quotient_deriv"],
    "hyper_expand.emit_table.s": ["hyper_expand.emit_table"],
    "bench.op.s": ["bench.op"],
}
# Total (inclusive) time of each derivative method: its self time is small,
# because the work happens in the combinatorics and series calls it makes.
TOTAL_TIMES = {
    **{f"pochhammer.poch_deriv.{m}.total_s": f"pochhammer.poch_deriv.{m}" for m in POCH_METHODS},
    **{
        f"pochhammer.recip_poch_deriv.{m}.total_s": f"pochhammer.recip_poch_deriv.{m}"
        for m in RECIP_METHODS
    },
}
CALL_COUNTS = {
    "pochhammer.poch_eps_series.calls": ["pochhammer.poch_eps_series"],
    "series.mul.calls": ["series.mul"],
    "series.invert.calls": ["series.series_invert"],
    "pochhammer.pochhammer.calls": ["pochhammer.pochhammer"],
    "verify.points": ["verify.identity_eval", "verify.genfun_check"],
    "combinatorics.gen_bernoulli_poly.calls": ["combinatorics.gen_bernoulli_poly"],
    "combinatorics.stirling_s1.calls": ["combinatorics.stirling_s1"],
}
WORK_COUNTS = (
    "pochhammer.poch_eps_series.length_sum",
    "hyper_expand.lattice_points",
    "hyper_expand.max_coeff_bits",
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> tuple[float, bool]:
    """Wall time of a fresh `pochex poch --alpha 1 -m 1 -k 0` process."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *SETUP_ARGV],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
    )
    return time.perf_counter() - t0, done.returncode == 0 and done.stdout == "1\n"


def run_pass(plan_path: Path, out_path: Path, spans_path: Path | None) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(out_path)]
    if spans_path is not None:
        argv.append(str(spans_path))
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=170)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"pass failed with exit {done.returncode}:\n{done.stderr[-2000:]}")
    record = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    record["wall_s"] = wall
    record["busy_s"] = sum(record["latency_s"])
    return record


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of the values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else ref
    return ref


def speed_scale(p: dict) -> float:
    """Factor that turns this pass's seconds into reference-machine seconds."""
    return CALIBRATION_NOMINAL_S / statistics.median(p["calibration_s"])


def end_to_end(op_entries, passes, failures) -> dict:
    ok = [f is None for f in failures]
    good_entries = sum(n for n, good in zip(op_entries, ok) if good)
    completed = sum(ok)
    # Each op's latency is its median over the passes, so a slow spell on the
    # shared machine during one pass counts once per op.
    op_latency = [
        statistics.median(lats)
        for lats in zip(*([lat * speed_scale(p) for lat in p["latency_s"]] for p in passes))
    ]
    busy = sum(op_latency)
    # Failed ops stay out of the latency quantiles, unless every op failed.
    latency_ms = [1000.0 * lat for lat, good in zip(op_latency, ok) if good or not completed]
    setup = [t * speed_scale(p) for p in passes for t in p["setup_s"]]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "entries_per_s": (good_entries / busy, "1/s"),
        "ops_per_s": (completed / busy, "1/s"),
        "op_p50_ms": (quantile(latency_ms, 50), "ms"),
        "op_p99_ms": (quantile(latency_ms, 99), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] / 1024 for p in passes), "MB"),
    }


def per_layer(untraced, traced) -> dict:
    def med(fn):
        """Median over traced passes of a time, in reference-machine seconds."""
        return statistics.median(fn(p["trace"]) * speed_scale(p) for p in traced)

    def self_sum(names):
        return lambda t: sum(t["self_s"].get(n, 0.0) for n in names)

    def prefixed(layer, field):
        return lambda t: sum(v for k, v in t[field].items() if k.split(".")[0] == layer)

    first = traced[0]["trace"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"layer.{layer}.s"] = (med(prefixed(layer, "self_s")), "s")
        metrics[f"layer.{layer}.calls"] = (prefixed(layer, "calls")(first), "count")
    for name, spans in SELF_TIMES.items():
        metrics[name] = (med(self_sum(spans)), "s")
    for name, span in TOTAL_TIMES.items():
        metrics[name] = (med(lambda t: t["total_s"].get(span, 0.0)), "s")
    for name, spans in CALL_COUNTS.items():
        metrics[name] = (sum(first["calls"].get(n, 0) for n in spans), "count")
    for name in WORK_COUNTS:
        metrics[name] = (first["counts"].get(name, 0), "bits" if name.endswith("bits") else "count")
    calls = first["calls"].get("combinatorics.gen_bernoulli_poly", 0)
    repeats = first["counts"].get("combinatorics.gen_bernoulli_poly.repeats", 0)
    metrics["combinatorics.gen_bernoulli_poly.repeat_ratio"] = (repeats / calls if calls else 0.0, "ratio")
    untraced_busy = statistics.median(p["busy_s"] * speed_scale(p) for p in untraced)
    traced_busy = statistics.median(p["busy_s"] * speed_scale(p) for p in traced)
    metrics["trace.untraced_busy_s"] = (untraced_busy, "s")
    metrics["trace.self_sum_s"] = (med(lambda t: sum(t["self_s"].values())), "s")
    metrics["trace.overhead_s"] = (traced_busy - untraced_busy, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pochex" / "__init__.py").is_file():
        return fail(f"no pochex sources under {SRC}; run from a pochex checkout")
    benchmark_file = ROOT / "BENCHMARK.json"
    if not benchmark_file.is_file():
        return fail(f"missing {benchmark_file}")
    declared = json.loads(benchmark_file.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from checks import KNOWN_DEFECTS, check, entries

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    workdir = BENCH / "out" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.make_plan(args.workload, args.seed, workdir)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    spans_path = workdir / "spans.csv.gz"

    started = time.perf_counter()
    untraced, traced, setup_ok = [], [], True
    try:
        while True:
            if args.trace:
                untraced.append(run_pass(plan_path, workdir / "pass.json", None))
                traced.append(run_pass(plan_path, workdir / "pass.json", spans_path))
                step = untraced[-1]["wall_s"] + traced[-1]["wall_s"]
                enough = len(traced) >= MIN_TRACED_PAIRS
            else:
                samples = []
                for _ in range(SETUP_PER_PASS):
                    sample, good = measure_setup()
                    samples.append(sample)
                    setup_ok &= good
                untraced.append(run_pass(plan_path, workdir / "pass.json", None))
                # Set-up samples are scaled by the speed of the pass after them.
                untraced[-1]["setup_s"] = samples
                step = sum(samples) + untraced[-1]["wall_s"]
                enough = len(untraced) >= MIN_PASSES
            elapsed = time.perf_counter() - started
            if enough and (elapsed + step > args.seconds or elapsed + step > RUN_LIMIT_S):
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    # Checks, after all timing: the first pass by independent routes, every
    # other pass (traced ones too) by equality with the first.
    ops = plan["ops"]
    reference = untraced[0]["outputs"]
    failures = [check(op, out) for op, out in zip(ops, reference)]
    for p in untraced[1:] + traced:
        for i, out in enumerate(p["outputs"]):
            if out != reference[i]:
                failures[i] = f"unexpected: op {i} output differs between passes"
    run_errors = []
    if traced and any(p["trace"]["calls"] != traced[0]["trace"]["calls"] for p in traced):
        run_errors.append("traced passes made different calls")
    if not setup_ok:
        run_errors.append("the set-up command printed a wrong result")
    unexpected = run_errors + [f for f in failures if f is not None and f not in KNOWN_DEFECTS]
    all_passes = untraced + traced
    attempted = len(ops) * len(all_passes)
    failed = sum(f is not None for f in failures) * len(all_passes)

    if args.trace:
        metrics = per_layer(untraced, traced)
        wanted = [m["name"] for m in declared["per_layer"]]
    else:
        metrics = end_to_end([entries(op) for op in ops], untraced, failures)
        wanted = [m["name"] for m in declared["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        return fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")

    print(f"# pochex benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, git {git_sha()}")
    per_pass_entries = sum(entries(op) for op in ops)
    print(f"# per pass: {len(ops)} ops, {per_pass_entries} entries; "
          f"{len(untraced)} untraced and {len(traced)} traced passes; draws {json.dumps(plan['stats'])}")
    if not args.trace:
        scales = [speed_scale(p) for p in untraced]
        print(f"# latency over {sum(f is None for f in failures)} completed ops, each the "
              f"median of {len(untraced)} passes; setup over {SETUP_PER_PASS * len(untraced)} processes; "
              f"times in reference-machine seconds, scaled by {min(scales):.3f}..{max(scales):.3f} "
              f"(raw busy time per pass {statistics.median(p['busy_s'] for p in untraced):.3f} s)")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    print(f"fail_ratio {failed}/{attempted}")
    for name in sorted({f for f in failures if f is not None}):
        note = KNOWN_DEFECTS.get(name, "NOT A KNOWN DEFECT")
        print(f"#   failure {name} x{failures.count(name)} per pass: {note}")
    for error in run_errors:
        print(f"#   run error: {error}")
    if args.trace:
        m = metrics
        gap = abs(m["trace.self_sum_s"][0] - m["trace.untraced_busy_s"][0])
        print(f"# self times sum to {m['trace.self_sum_s'][0]:.4f} s against "
              f"{m['trace.untraced_busy_s'][0]:.4f} s untraced: gap {gap:.4f} s, "
              f"tracing overhead {m['trace.overhead_s'][0]:.4f} s; spans in {spans_path.relative_to(ROOT)}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
