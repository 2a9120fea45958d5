"""One pass of a benchmark plan in a fresh interpreter.

    python3 bench/worker.py PLAN.json OUT.json [SPANS.csv.gz]

Imports pochex from the checkout's `src/`, builds every input before the
clock starts, then times each operation in turn (one thread, one closed-loop
caller).  With a spans path the pass runs traced (see tracing.py) and the
span file is written when the pass ends.  OUT.json holds the per-op
latencies, three calibration times (see calibrate), the outputs the parent
checks, peak RSS and, when traced, the per-span self times, call counts and
work counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pochex  # noqa: E402
from pochex import cli, hyper_expand, verify  # noqa: E402
from pochex.hyper_expand import HyperTermSpec, IndexLaw  # noqa: E402
from pochex.pochhammer import LinearParam  # noqa: E402
from workloads import digest  # noqa: E402


def calibrate() -> float:
    """Seconds taken by a fixed exact-arithmetic loop that is not pochex code.

    It expands rising factorials (x + j + s*eps) as Fraction polynomials, the
    kind of work pochex does.  run.py scales each pass's times by this loop's
    nominal over measured time, which cancels the drift of this shared
    machine's speed from one minute to the next.
    """
    t0 = time.perf_counter()
    slope = Fraction(1, 3)
    for c in range(1, 30):
        x = Fraction(c, 7)
        poly = [Fraction(1)]
        for j in range(24):
            nxt = [Fraction(0)] * (len(poly) + 1)
            for i, p in enumerate(poly):
                nxt[i] += p * (x + j)
                nxt[i + 1] += p * slope
            poly = nxt
    return time.perf_counter() - t0


def build_spec(spec: dict) -> HyperTermSpec:
    def factors(entries):
        return [
            (LinearParam(Fraction(c), Fraction(s)), IndexLaw(*law)) for c, s, law in entries
        ]

    return HyperTermSpec(spec["name"], numer=factors(spec["numer"]), denom=factors(spec["denom"]))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def prepare(op: dict):
    """A zero-argument call for the op, built before timing starts.

    Module attributes are looked up when the call runs, so a traced pass
    reaches the wrapped functions.
    """
    kind = op["kind"]
    if kind == "expand_general":
        if "fixed" in op:
            name, delta = op["fixed"]
            spec = hyper_expand.closed_engine_spec(name, None if delta is None else Fraction(delta))
        else:
            spec = build_spec(op["spec"])
        return lambda: hyper_expand.expand_general(spec, op["K"], op["D"])
    if kind == "expand_closed":
        extra = {} if op["delta"] is None else {"delta": Fraction(op["delta"])}
        return lambda: hyper_expand.expand_closed(op["example"], op["K"], op["D"], extra)
    if kind == "delta_dual":
        spec = hyper_expand.closed_engine_spec("dF7_ddelta")
        return lambda: hyper_expand.delta_dual_expand(spec, op["K"], op["D"])
    if kind == "verify_all":
        return lambda: verify.verify_all()
    if kind == "cli":
        return lambda: _run_cli(op["argv"])
    raise ValueError(f"unknown op kind {kind!r}")


def render(op: dict, result) -> dict:
    """What the parent checks, built after timing."""
    kind = op["kind"]
    if kind == "cli":
        code, out, err = result
        return {"exit": code, "stdout": out, "stderr": err}
    if kind == "verify_all":
        return {"summary": [[s.identity, s.points, s.passed] for s in result]}
    record = {"digest": digest(hyper_expand.emit_table(result, "csv")), "entries": len(result.entries)}
    samples = op.get("samples")
    if samples:
        record["samples"] = {
            f"{m1},{m2}": [str(result.get(k, m1, m2)) for k in range(op["K"] + 1)]
            for m1, m2 in samples
        }
    return record


def main(argv) -> int:
    plan_path, out_path = Path(argv[1]), Path(argv[2])
    spans_path = Path(argv[3]) if len(argv) > 3 else None
    if not Path(pochex.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pochex imported from {pochex.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    ops = plan["ops"]
    calls = [prepare(op) for op in ops]
    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, results = [], []
    calibration = [calibrate()]
    clock = time.perf_counter
    for i, call in enumerate(calls):
        if i == len(calls) // 2:
            calibration.append(calibrate())
        t0 = clock()
        try:
            result = tracer.run_op(i, call) if tracer else call()
        except Exception as exc:  # a failed op is recorded; the pass goes on
            result = exc
        latencies.append(clock() - t0)
        results.append(result)
    calibration.append(calibrate())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        # Spans are read before rendering, so rendering is left out of them.
        self_s, span_calls, total_s = tracer.aggregate()
        tracer_record = {
            "self_s": self_s, "calls": span_calls, "total_s": total_s, "counts": dict(tracer.counts)
        }
        tracer.write(spans_path)
    outputs = []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            outputs.append({"exception": type(result).__name__, "message": str(result)})
        else:
            outputs.append(render(op, result))
    record = {
        "latency_s": latencies,
        "calibration_s": calibration,
        "outputs": outputs,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer:
        record["trace"] = tracer_record
    out_path.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
