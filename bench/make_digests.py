"""Write bench/digests.json: reference digests of every fixed benchmark output.

    python3 bench/make_digests.py

Run from a checkout whose outputs are trusted.  Before a digest is written,
the output is confirmed by a route independent of the one the benchmark
times: each engine table must equal its closed form, each closed form its
engine table, the dual-number table the dF7_ddelta closed form, and the
`tables` output must contain the frozen 84-entry F5 table of the acceptance
tests.  Any disagreement stops the script before anything is written.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pochex import cli  # noqa: E402
from pochex.hyper_expand import (  # noqa: E402
    closed_engine_spec,
    delta_dual_expand,
    emit_table,
    expand_closed,
    expand_general,
    regroup_total_degree,
)
from pochex.verify import verify_all  # noqa: E402

import workloads as w  # noqa: E402
from workloads import digest, op_key  # noqa: E402


def _frozen_f5() -> dict:
    path = ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN_F5


def _agree(a, b, what: str):
    if a.entries != b.entries:
        sys.exit(f"make_digests: {what}: closed form and engine disagree")
    print(f"confirmed {what} ({len(a.entries)} entries)", flush=True)


def main() -> int:
    digests = {}
    for name, delta, d in w.ENGINE_FIXED:
        op = {"kind": "expand_general", "fixed": [name, delta], "K": w.EPS_ORDER, "D": d}
        value = None if delta is None else Fraction(delta)
        engine = expand_general(closed_engine_spec(name, value), w.EPS_ORDER, d)
        extra = {} if delta is None else {"delta": value}
        _agree(expand_closed(name, w.EPS_ORDER, d, extra), engine, op_key(op))
        digests[op_key(op)] = digest(emit_table(engine, "csv"))

    for example in w.CLOSED_EXAMPLES:
        deltas = w.CLOSED_DELTAS if example in ("F6", "F6_alt", "F7") else (None,)
        for delta in deltas:
            op = {"kind": "expand_closed", "example": example, "delta": delta,
                  "K": w.CLOSED_K, "D": w.CLOSED_D}
            value = None if delta is None else Fraction(delta)
            extra = {} if delta is None else {"delta": value}
            closed = expand_closed(example, w.CLOSED_K, w.CLOSED_D, extra)
            if example == "dF7_ddelta":
                engine = delta_dual_expand(closed_engine_spec(example), w.CLOSED_K, w.CLOSED_D)
            else:
                engine = expand_general(closed_engine_spec(example, value), w.CLOSED_K, w.CLOSED_D)
            _agree(closed, engine, op_key(op))
            digests[op_key(op)] = digest(emit_table(closed, "csv"))

    op = {"kind": "delta_dual", "K": w.DUAL_K, "D": w.DUAL_D}
    dual = delta_dual_expand(closed_engine_spec("dF7_ddelta"), w.DUAL_K, w.DUAL_D)
    _agree(expand_closed("dF7_ddelta", w.DUAL_K, w.DUAL_D), dual, op_key(op))
    digests[op_key(op)] = digest(emit_table(dual, "csv"))

    op = {"kind": "cli", "argv": w.TABLES_ARGV}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(w.TABLES_ARGV))
    lo, hi = (int(x) for x in w.TABLES_ARGV[2].split(".."))
    max_m = int(w.TABLES_ARGV[4])
    engine = regroup_total_degree(expand_general(closed_engine_spec("F5"), hi, max_m))
    kept = {key: v for key, v in engine.entries.items() if key[0] >= lo}
    rows = out.getvalue().splitlines()
    got = {tuple(int(x) for x in r.split(",")[:3]): Fraction(r.split(",")[3]) for r in rows[1:]}
    frozen = _frozen_f5()
    if code != 0 or got != kept or any(got[key] != v for key, v in frozen.items()):
        sys.exit("make_digests: tables output disagrees with the engine or the frozen F5 table")
    print(f"confirmed {op_key(op)} ({len(got)} entries, {len(frozen)} frozen)", flush=True)
    digests[op_key(op)] = digest(out.getvalue())

    summaries = verify_all()
    if not all(s.passed for s in summaries):
        sys.exit("make_digests: verify_all reports a failing relation")
    digests["verify_all"] = [s.identity for s in summaries]

    path = Path(__file__).with_name("digests.json")
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
