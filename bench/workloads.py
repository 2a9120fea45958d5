"""Seeded input generators for the three benchmark workloads.

A plan is plain JSON: a list of operations plus the draw statistics the run
reports.  Generation never imports pochex, so the program only ever sees the
generated inputs.  Rationals travel as `p/q` strings.

Operation kinds, executed by `worker.py`:

    expand_general  {"spec": <spec>|"fixed": [name, delta], "K", "D"}
    expand_closed   {"example", "delta", "K", "D"}
    delta_dual      {"K", "D"}                (dF7 on Dual scalars)
    verify_all      {}
    cli             {"argv": [...], "cls": request class, "check": {...}}
                    invalid requests carry "error_class" instead of "check"

A <spec> is {"name", "numer": [[c, s, [c0, c1, c2]], ...], "denom": [...]},
one entry per rising factorial (c + s*eps)_{c0 + c1*m1 + c2*m2}.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from pathlib import Path

EPS_ORDER = 6

# engine-deep: the engine specs of F1, F5 and F6, then seeded random specs.
ENGINE_FIXED = (("F1", None, 18), ("F5", None, 30), ("F6", "1/3", 18))
ENGINE_RANDOM = 3
ENGINE_RANDOM_D = 16
# Every random spec's index-law coefficients c1 + c2 sum to this value, so the
# lattice work of a draw is roughly fixed while its coefficient height (set by
# the random constants and slopes) varies from under 100 to about 1,000 bits.
ENGINE_LAW_TOTAL = 8
ENGINE_SAMPLES = 6
TINY_LAW_TOTAL = 6  # law total of the small `expand --spec` queries (at most 6 factors)

# closed-catalog: moderate (K, D) for every closed form; delta from the seed.
CLOSED_K, CLOSED_D = 4, 12
CLOSED_DELTAS = ("1/3", "1/2", "2/5", "3/4")
CLOSED_EXAMPLES = ("F1", "F2", "F3", "F4", "F5", "F6", "F6_alt", "F7", "dF7_ddelta")
TABLES_ARGV = ["tables", "--k", "0..3", "--max-m", "12"]
DUAL_K, DUAL_D = 4, 10

# point-queries: the request mix, dealt per seed (see _QueryGen).  poch and
# recip requests: per method, each m in M_VALUES with each (argument
# denominator, k) pair, plus as many repeats: 5*13*3*2 = 390 and 4*13*2*2 = 208.
M_VALUES = tuple(range(0, 61, 5))
POCH_DENOMINATORS = ((1, 0), (3, 3), (7, 6))
RECIP_DENOMINATORS = ((2, 1), (5, 4))
QUERY_COUNTS = (
    ("laurent", 96),
    ("quotient", 150),
    ("quotient_negfrac", 12),
    ("pf", 140),
    ("expand_spec", 72),
    ("expand_closed", 72),
    ("invalid", 60),
)
SMALL_SIZES = tuple((K, D) for K in range(3) for D in range(1, 4))  # tiny expand calls
POCH_METHODS = ("recurrence", "stirling_sum", "coffey", "bernoulli", "series_oracle")
RECIP_METHODS = ("recurrence", "closed_sum", "delta_form", "series_oracle")
# Error classes of invalid requests.  Each must exit 1 with a `pochex ...:
# error:` line on stderr and nothing on stdout.
ERROR_CLASSES = ("recip_pole", "negative_m", "bad_method", "laurent_m_le_n", "delta_pole")
POLE_DELTAS = ("-1", "-2")


def _rational(rng, span=3, max_den=7) -> Fraction:
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * q, span * q), q)


def _slope(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _cli_rational(x: Fraction) -> Fraction:
    """x, or -x when x is a negative non-integer (see _QueryGen._quotient)."""
    return -x if x < 0 and x.denominator != 1 else x


def _is_pole(constant: Fraction, length: int) -> bool:
    """(constant)_length == 0, i.e. one of its factors vanishes at eps = 0."""
    return constant.denominator == 1 and constant <= 0 and length > -constant


# -- random double-series specs ----------------------------------------------


def _law_split(rng, total: int, slots: int):
    """Random nonzero (c1, c2) pairs in {0,1,2}^2, one per slot, summing to total.

    Each slot starts at 1 and the remaining units go to random slots below 4;
    needs slots <= total <= 4 * slots."""
    sums = [1] * slots
    for _ in range(total - slots):
        sums[rng.choice([i for i, t in enumerate(sums) if t < 4])] += 1
    pairs = []
    for t in sums:
        c1 = rng.randint(max(0, t - 2), min(2, t))
        pairs.append((c1, t - c1))
    return pairs


def random_spec(rng, name: str, degree_bound: int, law_total: int, stats: dict) -> dict:
    """A random spec whose denominator has no pole on the lattice.

    2-3 numerator and 1-3 denominator factors, constants with denominators up
    to 7, slopes +-1..3 over 1..3, index-law coefficients in {0, 1, 2}.  Draws
    with a denominator pole (the engine would raise PoleError) are rerolled and
    counted in stats["pole_rerolls"].
    """
    while True:
        n_num, n_den = rng.randint(2, 3), rng.randint(1, 3)
        pairs = _law_split(rng, law_total, n_num + n_den)
        factors = [
            [_rational(rng), _slope(rng), [rng.randint(0, 2), c1, c2]]
            for c1, c2 in pairs
        ]
        denom = factors[n_num:]
        if any(
            _is_pole(c, law[0] + max(law[1], law[2]) * degree_bound)
            for c, _, law in denom
        ):
            stats["pole_rerolls"] = stats.get("pole_rerolls", 0) + 1
            continue
        as_text = lambda fs: [[str(c), str(s), law] for c, s, law in fs]
        return {"name": name, "numer": as_text(factors[:n_num]), "denom": as_text(denom)}


def spec_text(spec: dict, eps_order: int, degree_bound: int) -> str:
    """The spec in the `expand --spec` file format."""
    lines = ["[function]", f"name = {spec['name']}"]
    for section in ("numer", "denom"):
        lines.append("[numerator]" if section == "numer" else "[denominator]")
        for c, s, (c0, c1, c2) in spec[section]:
            lines.append(f"poch = {c} {s} : {c0} {c1} {c2}")
    lines += ["[options]", f"eps_order = {eps_order}", f"degree_bound = {degree_bound}"]
    return "\n".join(lines) + "\n"


def delta_spec(example: str, delta: Fraction) -> dict:
    """The engine spec of F6 or F7 at a given delta, with delta substituted."""
    one = 1 + delta
    if example in ("F6", "F6_alt"):
        numer = [[one, 0, [0, 1, 1]], [one, -1, [0, 1, 1]], [1, 0, [0, 1, 0]]]
        denom = [[one, 0, [0, 1, 0]], [1, -1, [0, 1, 0]], [one, 1, [0, 0, 1]]]
    else:
        numer = [[one, 0, [0, 1, 1]], [one, 1, [0, 1, 1]], [1, 0, [0, 1, 0]]]
        denom = [[one, 0, [0, 1, 0]], [1, 1, [0, 1, 0]], [one, 1, [0, 0, 1]]]
    text = lambda fs: [[str(Fraction(c)), str(Fraction(s)), law] for c, s, law in fs]
    return {"name": example, "numer": text(numer), "denom": text(denom)}


def digest(text: str) -> str:
    """sha256 of an output, as stored in digests.json."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def op_key(op: dict) -> str:
    """The digests.json key of a fixed op."""
    if op["kind"] == "expand_general":
        name, delta = op["fixed"]
        return f"expand_general:{name}:{delta or '-'}:{op['K']}:{op['D']}"
    if op["kind"] == "expand_closed":
        return f"expand_closed:{op['example']}:{op['delta'] or '-'}:{op['K']}:{op['D']}"
    if op["kind"] == "delta_dual":
        return f"delta_dual:{op['K']}:{op['D']}"
    return "cli:" + " ".join(op["argv"])


# -- workloads ----------------------------------------------------------------


def engine_deep(rng, workdir: Path) -> dict:
    stats = {"pole_rerolls": 0}
    ops = [
        {"kind": "expand_general", "fixed": [name, delta], "K": EPS_ORDER, "D": d}
        for name, delta, d in ENGINE_FIXED
    ]
    d = ENGINE_RANDOM_D
    for i in range(ENGINE_RANDOM):
        spec = random_spec(rng, f"random{i}", d, ENGINE_LAW_TOTAL, stats)
        # Lattice points whose coefficients are checked by an independent route.
        samples = [[0, 0], [d, 0], [0, d]]
        for _ in range(ENGINE_SAMPLES - len(samples)):
            m1 = rng.randint(0, d)
            samples.append([m1, rng.randint(0, d - m1)])
        ops.append({"kind": "expand_general", "spec": spec, "K": EPS_ORDER, "D": d, "samples": samples})
    return {"ops": ops, "stats": stats}


def closed_catalog(rng, workdir: Path) -> dict:
    delta = rng.choice(CLOSED_DELTAS)
    ops = [
        {
            "kind": "expand_closed",
            "example": example,
            "delta": delta if example in ("F6", "F6_alt", "F7") else None,
            "K": CLOSED_K,
            "D": CLOSED_D,
        }
        for example in CLOSED_EXAMPLES
    ]
    ops.append({"kind": "cli", "cls": "tables", "argv": TABLES_ARGV})
    ops.append({"kind": "delta_dual", "K": DUAL_K, "D": DUAL_D})
    ops.append({"kind": "verify_all"})
    return {"ops": ops, "stats": {"delta": delta}}


def _deck(rng, values, n: int) -> list:
    """n values dealt in shuffled rounds of `values`, each value once a round."""
    out = []
    while len(out) < n:
        batch = list(values)
        rng.shuffle(batch)
        out += batch
    return out[:n]


class _QueryGen:
    """Builds the point-query stream.

    The mix is dealt, not sampled: every seed gets the same number of
    requests of each class, method, size and error class, so the slow ones
    (a cold Bernoulli-method call at large m) are as many on every seed, and
    the seed varies the arguments and the order.
    """

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.files = 0
        self.stats = {"pole_rerolls": 0, "repeated_root_rerolls": 0}

    def _write(self, text: str, stem: str) -> str:
        path = self.workdir / f"{stem}{self.files}.txt"
        self.files += 1
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _derivatives(self, command: str, arg: str, methods, denominators, valid) -> list:
        """Per method: each m in M_VALUES once with each (denominator, k) pair,
        the argument's numerator drawn from [-5q, 5q]; plus as many repeats of
        an earlier request of the same method.  A repeat asks for the same
        argument, m and k, so the Bernoulli cache answers it.  Fixing the
        (m, k) pairs keeps the slowest requests alike from seed to seed."""
        rng = self.rng
        ops = []
        for method in methods:
            triples = [(m, q, min(m, k)) for m in M_VALUES for q, k in denominators]
            rng.shuffle(triples)
            fresh = []
            for m, q, k in triples:
                value = Fraction(rng.randint(-5 * q, 5 * q), q)
                while not valid(value, m):
                    self.stats["pole_rerolls"] += 1
                    value = Fraction(rng.randint(-5 * q, 5 * q), q)
                fresh.append((value, m, k))
            for value, m, k in fresh + [rng.choice(fresh) for _ in fresh]:
                ops.append({
                    "cls": command,
                    "argv": [command, f"--{arg}={value}", "-m", str(m), "-k", str(k), "--method", method],
                    "check": {arg: str(value), "m": m, "k": k, "method": method},
                })
        return ops

    def poch(self) -> list:
        return self._derivatives("poch", "alpha", POCH_METHODS, POCH_DENOMINATORS, lambda a, m: True)

    def recip(self) -> list:
        return self._derivatives(
            "recip", "beta", RECIP_METHODS, RECIP_DENOMINATORS, lambda b, m: not _is_pole(b, m)
        )

    def laurent(self, n_ops: int) -> list:
        rng = self.rng
        ops = []
        for n, order in zip(_deck(rng, range(6), n_ops), _deck(rng, range(7), n_ops)):
            m, b = rng.randint(n + 1, n + 12), _slope(rng)
            argv = ["recip", "--laurent", "-n", str(n), f"-b={b}", "-m", str(m), "--order", str(order)]
            ops.append({"cls": "laurent", "argv": argv,
                        "check": {"n": n, "b": str(b), "m": m, "order": order}})
        return ops

    def _quotient(self, k: int, negative_fraction: bool) -> dict:
        """`--num A a --den B b` take two tokens each, and argparse reads a token
        like `-3/2` as an option, so ordinary draws keep to values the CLI can
        take (no negative non-integers).  `quotient_negfrac` requests put one
        such value in on purpose: they are valid and expected to succeed."""
        rng = self.rng
        while True:
            A, a, B, b = (_cli_rational(_rational(rng)), _cli_rational(_slope(rng)),
                          _cli_rational(_rational(rng)), _cli_rational(_slope(rng)))
            if negative_fraction:
                A = -Fraction(2 * rng.randint(0, 3) + 1, 2)
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            at = Fraction(0) if rng.random() < 0.5 else _rational(rng, span=1, max_den=4)
            if not any(B + b * at + j == 0 for j in range(n)):
                break
            self.stats["pole_rerolls"] += 1
        argv = [
            "quotient", "--num", f"{A}", f"{a}", "-m", str(m),
            "--den", f"{B}", f"{b}", "-n", str(n), "-k", str(k), f"--at={at}",
        ]
        check = {"A": str(A), "a": str(a), "B": str(B), "b": str(b), "m": m, "n": n, "k": k, "at": str(at)}
        return {"cls": "quotient_negfrac" if negative_fraction else "quotient", "argv": argv, "check": check}

    def quotient(self, n_ops: int) -> list:
        return [self._quotient(k, False) for k in _deck(self.rng, range(6), n_ops)]

    def quotient_negfrac(self, n_ops: int) -> list:
        return [self._quotient(k, True) for k in _deck(self.rng, range(6), n_ops)]

    def _pf(self) -> dict:
        """A quotient drawn as in acceptance criterion 9; repeated roots rerolled."""
        rng = self.rng
        while True:
            denom = [
                (Fraction(rng.randint(-4, 6), rng.randint(1, 3)), _slope(rng), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ]
            budget = sum(n for *_, n in denom)
            numer = []
            for _ in range(rng.randint(0, 2)):
                m = rng.randint(0, budget)
                budget -= m
                numer.append(
                    (Fraction(rng.randint(-4, 6), rng.randint(1, 3)), _slope(rng), m)
                )
            poles = [-(c + j) / s for c, s, n in denom for j in range(n)]
            if len(set(poles)) == len(poles):
                break
            self.stats["repeated_root_rerolls"] += 1
        lines = ["[numerator]"] + [f"poch = {c} {s} : {m}" for c, s, m in numer]
        lines += ["[denominator]"] + [f"poch = {c} {s} : {n}" for c, s, n in denom]
        path = self._write("\n".join(lines) + "\n", "quotient")
        as_text = lambda fs: [[str(c), str(s), n] for c, s, n in fs]
        return {"cls": "pf", "argv": ["pf", "--spec", path],
                "check": {"numer": as_text(numer), "denom": as_text(denom)}}

    def pf(self, n_ops: int) -> list:
        return [self._pf() for _ in range(n_ops)]

    def expand_spec(self, n_ops: int) -> list:
        ops = []
        for K, D in _deck(self.rng, SMALL_SIZES, n_ops):
            spec = random_spec(self.rng, "tiny", D, TINY_LAW_TOTAL, self.stats)
            path = self._write(spec_text(spec, K, D), "series")
            ops.append({"cls": "expand_spec", "argv": ["expand", "--spec", path],
                        "check": {"spec": spec, "K": K, "D": D}})
        return ops

    def expand_closed(self, n_ops: int) -> list:
        rng = self.rng
        ops = []
        for example, (K, D), regroup, fmt in zip(
            _deck(rng, CLOSED_EXAMPLES, n_ops),
            _deck(rng, SMALL_SIZES, n_ops),
            _deck(rng, ("lattice", "total"), n_ops),
            _deck(rng, ("csv", "aligned"), n_ops),
        ):
            argv = ["expand", "--closed", example, "--eps-order", str(K), "--degree-bound", str(D)]
            delta = None
            if example in ("F6", "F6_alt", "F7"):
                delta = rng.choice(CLOSED_DELTAS)
                argv.append(f"--delta={delta}")
            argv += ["--regroup", regroup, "--format", fmt]
            check = {"example": example, "delta": delta, "K": K, "D": D, "regroup": regroup, "format": fmt}
            ops.append({"cls": "expand_closed", "argv": argv, "check": check})
        return ops

    def _invalid(self, error_class: str, pole_case) -> dict:
        rng = self.rng
        if error_class == "recip_pole":
            m = rng.randint(1, 20)
            argv = ["recip", f"--beta={-rng.randint(0, m - 1)}", "-m", str(m), "-k", str(rng.randint(0, 4))]
        elif error_class == "negative_m":
            command = rng.choice(("poch", "recip"))
            arg = "--alpha=1/2" if command == "poch" else "--beta=1/2"
            argv = [command, arg, "-m", str(-rng.randint(1, 5)), "-k", "1"]
        elif error_class == "bad_method":
            command = rng.choice(("poch", "recip"))
            arg = "--alpha=1/3" if command == "poch" else "--beta=1/3"
            argv = [command, arg, "-m", "4", "-k", "1", "--method", rng.choice(("taylor", "fast", "pade"))]
        elif error_class == "laurent_m_le_n":
            n = rng.randint(1, 6)
            argv = ["recip", "--laurent", "-n", str(n), "-b", "1", "-m", str(rng.randint(0, n)), "--order", "2"]
        else:  # delta_pole: a delta that puts a pole on the F6/F6_alt/F7 lattice
            example, delta, route = pole_case
            if route == "closed":
                argv = ["expand", "--closed", example, f"--delta={delta}",
                        "--eps-order", "1", "--degree-bound", "3"]
            else:
                spec = delta_spec(example, Fraction(delta))
                argv = ["expand", "--spec", self._write(spec_text(spec, 1, 3), "pole")]
        return {"cls": "invalid", "argv": argv, "error_class": error_class}

    def invalid(self, n_ops: int) -> list:
        classes = _deck(self.rng, ERROR_CLASSES, n_ops)
        pole_cases = iter(_deck(
            self.rng,
            [(e, d, r) for e in ("F6", "F6_alt", "F7") for d in POLE_DELTAS for r in ("closed", "spec")],
            classes.count("delta_pole"),
        ))
        return [
            self._invalid(c, next(pole_cases) if c == "delta_pole" else None) for c in classes
        ]


def point_queries(rng, workdir: Path) -> dict:
    gen = _QueryGen(rng, workdir)
    ops = gen.poch() + gen.recip()
    for cls, n_ops in QUERY_COUNTS:
        ops += getattr(gen, cls)(n_ops)
    rng.shuffle(ops)
    seen, derivatives, repeats = set(), 0, 0
    for op in ops:
        op["kind"] = "cli"
        if op["cls"] in ("poch", "recip"):
            key = (op["cls"], *op["argv"][1:4])  # command, argument, -m, m
            derivatives += 1
            repeats += key in seen
            seen.add(key)
    invalid = [op for op in ops if op["cls"] == "invalid"]
    stats = {
        **gen.stats,
        "repeat_share": round(repeats / derivatives, 4),
        "error_share": round(len(invalid) / len(ops), 4),
        "error_classes": {c: sum(op["error_class"] == c for op in invalid) for c in ERROR_CLASSES},
        "mix": {c: sum(op["cls"] == c for op in ops) for c in sorted({op["cls"] for op in ops})},
    }
    return {"ops": ops, "stats": stats}


WORKLOADS = {
    "engine-deep": engine_deep,
    "closed-catalog": closed_catalog,
    "point-queries": point_queries,
}


def make_plan(workload: str, seed: int, workdir: Path) -> dict:
    """The workload's operations for this seed; files it needs go to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    plan = WORKLOADS[workload](rng, workdir)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
