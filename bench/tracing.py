"""Spans around calls into pochex, recorded from outside the package.

`Tracer.install` replaces every public function found in a `pochex.*` module
namespace by a timing wrapper, matched by object identity, so a name pulled
in with `from .x import f` (say `hyper_expand.poch_eps_series`) is caught
too; `EpsSeries.__mul__` is wrapped on the class.  A span is (name, start,
end, parent span, op id), kept in flat arrays while the pass runs and
written out afterwards.  Self time is a span's duration minus the time its
child spans cover.

A few wrappers also count work at the same boundary: rising-factorial
lengths, lattice points, coefficient heights and repeated Bernoulli keys.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

from workloads import POCH_METHODS, RECIP_METHODS

OP_SPAN = "bench.op"


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return max(_bits(value.val), _bits(value.der))  # a Dual


def _method_namer(base: str, methods: tuple, default: str, position: int):
    def name(args, kwargs):
        method = args[position] if len(args) > position else kwargs.get("method", default)
        method = getattr(method, "value", method)
        return f"{base}.{method if method in methods else 'invalid'}"

    return name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self._bernoulli_keys: set = set()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def run_op(self, op_id: int, call):
        """Run one benchmark operation under a root span of its own."""
        self.op_id = op_id
        idx = self._open(self._id(OP_SPAN))
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self._close(idx, t0, time.perf_counter())

    def wrap(self, fn, name: str, namer=None, hook=None):
        fixed_id = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(self._id(namer(args, kwargs)) if namer else fixed_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, t0, clock())
                if hook:
                    hook(args, kwargs, None, exc)
                raise
            self._close(idx, t0, clock())
            if hook:
                hook(args, kwargs, result, None)
            return result

        return wrapper

    # -- counters kept at the wrapped boundaries ------------------------------

    def _count_length(self, args, kwargs, result, exc):
        self.counts["pochhammer.poch_eps_series.length_sum"] += args[1] if len(args) > 1 else kwargs["m"]

    def _count_table(self, args, kwargs, result, exc):
        if result is None:
            return
        bits = max((_bits(v) for v in result.entries.values()), default=0)
        key = "hyper_expand.max_coeff_bits"
        self.counts[key] = max(self.counts[key], bits)

    def _count_lattice(self, args, kwargs, result, exc):
        self._count_table(args, kwargs, result, exc)
        bound = args[2] if len(args) > 2 else kwargs["degree_bound"]
        if result is not None:
            points = (bound + 1) * (bound + 2) // 2
        else:
            # Points visited before a PoleError, in the engine's m1-major order.
            point = getattr(exc, "lattice_point", None)
            if point is None:
                return
            m1, m2 = point
            points = sum(bound + 1 - i for i in range(m1)) + m2 + 1
        self.counts["hyper_expand.lattice_points"] += points

    def _count_bernoulli(self, args, kwargs, result, exc):
        if exc is not None:
            return
        key = (args[1], Fraction(args[2]))
        if key in self._bernoulli_keys:
            self.counts["combinatorics.gen_bernoulli_poly.repeats"] += 1
        self._bernoulli_keys.add(key)

    def install(self):
        """Wrap every public pochex function in every pochex module namespace."""
        special = {
            ("pochex.pochhammer", "poch_deriv"): dict(
                namer=_method_namer("pochhammer.poch_deriv", POCH_METHODS, "stirling_sum", 3)
            ),
            ("pochex.pochhammer", "recip_poch_deriv"): dict(
                namer=_method_namer("pochhammer.recip_poch_deriv", RECIP_METHODS, "closed_sum", 3)
            ),
            ("pochex.pochhammer", "poch_eps_series"): dict(hook=self._count_length),
            ("pochex.hyper_expand", "expand_general"): dict(hook=self._count_lattice),
            ("pochex.hyper_expand", "expand_closed"): dict(hook=self._count_table),
            ("pochex.combinatorics", "gen_bernoulli_poly"): dict(hook=self._count_bernoulli),
        }
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "pochex" or n.startswith("pochex.")
        ]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("pochex."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{home.removeprefix('pochex.')}.{obj.__qualname__}"
                    extra = special.get((home, obj.__name__), {})
                    wrappers[id(obj)] = self.wrap(obj, name, **extra)
                setattr(module, attr, wrappers[id(obj)])
        series = sys.modules["pochex.series"]
        series.EpsSeries.__mul__ = self.wrap(series.EpsSeries.__mul__, "series.mul")

    # -- results ---------------------------------------------------------------

    def aggregate(self):
        """Per span name: self seconds, calls, and total seconds.

        Total time counts only the outermost span of a name, so a recursive
        call is not counted twice.
        """
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        for i in range(n):
            name_id = self.name[i]
            name = self.names[name_id]
            duration = self.end[i] - self.start[i]
            self_s[name] += duration - covered[i]
            calls[name] += 1
            p = self.parent[i]
            while p >= 0 and self.name[p] != name_id:
                p = self.parent[p]
            if p < 0:
                total_s[name] += duration
        return dict(self_s), dict(calls), dict(total_s)

    def write(self, path):
        """All spans as gzipped CSV: name,start,end,parent,op (times in s)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name,start,end,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )
