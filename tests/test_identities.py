"""Self-verification: scalar identities, generating relations, coverage registry."""

import cProfile
import hashlib
import math
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pochex
import pochex.combinatorics
from pochex.combinatorics import binomial, mod_harmonic, stirling_s1
from pochex.errors import DomainError
from pochex.hyper_expand import CLOSED_EXAMPLES
from pochex.pochhammer import PochMethod, RecipMethod, poch_deriv, pochhammer, recip_poch_deriv
from pochex.series import EpsSeries
from pochex.verify import (
    _GENFUN_ORDER,
    CheckSummary,
    GenFunId,
    GenFunResult,
    IdentityId,
    IdentityResult,
    _first_discrepancy,
    _read,
    _relation,
    _sum_of_products,
    run_relation,
    verify_all,
    verify_ids,
)
from relation_catalog import IN_SCOPE_TAGS, RELATION_COVERAGE


# -- pointwise evaluation ------------------------------------------------------------


def default_grid(token):
    """The default parameter grid of a relation, as `run_relation(token)` runs it."""
    return _relation(token)[3]()


def evaluate(token, params, order=_GENFUN_ORDER):
    """Both sides of a relation at one point, from its private evaluator: two
    scalars for an identity, two series to `order` for a generating relation."""
    relation, evaluator, declared, _ = _relation(token)
    values = _read(f"{relation.value} at {params}", params, relation.value, declared)
    if isinstance(relation, IdentityId):
        return evaluator({}, *values)
    return evaluator({}, order, *values)


def test_identity_spot_values():
    assert evaluate(IdentityId.A9, {"m": 2, "k": 1}) == (F(3), F(3))
    assert evaluate(IdentityId.A28, {"m": 2, "k": 1}) == (F(0), F(0))
    assert evaluate(IdentityId.A27, {"x": F(1), "m": 2, "k": 1}) == (F(0), F(0))


def test_run_identity_over_explicit_grid():
    grid = [{"m": m, "k": k} for m in range(4) for k in range(m + 1)]
    summary = run_relation(IdentityId.A9, grid)
    assert isinstance(summary, CheckSummary)
    assert summary.points == len(grid)
    assert summary.passed
    assert summary.failures == ()


@pytest.mark.parametrize("token, grid", [("zz", None), ("A99", [{}]), ("", [])])
def test_unknown_relation_token_is_a_domain_error(token, grid):
    with pytest.raises(DomainError, match=f"^unknown relation id '{token}'; known ids: A5, "):
        run_relation(token, grid)


def test_default_grids_are_nonempty():
    for identity in IdentityId:
        assert len(default_grid(identity)) > 0
    for relation in GenFunId:
        assert len(default_grid(relation)) > 0


# Point count and sha256 of every default grid, each point rendered with its
# keys in order and its values' types, so a grid cannot change unnoticed.
_GRID_PINS = {
    "A5": (135, "cdb11a26d66770cac7d7608bc506c9bd66408ef58ca1673ef9352e0f5fa2f39a"),
    "A6": (55, "05de36e7816a3f7274ee3fcdbfa0177029b35c89196708d91fa0ef9e5ef7b83d"),
    "A8": (66, "bc895785abf6680641c799cea8bae17d9e93365d42ff072ff992531f8353b9ff"),
    "A9": (66, "79d52d700265040a933397aeb50431e55e49ac825889820564f0de7f24d3c213"),
    "AA19": (66, "79d52d700265040a933397aeb50431e55e49ac825889820564f0de7f24d3c213"),
    "A12": (77, "96c1afdf4c2e317d6bdab593cc4b4bd2730f308d29cda358ac09a45f1ae6f567"),
    "A13": (216, "681490bca93bfdc2d88c2fe55bf8eaa3a64bff79ea65d699876757b65b97f5a8"),
    "A14coeff": (128, "22f08f7115467707d48972740198cebc4dbdda20ad96aef47f41f4a18019daf3"),
    "A15": (66, "79d52d700265040a933397aeb50431e55e49ac825889820564f0de7f24d3c213"),
    "A27": (252, "4078dde65ca05fce5faa8ffe3591d7325f198dd9ae7ae1e4aa1057f223ac3a1c"),
    "A28": (88, "afa34a57f744a680e99b09b1135b181b0b9c367ef53debb134d82dbaa30842b9"),
    "A29": (180, "1b891fc61bdd2dfec40fdcaddf9a3ab97facdb91792575e057cbe15fe0fb8e8c"),
    "A30": (168, "7822c62e2da8e6b08e314d5a4f8f24b175c4d52c51734f1288736be008e276de"),
    "A31": (135, "410c0622a18d0ddf4478db15858453602a0ba319df301f72dab10e30d3cacd69"),
    "A32": (54, "7e2b25e12d6b732b8590477ffde1da4e5312a5d70a52c3b0f5e38837e514a767"),
    "ii16": (252, "39b10822e73c70e120d7adcd41ae9cbf9104baf10f00d6337a7dd8c155694262"),
    "ii17": (180, "538dc6c5d5627d232c54327de9f183b8aedd6cc39c07f8294af8ade7e8a79621"),
    "iii4": (13, "f9ecd7e3a10df5a314890b63e6e24ab67dbc5c6dfd1c5edb4ee311d06b251289"),
    "iii5": (66, "e51b411338e9d5adab0c122a5835b293944a2dc5d46935854162ec2bd46acc3d"),
    "iii10": (63, "6f781e7db28cce74e0b2b4bb2ff92235e48feebdc43df2d17fd3db463a3a1883"),
    "conjugate_HS": (91, "bceee9cd8eb99026a544d183fa8b34b75c7fa32e59691b62ea64bd8d046f4ac0"),
    "a4": (8, "e3ed872ddef67b9c46a075ff104e46105c3fa81680b8a52b0acc09ba77c8b726"),
    "a7": (5, "ba72ee216c24ae2042d605091229fb5e20aec990785ef9ec6eae41d22809533f"),
    "A18": (10, "2513c50ee8df3e5c8a951322aa47973094cad86472862f3f0204f0f447d0029b"),
    "A25": (12, "c01af915614fb1f817ed025ecda62f3f1a4780901f334ab9e3c16aa16c00fc1a"),
    "A26": (4, "bf64ce247c52d0c57f25e73d11da2a07d7663096c877daae63a0bd3d4652d193"),
    "nueva1": (12, "b50b7aa682243e19db321ddaff6cad6fdbf127483e11d26df9c8fedfbffbc064"),
    "nueva2": (11, "add6bcaec23c989bbf880f48a621620f16e223ea8133c4c56d69999fecf841ee"),
}


def test_default_grids_are_pinned():
    assert list(_GRID_PINS) == [r.value for r in (*IdentityId, *GenFunId)]
    for token, (count, digest) in _GRID_PINS.items():
        grid = default_grid(token)
        text = "\n".join(
            ",".join(f"{key}={type(value).__name__}:{value}" for key, value in point.items())
            for point in grid
        )
        assert (len(grid), hashlib.sha256(text.encode()).hexdigest()) == (count, digest), token
    assert sum(count for count, _ in _GRID_PINS.values()) == 2479


def test_declarations_match_their_evaluators_and_grids():
    # Each relation's declared parameters are, in order, its evaluator's
    # arguments after the shared calls (and, for a generating relation, the
    # series order) and the keys of every default grid point.  `_relation` puts
    # a point's keys in declared order, so every point of the table's own grid
    # must have exactly the declared keys: a wrong or extra axis would be
    # dropped unseen.
    for relation in (*IdentityId, *GenFunId):
        _, evaluate, declared, default = _relation(relation)
        names = [name for name, _ in declared]
        code = evaluate.__code__
        first = ("calls",) if isinstance(relation, IdentityId) else ("calls", "order")
        assert code.co_varnames[: code.co_argcount] == (*first, *names), relation
        assert all(list(point) == names for point in default()), relation
        raw = pochex.verify._RELATIONS[relation.value][2]()
        assert all(set(point) == set(names) for point in raw), relation


def relation_value_lines():
    """One line per default grid point of every relation: its token and the repr
    of (lhs, rhs) for an identity or (whether the sides agree to the order, first
    discrepancy) for a generating relation.  Run this file as a script to print them for a diff."""
    for relation in (*IdentityId, *GenFunId):
        for params in default_grid(relation):
            lhs, rhs = evaluate(relation, params)
            if isinstance(relation, IdentityId):
                value = (F(lhs), F(rhs))
            else:
                first = _first_discrepancy(lhs, rhs)
                value = (first is None, first)
            yield f"{relation.value} {value!r}"


# Line count and sha256 of `relation_value_lines`, computed while every
# evaluator still summed one Fraction multiply-add per term.
_RELATION_VALUES = (2479, "5a871be29bdd381a6b8757b06a07004fa605b2aa6a54089c76e39f1e3ccce4cd")


def test_relation_values_are_pinned():
    lines = list(relation_value_lines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == _RELATION_VALUES


_factors = st.one_of(
    st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4, min_value=-50, max_value=50)
)


@given(st.lists(st.lists(_factors, max_size=4).map(tuple), max_size=8))
@example([])
@example([()])
@example([(F(1, 3), -3), (0,)])
def test_sum_of_products_is_the_fraction_sum(terms):
    expected = sum((math.prod(term, start=F(1)) for term in terms), F(0))
    assert repr(_sum_of_products(terms)) == repr(expected)


def profiled_calls(run, functions):
    """run()'s result and the cProfile call count of each of `functions`, by name."""
    counted = {function.__code__: function.__name__ for function in functions}
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run()
    finally:
        profile.disable()
    calls = dict.fromkeys(counted.values(), 0)
    for entry in profile.getstats():
        if entry.code in counted:
            calls[counted[entry.code]] += entry.callcount
    return result, calls


# cProfile call counts in one verify_all() of Fraction._add, Fraction._mul and
# the Stirling walk.  With a Fraction multiply-add per term they were 18,355,
# 25,046 and 4,108; before each relation shared its repeated calls across its
# grid, 2,774, 4,507 and 2,392; before every relation of the run shared one
# dict, 2,606, 4,507 and 1,280.
_VERIFY_ALL_WORK = {"_add": 2574, "_mul": 4507, "_stirling_walk": 402}

# Exact call counts of the building blocks in one verify_all(), and of the
# relation lookup.  The whole run computes a repeated (function, arguments)
# once, and resolves each relation once.  With one dict per relation they were
# 1,294, 889, 684, 307, 2,178, 1,245 and 56; with none, 2,050 poch_deriv,
# 1,645 recip_poch_deriv, 2,199 mod_harmonic and 945 stirling_s1 calls.
_VERIFY_ALL_CALLS = {
    "poch_deriv": 892, "recip_poch_deriv": 587, "mod_harmonic": 147, "stirling_s1": 108,
    "pochhammer": 399, "binomial": 157, "_relation": 28,
}


def test_verify_all_sums_in_integers():
    counted = (F._add, F._mul, pochex.combinatorics._stirling_walk)
    blocks = (
        poch_deriv, recip_poch_deriv, mod_harmonic, stirling_s1, pochhammer, binomial, _relation
    )
    summaries, calls = profiled_calls(verify_all, counted + blocks)
    assert all(summary.passed for summary in summaries)
    assert all(calls[name] <= bound for name, bound in _VERIFY_ALL_WORK.items()), calls
    assert {name: calls[name] for name in _VERIFY_ALL_CALLS} == _VERIFY_ALL_CALLS


def test_A27_computes_each_P_and_Q_value_once():
    # One P and one Q call per distinct (x, m, i); without sharing, A27 made
    # 1,008 of each, four per distinct (x, m, i).
    summary, calls = profiled_calls(lambda: run_relation("A27"), (poch_deriv, recip_poch_deriv))
    assert summary == CheckSummary("A27", 252, ())
    assert calls == {"poch_deriv": 252, "recip_poch_deriv": 252}


def test_one_verify_ids_call_computes_each_distinct_call_once(monkeypatch):
    # A9, AA19 and A15 each take P_m^(k)(1) by the recurrence at every
    # k <= m <= 10.  One verify_ids call makes each of those 66 calls once;
    # three run_relation calls, each with its own dict, make all 198.
    import pochex.verify

    made = Counter()

    def counted(*args):
        made[args] += 1
        return poch_deriv(*args)

    monkeypatch.setattr(pochex.verify, "poch_deriv", counted)
    tokens = ["A9", "AA19", "A15"]
    summaries = verify_ids(tokens)
    assert summaries == [CheckSummary(token, 66, ()) for token in tokens]
    distinct = {(F(1), m, k, PochMethod.RECURRENCE) for m in range(11) for k in range(m + 1)}
    assert set(made) == distinct and set(made.values()) == {1}
    made.clear()
    assert [run_relation(token) for token in tokens] == summaries
    assert made.total() == 198


def test_back_to_back_verify_ids_calls_each_make_every_call():
    # Nothing is kept between calls: each makes the full count, for a list that
    # mixes identities and generating relations and repeats an id.
    tokens = ["A9", "a4", "A27", "A25", "A9", "nueva1"]
    blocks = (poch_deriv, recip_poch_deriv, mod_harmonic, _relation)
    first, calls = profiled_calls(lambda: verify_ids(tokens), blocks)
    assert all(summary.passed for summary in first)
    again, calls_again = profiled_calls(lambda: verify_ids(tokens), blocks)
    assert (again, calls_again) == (first, calls)
    assert calls["_relation"] == len(tokens)


def test_back_to_back_verify_all_calls_agree():
    first = verify_all()
    assert all(summary.passed for summary in first)
    assert verify_all() == first


class _Rational(F):
    """A Fraction subclass, which a rational parameter takes as it is."""


@pytest.mark.parametrize(
    "params, values",
    [
        ({"m": 3, "k": 1, "alpha": F(1, 2)}, [(int, 3), (int, 1), (F, F(1, 2))]),
        ({"m": F(3), "k": 1, "alpha": 2}, [(int, 3), (int, 1), (F, F(2))]),
        ({"alpha": _Rational(1, 3), "k": F(0), "m": 0}, [(int, 0), (int, 0), (_Rational, F(1, 3))]),
    ],
)
def test_read_takes_an_int_a_fraction_and_what_stands_for_them(params, values):
    # Refusals (True, 0.5, a float or bool rational) are pinned per relation
    # in tests/test_argument_contract.py.
    declared = [("m", 0), ("k", 0), ("alpha", None)]
    read = list(_read("here", params, "A5", declared))
    assert [(type(value), value) for value in read] == values


@pytest.mark.parametrize("token", ["A27", "A28", "A29", "A30", "A31"])
def test_a_grid_that_repeats_points_checks_as_one_call_per_point(monkeypatch, token):
    # The real evaluator with rhs off by one wherever k = 1, so that the
    # failure records show the lhs that the shared calls built.
    import pochex.verify

    evaluate, declared, default = pochex.verify._RELATIONS[token]

    def off_at_k1(calls, m, k, *rest):
        lhs, rhs = evaluate(calls, m, k, *rest)
        return lhs, rhs + int(k == 1)

    monkeypatch.setitem(pochex.verify._RELATIONS, token, (off_at_k1, declared, default))
    grid = default() + default()[::-1]
    summary = run_relation(token, grid)
    one_by_one = [run_relation(token, [params]) for params in grid]
    assert summary == CheckSummary(token, len(grid), sum((s.failures for s in one_by_one), ()))
    assert len(summary.failures) == 2 * sum(params["k"] == 1 for params in default())


# -- generating relations ------------------------------------------------------------


def test_genfun_spot_values():
    for relation, params, order in [
        (GenFunId.a4, {"k": 1, "alpha": F(1)}, 6),
        (GenFunId.nueva1, {"m": 2, "c": F(1)}, 5),
        (GenFunId.A25, {"k": 0, "beta": F(1)}, 6),
    ]:
        lhs, rhs = evaluate(relation, params, order)
        assert min(lhs.max_exponent, rhs.max_exponent) == order
        assert _first_discrepancy(lhs, rhs) is None


# Six ii16 points, five in range, then one whose B = -1 puts a zero in (B)_n.
_II16_GRID = [{"m": 0, "n": 2, "A": F(1), "B": b, "x": F(0)} for b in (1, 2, 3, 4, 5, -1)]


@pytest.mark.parametrize(
    "relation, grid, message",
    [
        (IdentityId.A5, [{"m": 2, "k": 1, "alpha": F(1)}], "0 needs m = 0, k = 0 or k > m"),
        (IdentityId.A6, [{"m": 2, "k": 3}], "0 needs 0 < k <= m"),
        (IdentityId.AA19, [{"m": 1, "k": 2}], "0 needs k <= m"),
        (IdentityId.A13, [{"m": 1, "k": 2, "alpha": F(0)}], "0 needs k <= m"),
        (IdentityId.A32, [{"m": 3, "k": 0, "n": 2}], "0 needs m <= n"),
        (IdentityId.ii16, [{"m": 2, "n": 2, "A": F(1), "B": F(1), "x": F(0)}], "0 needs m < n"),
        (IdentityId.iii5, [{"m": 1, "n": 2}], "0 needs n <= m"),
        (
            IdentityId.ii16,
            [{"m": 0, "n": 2, "A": F(1), "B": F(-1), "x": F(0)}],
            "0 has B = -1, which puts a zero at shift 1",
        ),
        (IdentityId.ii16, _II16_GRID, "5 has B = -1, which puts a zero at shift 1"),
        (
            IdentityId.ii17,
            [{"n": 1, "A": F(1), "B": F(0), "x": F(0)}],
            "0 has B = 0, which puts a zero at shift 0",
        ),
        (GenFunId.A25, [{"k": 0, "beta": F(-1)}], "0 has beta = -1, which hits a pole at shift 1"),
        (GenFunId.nueva1, [{"m": 1, "c": F(0)}], "0 needs c > 0"),
        (GenFunId.nueva2, [{"m": 1, "c": F(-1)}], "0 needs c > 0"),
        # Every parameter is read before any range is checked.
        (
            IdentityId.ii16,
            [{"m": 2, "n": 2, "A": 0.5, "B": F(1), "x": F(0)}],
            "0 needs a rational A, got 0.5; pass an int or a Fraction",
        ),
        (IdentityId.ii16, [{"m": 2, "n": 2, "B": F(1), "x": F(0)}], "0 is missing parameter 'A'"),
    ],
)
def test_relation_guards_refuse_points_outside_their_range(relation, grid, message):
    # Each message is headed by the call, the relation and the grid point.
    message = f"run_relation({relation.value!r}) at grid point {message}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run_relation(relation, grid)


def test_run_genfun_low_order_smoke():
    summary = run_relation(GenFunId.a7)
    assert summary.passed
    assert summary.points == len(default_grid(GenFunId.a7))


# -- dispatch ---------------------------------------------------------------------------


def test_verify_ids_mixes_identity_and_genfun():
    summaries = verify_ids(["A9", "nueva1"])
    assert [s.identity for s in summaries] == ["A9", "nueva1"]
    assert all(s.passed for s in summaries)


def test_verify_ids_unknown_token():
    with pytest.raises(DomainError):
        verify_ids(["A99"])


def test_verify_ids_refuses_a_bare_string():
    # A string is iterable too; read character by character it would report
    # "unknown relation id 'A'".
    with pytest.raises(DomainError, match=r"list of relation ids: pass \['A9'\]"):
        verify_ids("A9")


def test_verify_ids_resolves_every_token_before_running_any(monkeypatch):
    import pochex.verify

    ran = []
    monkeypatch.setattr(pochex.verify, "_check", lambda *args, **kw: ran.append(args))
    with pytest.raises(DomainError, match="unknown relation id 'zz'"):
        verify_ids(["A27", "zz"])
    assert ran == []


def test_failures_carry_the_failing_points_exactly(monkeypatch, capsys):
    # The real A9 and a7 evaluators, each off by one at a single grid point:
    # A9's rhs at m = 3, and a7's rhs at z^5 for k = 2.
    import pochex.verify
    from pochex.cli import main

    relations = pochex.verify._RELATIONS
    eval_A9, genfun_a7 = pochex.verify._eval_A9, pochex.verify._genfun_a7

    def bad_A9(calls, m, k):
        lhs, rhs = eval_A9(calls, m, k)
        return lhs, rhs + int(m == 3)

    def bad_a7(calls, order, k):
        lhs, rhs = genfun_a7(calls, order, k)
        return lhs, rhs + EpsSeries([0] * 5 + [int(k == 2)] + [0] * (order - 5))

    A9_grid = [{"m": 2, "k": 1}, {"m": 3, "k": 1}, {"m": 4, "k": 4}]
    a7_grid = [{"k": 1}, {"k": 2}, {"k": 3}]
    monkeypatch.setitem(relations, "A9", (bad_A9, "m>=0 k>=0", lambda: A9_grid))
    monkeypatch.setitem(relations, "a7", (bad_a7, "k>=0", lambda: a7_grid))
    A9, a7 = verify_ids(["A9", "a7"])

    assert A9 == CheckSummary("A9", 3, (IdentityResult(IdentityId.A9, {"m": 3, "k": 1}, F(11), F(12)),))
    (failure,) = A9.failures
    assert failure.identity is IdentityId.A9 and failure.lhs != failure.rhs
    assert (type(failure.lhs), type(failure.rhs)) == (F, F)
    assert a7 == CheckSummary("a7", 3, (GenFunResult(GenFunId.a7, {"k": 2}, 12, 5),))
    assert a7.failures[0].identity is GenFunId.a7

    assert main(["verify", "--id", "A9", "--id", "a7"]) == 2
    assert capsys.readouterr() == (
        "A9: FAIL (1/3 points)\n"
        "  params {'m': '3', 'k': '1'}: lhs 11 rhs 12\n"
        "a7: FAIL (1/3 points)\n"
        "  params {'k': '2'}: first discrepancy at exponent 5 (order 12)\n",
        "",
    )


# -- coverage registry: exhaustive and well-formed ----------------------------------------

_PREFIXES = ("identity:", "genfun:", "op:", "closed:", "type:", "note:")


def test_registry_covers_exactly_the_declared_catalog():
    assert set(RELATION_COVERAGE) == set(IN_SCOPE_TAGS)
    assert len(IN_SCOPE_TAGS) == len(set(IN_SCOPE_TAGS))


def test_registry_values_use_known_prefixes():
    for tag, target in RELATION_COVERAGE.items():
        assert target.startswith(_PREFIXES), (tag, target)


def test_registry_targets_exist():
    identity_names = {i.value for i in IdentityId}
    genfun_names = {g.value for g in GenFunId}
    method_owners = {
        "poch_deriv": {m.value for m in PochMethod},
        "recip_poch_deriv": {m.value for m in RecipMethod},
    }
    for tag, target in RELATION_COVERAGE.items():
        kind, _, rest = target.partition(":")
        if kind == "identity":
            assert rest in identity_names, (tag, target)
        elif kind == "genfun":
            assert rest in genfun_names, (tag, target)
        elif kind == "closed":
            assert rest in CLOSED_EXAMPLES, (tag, target)
        elif kind == "type":
            assert hasattr(pochex, rest), (tag, target)
        elif kind == "op":
            name, _, method = rest.partition(".")
            assert hasattr(pochex, name), (tag, target)
            if method:
                assert method in method_owners[name], (tag, target)
        else:  # note
            assert len(rest) > 10, (tag, "a note must explain itself")


def test_registry_references_every_checkable_relation():
    # every IdentityId/GenFunId member must be exercised by some catalog tag,
    # counting references embedded in note texts.
    text = " ".join(RELATION_COVERAGE.values())
    referenced_identities = set(re.findall(r"identity:(\w+)", text))
    referenced_genfuns = set(re.findall(r"genfun:(\w+)", text))
    assert referenced_identities == {i.value for i in IdentityId}
    assert referenced_genfuns == {g.value for g in GenFunId}


if __name__ == "__main__":
    for line in relation_value_lines():
        print(line)
