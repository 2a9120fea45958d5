"""Self-verification: scalar identities, generating relations, coverage registry."""

import re
from fractions import Fraction as F

import pytest

import pochex
from pochex.errors import DomainError
from pochex.hyper_expand import CLOSED_EXAMPLES
from pochex.pochhammer import PochMethod, RecipMethod
from pochex.verify import (
    DEFAULT_GENFUN_ORDER,
    IN_SCOPE_TAGS,
    RELATION_COVERAGE,
    CheckSummary,
    GenFunId,
    IdentityId,
    default_grid,
    genfun_check,
    identity_eval,
    run_genfun,
    run_identity,
    verify_ids,
)


# -- pointwise identity evaluation ------------------------------------------------


def test_identity_eval_examples():
    r = identity_eval(IdentityId.A9, {"m": 2, "k": 1})
    assert (r.lhs, r.rhs) == (F(3), F(3))
    assert r.equal

    r = identity_eval(IdentityId.A28, {"m": 2, "k": 1})
    assert (r.lhs, r.rhs) == (F(0), F(0))

    r = identity_eval(IdentityId.A27, {"x": F(1), "m": 2, "k": 1})
    assert (r.lhs, r.rhs) == (F(0), F(0))


def test_identity_eval_accepts_string_ids():
    assert identity_eval("A6", {"m": 3, "k": 2}).equal


def test_identity_eval_validates_params():
    with pytest.raises(DomainError):
        identity_eval(IdentityId.A9, {"m": 2})  # k missing
    with pytest.raises(DomainError):
        identity_eval(IdentityId.A9, {"m": -1, "k": 0})
    with pytest.raises(DomainError):
        identity_eval(IdentityId.A13, {"m": 2, "k": 1, "alpha": "x"})


def test_run_identity_over_explicit_grid():
    grid = [{"m": m, "k": k} for m in range(4) for k in range(m + 1)]
    summary = run_identity(IdentityId.A9, grid)
    assert isinstance(summary, CheckSummary)
    assert summary.points == len(grid)
    assert summary.passed
    assert summary.failures == ()


@pytest.mark.parametrize(
    "entry, token, rest",
    [
        (default_grid, "A99", ()),
        (identity_eval, "A99", ({},)),
        (identity_eval, "nueva1", ({},)),
        (genfun_check, "zz", (3, {})),
        (genfun_check, "A9", (3, {})),
        (run_identity, "zz", ()),
        (run_identity, "nueva1", ()),
        (run_genfun, "zz", ()),
        (run_genfun, "A9", ()),
    ],
    ids=lambda value: value.__name__ if callable(value) else None,
)
def test_unknown_relation_token_is_a_domain_error(entry, token, rest):
    with pytest.raises(DomainError, match=f"unknown relation id '{token}'"):
        entry(token, *rest)


def test_default_grids_are_nonempty():
    for identity in IdentityId:
        assert len(default_grid(identity)) > 0
    for relation in GenFunId:
        assert len(default_grid(relation)) > 0


# -- generating relations ------------------------------------------------------------


def test_genfun_check_spot_values():
    r = genfun_check(GenFunId.a4, 6, {"k": 1, "alpha": F(1)})
    assert r.equal_to_order
    assert r.first_discrepancy is None
    assert r.order == 6

    r = genfun_check(GenFunId.nueva1, 5, {"m": 2, "c": F(1)})
    assert r.equal_to_order

    r = genfun_check(GenFunId.A25, 6, {"k": 0, "beta": F(1)})
    assert r.equal_to_order


def test_genfun_check_rejects_tiny_order():
    with pytest.raises(DomainError):
        genfun_check(GenFunId.a4, 0, {"k": 0, "alpha": F(1)})


def test_run_genfun_low_order_smoke():
    summary = run_genfun(GenFunId.a7, order=6)
    assert summary.passed
    assert summary.points == len(default_grid(GenFunId.a7))


def test_default_genfun_order():
    assert DEFAULT_GENFUN_ORDER == 12


# -- dispatch ---------------------------------------------------------------------------


def test_verify_ids_mixes_identity_and_genfun():
    summaries = verify_ids(["A9", "nueva1"], genfun_order=5)
    assert [s.identity for s in summaries] == ["A9", "nueva1"]
    assert all(s.passed for s in summaries)


def test_verify_ids_unknown_token():
    with pytest.raises(DomainError):
        verify_ids(["A99"])


def test_verify_ids_resolves_every_token_before_running_any(monkeypatch):
    import pochex.verify

    ran = []
    monkeypatch.setattr(pochex.verify, "run_identity", lambda *args: ran.append(args))
    monkeypatch.setattr(pochex.verify, "run_genfun", lambda *args: ran.append(args))
    with pytest.raises(DomainError, match="unknown relation id 'zz'"):
        verify_ids(["A27", "zz"])
    assert ran == []


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
