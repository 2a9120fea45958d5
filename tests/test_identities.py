"""Self-verification: scalar identities, generating relations, coverage registry."""

import hashlib
import re
from fractions import Fraction as F

import pytest

import pochex
from pochex.errors import DomainError
from pochex.hyper_expand import CLOSED_EXAMPLES
from pochex.pochhammer import PochMethod, RecipMethod
from pochex.verify import (
    DEFAULT_GENFUN_ORDER,
    CheckSummary,
    GenFunId,
    IdentityId,
    default_grid,
    genfun_check,
    identity_eval,
    run_relation,
    verify_ids,
)
from relation_catalog import IN_SCOPE_TAGS, RELATION_COVERAGE


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
    summary = run_relation(IdentityId.A9, grid)
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
        (run_relation, "zz", ()),
        (run_relation, "zz", (None,)),
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


@pytest.mark.parametrize(
    "relation, params, message",
    [
        (IdentityId.A5, {"m": 2, "k": 1, "alpha": F(1)}, "A5 covers only m = 0, k = 0, or k > m"),
        (IdentityId.A6, {"m": 2, "k": 3}, "A6 needs 0 < k <= m"),
        (IdentityId.AA19, {"m": 1, "k": 2}, "AA19 needs k <= m"),
        (IdentityId.A13, {"m": 1, "k": 2, "alpha": F(0)}, "A13 needs k <= m"),
        (IdentityId.A32, {"m": 3, "k": 0, "n": 2}, "A32 needs m <= n"),
        (IdentityId.ii16, {"m": 2, "n": 2, "A": F(1), "B": F(1), "x": F(0)}, "ii16 needs m < n"),
        (IdentityId.iii5, {"m": 1, "n": 2}, "iii5 needs n <= m"),
        (
            IdentityId.ii16,
            {"m": 0, "n": 2, "A": F(1), "B": F(-1), "x": F(0)},
            "argument B = -1 puts a zero at shift 1",
        ),
        (
            IdentityId.ii17,
            {"n": 1, "A": F(1), "B": F(0), "x": F(0)},
            "argument B = 0 puts a zero at shift 0",
        ),
        (GenFunId.A25, {"k": 0, "beta": F(-1)}, "beta = -1 hits a pole at shift 1"),
        (GenFunId.nueva1, {"m": 1, "c": F(0)}, "nueva1 needs c > 0"),
        (GenFunId.nueva2, {"m": 1, "c": F(-1)}, "nueva2 needs c > 0"),
    ],
)
def test_relation_guards_refuse_points_outside_their_range(relation, params, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        if isinstance(relation, IdentityId):
            identity_eval(relation, params)
        else:
            genfun_check(relation, 4, params)


def test_genfun_check_rejects_tiny_order():
    with pytest.raises(DomainError):
        genfun_check(GenFunId.a4, 0, {"k": 0, "alpha": F(1)})


def test_run_genfun_low_order_smoke():
    summary = run_relation(GenFunId.a7)
    assert summary.passed
    assert summary.points == len(default_grid(GenFunId.a7))


def test_default_genfun_order():
    assert DEFAULT_GENFUN_ORDER == 12


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
    monkeypatch.setattr(pochex.verify, "run_relation", lambda *args, **kw: ran.append(args))
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
