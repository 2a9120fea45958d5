"""The public surface of the four enums: `PochMethod`, `RecipMethod`, `IdentityId`
and `GenFunId`.  Standard library only, so that each interpreter can run it:

    PYTHONPATH=src python tests/test_method_and_relation_enums.py
"""

import pickle
import sys
from enum import Enum

from pochex.pochhammer import PochMethod, RecipMethod
from pochex.verify import GenFunId, IdentityId, verify_all

_IDENTITY_TOKENS = (
    "A5 A6 A8 A9 AA19 A12 A13 A14coeff A15 A27 A28 A29 A30 A31 A32 ii16 ii17 iii4 iii5 "
    "iii10 conjugate_HS"
).split()
_GENFUN_TOKENS = "a4 a7 A18 A25 A26 nueva1 nueva2".split()
# Python 3.10 gives an enum without a docstring "An enumeration.", later ones None.
_NO_DOC = "An enumeration." if sys.version_info < (3, 11) else None

# Per enum: its module, its docstring and its (name, value) members in order.
_ENUMS = {
    PochMethod: (
        "pochex.pochhammer",
        _NO_DOC,
        [
            ("RECURRENCE", "recurrence"),
            ("STIRLING_SUM", "stirling_sum"),
            ("COFFEY", "coffey"),
            ("BERNOULLI", "bernoulli"),
            ("SERIES_ORACLE", "series_oracle"),
        ],
    ),
    RecipMethod: (
        "pochex.pochhammer",
        _NO_DOC,
        [
            ("RECURRENCE", "recurrence"),
            ("CLOSED_SUM", "closed_sum"),
            ("DELTA_FORM", "delta_form"),
            ("SERIES_ORACLE", "series_oracle"),
        ],
    ),
    IdentityId: (
        "pochex.verify",
        "Exact scalar relations checkable at a parameter point.",
        [(token, token) for token in _IDENTITY_TOKENS],
    ),
    GenFunId: (
        "pochex.verify",
        "Power-series relations compared coefficientwise to a truncation order.",
        [(token, token) for token in _GENFUN_TOKENS],
    ),
}


def test_each_enum_keeps_its_members_and_class_attributes():
    for enum_cls, (module, doc, members) in _ENUMS.items():
        name = enum_cls.__name__
        assert [(m.name, m.value) for m in enum_cls] == members, name
        assert list(enum_cls.__members__) == [n for n, _ in members], name
        assert (enum_cls.__doc__, enum_cls.__module__, enum_cls.__qualname__) == (
            doc,
            module,
            name,
        )
        assert issubclass(enum_cls, str) and issubclass(enum_cls, Enum), name
        assert enum_cls.__mro__[1:] == (str, Enum, object), name


def test_each_member_prints_hashes_and_pickles_as_before():
    for enum_cls, (_, _, members) in _ENUMS.items():
        name = enum_cls.__name__
        for member_name, value in members:
            member = enum_cls[member_name]
            assert repr(member) == f"<{name}.{member_name}: {value!r}>"
            assert str(member) == f"{name}.{member_name}"
            # Python 3.11 made format() of a str-mixin member match its str().
            shown = value if sys.version_info < (3, 11) else str(member)
            assert (format(member), f"{member}") == (shown, shown)
            assert member == value and hash(member) == hash(value) and {value: 1}[member] == 1
            assert enum_cls(value) is member
            assert pickle.loads(pickle.dumps(member)) is member


def test_verify_all_reports_the_relations_in_enum_order():
    assert [summary.identity for summary in verify_all()] == _IDENTITY_TOKENS + _GENFUN_TOKENS
    assert [m.value for m in (*IdentityId, *GenFunId)] == _IDENTITY_TOKENS + _GENFUN_TOKENS


def main():
    """Run every test here without pytest."""
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")


if __name__ == "__main__":
    main()
