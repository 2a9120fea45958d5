"""Line-oriented text format describing a double-series term or a Pochhammer quotient.

Series spec files drive `expand --spec`:

    [function]
    name = mine
    [numerator]
    poch = 1 -2 : 0 1 1
    [denominator]
    poch = 1 -1 : 0 1 0
    poch = 1 -1 : 0 0 1
    [options]
    eps_order = 3
    degree_bound = 5
    regroup = lattice

Each `poch` line is `<constant> <slope> : <c0> <c1> <c2>` — a rising factorial
with a linear-in-eps argument and an affine-in-(m1, m2) length.  Rationals use
`p/q` syntax.  `#` starts a comment; blank lines are skipped.  A parameter such
as delta is written into the constants.  Quotient files for `pf --spec` take
only [numerator] and [denominator], and each `poch` line is
`<constant> <slope> : <length>`.  A file is read top to bottom in one pass, and
its first error, with its line number, is the one raised.
"""

from __future__ import annotations

from .errors import DomainError, ParseError
from .hyper_expand import HyperTermSpec, IndexLaw
from .pochhammer import LinearParam
from .series import _count, _Record, _typed, parse_rational

_SECTIONS = ("function", "numerator", "denominator", "options")


class SpecOptions(_Record):
    """Optional [options] block: expansion depth and table keying.  Each field is
    None when unset; eps_order and degree_bound are ints >= 0, and regroup is
    'lattice' or 'total'."""

    def __init__(
        self,
        eps_order: int | None = None,
        degree_bound: int | None = None,
        regroup: str | None = None,
    ):
        depths = {"eps_order": eps_order, "degree_bound": degree_bound}
        _count("SpecOptions", **{name: n for name, n in depths.items() if n is not None})
        if regroup not in (None, "lattice", "total"):
            raise DomainError(
                f"SpecOptions needs a regroup None, 'lattice' or 'total', got {regroup!r}"
            )
        self._store(eps_order, degree_bound, regroup)


_OPTION_KEYS = SpecOptions.__match_args__


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_rational_at(token: str, lineno: int):
    try:
        return parse_rational(token)
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _parse_int_at(token: str, lineno: int, what: str):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {what} must be an integer, got {token!r}") from None


def _parse_poch_line(value: str, lineno: int, length):
    """A `poch` line's (LinearParam, length), with `length(tokens, lineno)` the
    parser of the tokens after ':'."""
    if ":" not in value:
        raise ParseError(f"line {lineno}: poch line needs ':' between argument and length")
    arg_part, len_part = value.split(":", 1)
    arg_tokens = arg_part.split()
    if len(arg_tokens) != 2:
        raise ParseError(
            f"line {lineno}: expected '<constant> <slope>' before ':', got {arg_part.strip()!r}"
        )
    constant = _parse_rational_at(arg_tokens[0], lineno)
    slope = _parse_rational_at(arg_tokens[1], lineno)
    return LinearParam(constant, slope), length(len_part.split(), lineno)


def _law_from_tokens(tokens: list, lineno: int) -> IndexLaw:
    if len(tokens) != 3:
        raise ParseError(
            f"line {lineno}: expected three length coefficients '<c0> <c1> <c2>' after ':'"
        )
    c0, c1, c2 = (_parse_int_at(t, lineno, "length coefficient") for t in tokens)
    if min(c0, c1, c2) < 0:
        raise ParseError(f"line {lineno}: length coefficients must be nonnegative")
    return IndexLaw(c0, c1, c2)


def _single_length(tokens: list, lineno: int) -> int:
    if len(tokens) != 1:
        raise ParseError(f"line {lineno}: quotient poch lines take a single length after ':'")
    length = _parse_int_at(tokens[0], lineno, "length")
    if length < 0:
        raise ParseError(f"line {lineno}: length must be >= 0")
    return length


_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _split_key_value(line: str, lineno: int):
    if "=" not in line:
        raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
    key, value = (part.strip() for part in line.split("=", 1))
    if not key or not set(key) <= _IDENT_OK or key[0].isdigit():
        raise ParseError(f"line {lineno}: {key!r} is not a valid key")
    if not value:
        raise ParseError(f"line {lineno}: empty value for {key!r}")
    return key, value


def _scan(text: str, sections: tuple, length) -> tuple:
    """(name, numer, denom, options) of a file with the given `sections`: numer and
    denom as tuples of (LinearParam, length(tokens, lineno)), options as a dict of
    the keys set.  The first error, in line order, is the one raised."""
    name, sides, options = None, {"numerator": [], "denominator": []}, {}
    section = None
    seen = set()
    for lineno, line in _logical_lines(text):
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: unterminated section header {line!r}")
            header = line[1:-1].strip()
            if header not in sections:
                raise ParseError(
                    f"line {lineno}: unknown section [{header}]; "
                    f"expected one of {', '.join(sections)}"
                )
            if header in seen:
                raise ParseError(f"line {lineno}: duplicate section [{header}]")
            seen.add(header)
            section = header
            continue
        if section is None:
            raise ParseError(f"line {lineno}: content before any section header")
        key, value = _split_key_value(line, lineno)
        if section == "function":
            if key != "name":
                raise ParseError(f"line {lineno}: [function] only takes 'name'")
            if name is not None:
                raise ParseError(f"line {lineno}: duplicate name")
            name = value
        elif section in sides:
            if key != "poch":
                raise ParseError(f"line {lineno}: [{section}] only takes 'poch' lines")
            sides[section].append(_parse_poch_line(value, lineno, length))
        else:  # options
            if key not in _OPTION_KEYS:
                raise ParseError(
                    f"line {lineno}: unknown option {key!r}; "
                    f"expected one of {', '.join(_OPTION_KEYS)}"
                )
            if key in options:
                raise ParseError(f"line {lineno}: duplicate option {key!r}")
            if key == "regroup":
                if value not in ("lattice", "total"):
                    raise ParseError(
                        f"line {lineno}: regroup must be 'lattice' or 'total', got {value!r}"
                    )
            else:
                value = _parse_int_at(value, lineno, key)
                if value < 0:
                    raise ParseError(f"line {lineno}: {key} must be >= 0")
            options[key] = value
    return name, tuple(sides["numerator"]), tuple(sides["denominator"]), options


def parse_spec_text(text: str):
    """Parse a series spec file; returns (HyperTermSpec, SpecOptions)."""
    _typed("parse_spec_text", str, text=text)
    name, numer, denom, options = _scan(text, _SECTIONS, _law_from_tokens)
    return HyperTermSpec(name or "spec", numer=numer, denom=denom), SpecOptions(**options)


def parse_quotient_text(text: str):
    """Parse a quotient file for partial fractions: poch lines carry one length.

    Returns (numer, denom) as tuples of (LinearParam, length).
    """
    _typed("parse_quotient_text", str, text=text)
    _, numer, denom, _ = _scan(text, ("numerator", "denominator"), _single_length)
    return numer, denom
