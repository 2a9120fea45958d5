"""Text format for series specs and quotient descriptions."""

from fractions import Fraction as F

import pytest

from pochex.errors import ParseError
from pochex.hyper_expand import IndexLaw, closed_engine_spec, expand_general
from pochex.pochhammer import LinearParam
from pochex.specfile import SpecOptions, parse_quotient_text, parse_spec_text

F1_TEXT = """\
[function]
name = f1

[numerator]
poch = 1 -2 : 0 1 1
poch = 1 -1 : 0 1 1

[denominator]
poch = 1 -1 : 0 1 0
poch = 1 -1 : 0 0 1
"""


def test_parse_full_spec():
    spec, options = parse_spec_text(F1_TEXT)
    assert spec.name == "f1"
    assert spec.numer == (
        (LinearParam(F(1), F(-2)), IndexLaw(0, 1, 1)),
        (LinearParam(F(1), F(-1)), IndexLaw(0, 1, 1)),
    )
    assert spec.denom == (
        (LinearParam(F(1), F(-1)), IndexLaw(0, 1, 0)),
        (LinearParam(F(1), F(-1)), IndexLaw(0, 0, 1)),
    )
    assert options == SpecOptions()


def test_parsed_spec_expands_like_builtin():
    spec, _ = parse_spec_text(F1_TEXT)
    ours = expand_general(spec, 1, 2)
    builtin = expand_general(closed_engine_spec("F1"), 1, 2)
    assert ours.entries == builtin.entries


UNKNOWN_PARAMS = (
    "unknown section [params]; expected one of function, numerator, denominator, options"
)


def test_params_and_options_sections():
    # A parameter such as delta lives in the poch constants, so there is no
    # [params] section: it is refused like any unknown section.
    text = """\
[function]
name = shifted   # trailing comment

[options]
eps_order = 4
degree_bound = 6
regroup = total
"""
    spec, options = parse_spec_text(text)
    assert spec.name == "shifted"
    assert options == SpecOptions(eps_order=4, degree_bound=6, regroup="total")
    with pytest.raises(ParseError) as exc_info:
        parse_spec_text(text.replace("[options]", "[params]\ndelta = 1/3\n[options]"))
    assert str(exc_info.value) == f"line 4: {UNKNOWN_PARAMS}"


def test_comments_and_blank_lines_skipped():
    text = "# leading comment\n\n[function]\n# another\nname = x\n"
    spec, _ = parse_spec_text(text)
    assert spec.name == "x"


def test_missing_name_gets_default():
    spec, _ = parse_spec_text("[numerator]\npoch = 1 1 : 1 0 0\n")
    assert spec.name == "spec"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("poch = 1 1 : 1 0 0\n", "line 1: content before any section"),
        ("[numerator\npoch = 1 1 : 1 0 0\n", "line 1: unterminated section header"),
        ("[venumerator]\n", "line 1: unknown section"),
        ("[numerator]\n[numerator]\n", "line 2: duplicate section"),
        ("[function]\nname = a\nname = b\n", "line 3: duplicate name"),
        ("[function]\ntitle = a\n", "line 2: [function] only takes 'name'"),
        ("[numerator]\nfactor = 1 1 : 1 0 0\n", "line 2: [numerator] only takes 'poch'"),
        ("[numerator]\npoch = 1 1 1 0 0\n", "line 2: poch line needs ':'"),
        ("[numerator]\npoch = 1 : 1 0 0\n", "line 2: expected '<constant> <slope>'"),
        ("[numerator]\npoch = 1 x : 1 0 0\n", "line 2: 'x' is not a rational"),
        ("[numerator]\npoch = 1 1 : 1 0\n", "line 2: expected three length coefficients"),
        ("[numerator]\npoch = 1 1 : 1 0 -1\n", "line 2: length coefficients must be nonnegative"),
        ("[numerator]\npoch = 1 1 : a 0 0\n", "line 2: length coefficient must be an integer"),
        ("[params]\ndelta = 1/3\n", f"line 1: {UNKNOWN_PARAMS}"),
        ("[function]\nname 1/3\n", "line 2: expected 'key = value'"),
        ("[function]\n1key = 1\n", "line 2: '1key' is not a valid key"),
        ("[function]\nname =\n", "line 2: empty value"),
        ("[options]\nspeed = 9\n", "line 2: unknown option"),
        ("[options]\neps_order = 2\neps_order = 3\n", "line 3: duplicate option"),
        ("[options]\neps_order = -1\n", "line 2: eps_order must be >= 0"),
        ("[options]\neps_order = x\n", "line 2: eps_order must be an integer"),
        ("[options]\nregroup = diagonal\n", "line 2: regroup must be 'lattice' or 'total'"),
    ],
)
def test_spec_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_spec_text(text)
    assert fragment in str(exc_info.value)
    if "[params]" in text:
        assert str(exc_info.value) == fragment


def test_first_error_in_the_file_is_raised():
    # Line 2's bad law is met before line 3's unknown section.
    with pytest.raises(ParseError) as exc_info:
        parse_spec_text("[numerator]\npoch = 1 0 : 0 1\n[bogus]\n")
    assert str(exc_info.value) == (
        "line 2: expected three length coefficients '<c0> <c1> <c2>' after ':'"
    )


# -- quotient files ----------------------------------------------------------------


QUOTIENT_TEXT = """\
[numerator]
poch = 1 1 : 2

[denominator]
poch = 2 1 : 1
poch = 1/2 -1 : 3
"""


def test_parse_quotient():
    numer, denom = parse_quotient_text(QUOTIENT_TEXT)
    assert numer == ((LinearParam(F(1), F(1)), 2),)
    assert denom == (
        (LinearParam(F(2), F(1)), 1),
        (LinearParam(F(1, 2), F(-1)), 3),
    )


def test_quotient_rejects_three_coefficient_lengths():
    with pytest.raises(ParseError) as exc_info:
        parse_quotient_text("[numerator]\npoch = 1 1 : 0 1 0\n")
    assert "single length" in str(exc_info.value)


def test_quotient_rejects_negative_length():
    with pytest.raises(ParseError):
        parse_quotient_text("[numerator]\npoch = 1 1 : -2\n")


QUOTIENT_SECTIONS = "expected one of numerator, denominator"


def test_quotient_rejects_params_and_options():
    with pytest.raises(ParseError) as exc_info:
        parse_quotient_text("[params]\ndelta = 1\n")
    assert str(exc_info.value) == f"line 1: unknown section [params]; {QUOTIENT_SECTIONS}"
    with pytest.raises(ParseError) as exc_info:
        parse_quotient_text("[options]\neps_order = 1\n")
    assert str(exc_info.value) == f"line 1: unknown section [options]; {QUOTIENT_SECTIONS}"


@pytest.mark.parametrize("options", ["[options]\n", "[options]\neps_order = 1\n"])
def test_quotient_refuses_options_at_its_header_line(options):
    # A quotient file takes only [numerator] and [denominator]: [options], even
    # an empty one, is an unknown section.
    with pytest.raises(ParseError) as exc_info:
        parse_quotient_text(QUOTIENT_TEXT + options)
    assert str(exc_info.value) == f"line 7: unknown section [options]; {QUOTIENT_SECTIONS}"


@pytest.mark.parametrize("function", ["[function]\n", "[function]\nname = mine\n"])
def test_quotient_refuses_function_at_its_header_line(function):
    # A quotient has no name: [function], with or without one, is an unknown section.
    with pytest.raises(ParseError) as exc_info:
        parse_quotient_text("# a quotient\n" + function + QUOTIENT_TEXT)
    assert str(exc_info.value) == f"line 2: unknown section [function]; {QUOTIENT_SECTIONS}"


def test_quotient_first_error_in_the_file_is_raised():
    # Line 2's bad length is met before the [options] block.
    with pytest.raises(ParseError) as exc_info:
        parse_quotient_text("[numerator]\npoch = 1 1 : 0 1 0\n[options]\neps_order = 1\n")
    assert str(exc_info.value) == "line 2: quotient poch lines take a single length after ':'"
