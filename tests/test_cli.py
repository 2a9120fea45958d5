"""Command-line front-end: output format, exit codes, error routing."""

import argparse
import contextlib
import hashlib
import io
import math
import re
import shlex
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pochex.verify
from pochex import cli
from pochex.cli import main
from pochex.hyper_expand import CLOSED_EXAMPLES
from pochex.pochhammer import LinearParam, PochMethod, RecipMethod, poch_eps_series
from pochex.series import EpsSeries, series_invert
from pochex.verify import GenFunId, IdentityId
from test_readme import README, README_FILES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean_failure(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 1, (argv, err)
    assert out == ""
    assert err != ""


# -- poch ---------------------------------------------------------------------


def test_poch_value(capsys):
    code, out, err = run(capsys, "poch", "--alpha", "1", "-m", "2", "-k", "1")
    assert (code, out, err) == (0, "3\n", "")


def test_poch_negative_rational_equals_form(capsys):
    code, out, _ = run(capsys, "poch", "--alpha=-5/2", "-m", "3", "-k", "2")
    assert (code, out) == (0, "-9/2\n")


def test_poch_negative_fraction_as_separate_token(capsys):
    code, out, _ = run(capsys, "poch", "--alpha", "-5/2", "-m", "3", "-k", "2")
    assert (code, out) == (0, "-9/2\n")


@pytest.mark.parametrize(
    "method", ["recurrence", "stirling_sum", "coffey", "bernoulli", "series_oracle"]
)
def test_poch_all_methods_agree(capsys, method):
    code, out, _ = run(
        capsys, "poch", "--alpha", "7/3", "-m", "4", "-k", "2", "--method", method
    )
    assert code == 0
    assert out == "257/3\n"


def test_poch_bad_rational(capsys):
    assert_clean_failure(capsys, "poch", "--alpha", "1.5", "-m", "2", "-k", "1")


def test_poch_bad_method(capsys):
    assert_clean_failure(
        capsys, "poch", "--alpha", "1", "-m", "2", "-k", "1", "--method", "magic"
    )


def test_poch_negative_length_is_domain_error(capsys):
    assert_clean_failure(capsys, "poch", "--alpha", "1", "-m", "-2", "-k", "0")


# -- recip --------------------------------------------------------------------


def test_recip_value(capsys):
    code, out, err = run(capsys, "recip", "--beta", "2", "-m", "1", "-k", "1")
    assert (code, out, err) == (0, "-1/4\n", "")


def test_recip_pole(capsys):
    assert_clean_failure(capsys, "recip", "--beta=-2", "-m", "4", "-k", "1")


def test_recip_laurent_lines(capsys):
    code, out, err = run(
        capsys, "recip", "--laurent", "-n", "1", "-b", "1", "-m", "3", "--order", "3"
    )
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["-1,-1", "0,0", "1,-1", "2,0", "3,-1"]


def test_recip_laurent_needs_its_flags(capsys):
    assert_clean_failure(capsys, "recip", "--laurent", "-m", "3")


def test_recip_laurent_rejects_beta(capsys):
    assert_clean_failure(
        capsys,
        "recip", "--laurent", "-n", "1", "-b", "1", "-m", "3", "--order", "3",
        "--beta", "2",
    )


def test_recip_needs_beta_and_k(capsys):
    assert_clean_failure(capsys, "recip", "-m", "3")


def subcommands():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def assert_usage_error(capsys, message, *argv):
    # Exit 1 with nothing on stdout, and on stderr the command's own usage,
    # then one `error:` line that names the command, as argparse's own errors
    # for that command do.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, ""), argv
    usage = subcommands()[argv[0]].format_usage()
    assert usage.startswith(f"usage: pochex {argv[0]} ")
    assert err == f"{usage}pochex {argv[0]}: error: {message}\n"


@pytest.mark.parametrize(
    "flags", [["-n", "3"], ["-b", "2"], ["--order", "4"], ["-n", "3", "-b", "2", "--order", "4"]]
)
def test_recip_refuses_laurent_flags_without_laurent(capsys, flags):
    argv = ["recip", "--beta", "1", "-m", "2", "-k", "1", *flags]
    assert_usage_error(capsys, "-n, -b and --order need --laurent", *argv)


def test_recip_laurent_refuses_method(capsys):
    assert_usage_error(
        capsys,
        "--laurent does not take --beta, -k or --method",
        "recip", "--laurent", "-n", "0", "-b", "1", "-m", "2", "--order", "2",
        "--method", "delta_form",
    )


def test_recip_method_defaults_to_closed_sum(capsys):
    argv = ["recip", "--beta", "7/3", "-m", "5", "-k", "2"]
    default = run(capsys, *argv)
    assert default == run(capsys, *argv, "--method", "closed_sum")
    assert default[0] == 0


# -- quotient -------------------------------------------------------------------


def test_quotient_value(capsys):
    code, out, _ = run(
        capsys,
        "quotient", "--num", "1", "1", "-m", "1", "--den", "2", "1", "-n", "1",
        "-k", "1",
    )
    assert (code, out) == (0, "1/4\n")


def test_quotient_at_evaluation_point(capsys):
    code, out, _ = run(
        capsys,
        "quotient", "--num", "1", "1", "-m", "2", "--den", "1", "0", "-n", "0",
        "-k", "0", "--at", "1",
    )
    assert (code, out) == (0, "6\n")  # (2)_2


def test_quotient_negative_fractions(capsys):
    code, out, err = run(
        capsys,
        "quotient", "--num", "-1/2", "1", "-m", "2", "--den", "3", "-1/3", "-n", "2",
        "-k", "1",
    )
    num = poch_eps_series(LinearParam(F(-1, 2), 1), 2, 1)
    den = poch_eps_series(LinearParam(3, F(-1, 3)), 2, 1)
    expected = (num * series_invert(den)).coefficient(1)
    assert (code, out, err) == (0, f"{expected}\n", "")


def test_quotient_pole_at_evaluation_point(capsys):
    assert_clean_failure(
        capsys,
        "quotient", "--num", "1", "1", "-m", "1", "--den", "2", "1", "-n", "1",
        "-k", "0", "--at=-2",
    )


# -- pf ---------------------------------------------------------------------------


def test_pf_decomposition(capsys, tmp_path):
    spec = tmp_path / "quotient.txt"
    spec.write_text("[denominator]\npoch = 1 1 : 1\npoch = 2 1 : 1\n")
    code, out, err = run(capsys, "pf", "--spec", str(spec))
    assert (code, out, err) == (0, "1/(1+eps) - 1/(2+eps)\n", "")


def test_pf_with_numerator_scalar(capsys, tmp_path):
    spec = tmp_path / "quotient.txt"
    spec.write_text(
        "[numerator]\npoch = 3 0 : 1\n[denominator]\npoch = 1 1 : 2\n"
    )
    code, out, _ = run(capsys, "pf", "--spec", str(spec))
    assert code == 0
    assert out == "3*(1/(1+eps) - 1/(2+eps))\n"


def test_pf_missing_file(capsys, tmp_path):
    assert_clean_failure(capsys, "pf", "--spec", str(tmp_path / "nope.txt"))


@pytest.mark.parametrize("command", ["pf", "expand"])
def test_spec_file_that_is_not_utf8_is_a_clean_error(capsys, tmp_path, command):
    spec = tmp_path / "spec.txt"
    spec.write_bytes(b"\xff\xfe[numerator]\n")
    code, out, err = run(capsys, command, "--spec", str(spec))
    assert (code, out) == (1, "")
    assert err.startswith("pochex: error: ") and err.count("\n") == 1
    assert str(spec) in err


def test_pf_repeated_root(capsys, tmp_path):
    spec = tmp_path / "quotient.txt"
    spec.write_text("[denominator]\npoch = 1 1 : 2\npoch = 2 1 : 1\n")
    assert_clean_failure(capsys, "pf", "--spec", str(spec))


def test_pf_parse_error_carries_line_number(capsys, tmp_path):
    spec = tmp_path / "quotient.txt"
    spec.write_text("[denominator]\npoch = 1 1 : 0 1 0\n")
    code, out, err = run(capsys, "pf", "--spec", str(spec))
    assert (code, out) == (1, "")
    assert "line 2" in err


# -- results and literals past Python's int<->str digit limit --------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["poch", "--alpha", "1", "-m", "1700", "-k", "0", "--method", "recurrence"],
        ["recip", "--beta", "1", "-m", "1700", "-k", "0", "--method", "recurrence"],
    ],
    ids=["poch", "recip"],
)
def test_result_past_the_digit_limit_is_printed(capsys, argv):
    # (1)_1700 = 1700! has 4,756 digits, more than Python's default limit of 4,300.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)  # a caller's own limit, below the result's size
    try:
        code, out, err = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 4321  # given back on exit
        sys.set_int_max_str_digits(0)
        digits = str(math.factorial(1700))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) > 4300
    assert (code, err) == (0, "")
    assert out == (digits if argv[0] == "poch" else f"1/{digits}") + "\n"


@pytest.mark.parametrize(
    "command, text, lineno",
    [
        ("pf", "[numerator]\npoch = {big} 1 : 1\n[denominator]\npoch = 2 1 : 2\n", 2),
        ("expand", "[denominator]\npoch = 1 1 : 0 1 0\npoch = 1/{big} 1 : 0 0 1\n", 3),
    ],
)
def test_spec_literal_past_the_digit_limit_is_a_parse_error(
    capsys, tmp_path, command, text, lineno
):
    spec = tmp_path / "spec.txt"
    spec.write_text(text.format(big="7" * 5000))
    code, out, err = run(capsys, command, "--spec", str(spec))
    assert (code, out) == (1, "")
    assert err == (
        f"pochex: error: line {lineno}: a rational literal with a 5000-digit part "
        "exceeds the 4300-digit limit\n"
    )


# -- expand ----------------------------------------------------------------------


F1_SPEC = """\
[numerator]
poch = 1 -2 : 0 1 1
poch = 1 -1 : 0 1 1
[denominator]
poch = 1 -1 : 0 1 0
poch = 1 -1 : 0 0 1
[options]
eps_order = 1
degree_bound = 2
"""


def test_expand_closed_csv(capsys):
    code, out, _ = run(
        capsys, "expand", "--closed", "F1", "--eps-order", "1", "--degree-bound", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,m1,m2,coefficient"
    assert "0,1,1,4" in lines
    assert "1,0,1,-2" in lines
    assert "1,1,1,-10" in lines
    assert "1,2,0,-3" in lines
    assert len(lines) == 1 + 12  # six lattice points, k = 0 and 1


def test_expand_spec_file_matches_closed(capsys, tmp_path):
    spec = tmp_path / "f1.spec"
    spec.write_text(F1_SPEC)
    code_a, out_a, _ = run(capsys, "expand", "--spec", str(spec))
    code_b, out_b, _ = run(
        capsys, "expand", "--closed", "F1", "--eps-order", "1", "--degree-bound", "2"
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_expand_flag_overrides_file_options(capsys, tmp_path):
    spec = tmp_path / "f1.spec"
    spec.write_text(F1_SPEC)
    code, out, _ = run(capsys, "expand", "--spec", str(spec), "--eps-order", "0")
    assert code == 0
    ks = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert ks == {"0"}


def test_expand_defaults(capsys):
    code, out, _ = run(capsys, "expand", "--closed", "F4")
    assert code == 0
    lines = out.splitlines()[1:]
    ks = {int(line.split(",")[0]) for line in lines}
    degrees = {int(line.split(",")[1]) + int(line.split(",")[2]) for line in lines}
    assert ks == {0, 1, 2, 3}  # default eps order 3
    assert max(degrees) == 5  # default degree bound 5


def test_expand_regroup_total(capsys):
    code, out, _ = run(
        capsys,
        "expand", "--closed", "F5", "--eps-order", "0", "--degree-bound", "1",
        "--regroup", "total",
    )
    assert code == 0
    assert out.splitlines() == [
        "k,m,n,coefficient",
        "0,0,0,1",
        "0,1,0,1/2",
        "0,1,1,1/4",
    ]


def test_expand_aligned_format(capsys):
    code, out, _ = run(
        capsys,
        "expand", "--closed", "F1", "--eps-order", "1", "--degree-bound", "1",
        "--format", "aligned",
    )
    assert code == 0
    assert out.startswith("k = 0\n")
    assert "k = 1" in out


def test_expand_delta_families(capsys):
    code_a, out_a, _ = run(
        capsys,
        "expand", "--closed", "F6", "--delta", "1/3",
        "--eps-order", "1", "--degree-bound", "2",
    )
    code_b, out_b, _ = run(
        capsys,
        "expand", "--closed", "F6_alt", "--delta", "1/3",
        "--eps-order", "1", "--degree-bound", "2",
    )
    assert code_a == code_b == 0
    assert out_a == out_b


@pytest.mark.parametrize(
    "argv, point",
    [
        (("expand", "--closed", "F6", "--delta=-1"), "(0, 1)"),
        (("expand", "--closed", "F7", "--delta", "-2"), "(0, 2)"),
    ],
)
def test_expand_closed_delta_pole_is_a_clean_error(capsys, argv, point):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("pochex: error: ")
    assert f"lattice point {point}" in line


def test_expand_delta_required(capsys):
    assert_clean_failure(capsys, "expand", "--closed", "F7")


@pytest.mark.parametrize("example", ["F1", "F2", "F3", "F4", "F5"])
def test_expand_delta_free_example_refuses_delta(capsys, example):
    code, out, err = run(capsys, "expand", "--closed", example, "--delta", "1/3")
    assert (code, out) == (1, "")
    assert err == f"pochex: error: example {example} takes no delta\n"


def test_expand_spec_refuses_delta(capsys, tmp_path):
    spec = tmp_path / "f1.spec"
    spec.write_text(F1_SPEC)
    code, out, err = run(capsys, "expand", "--spec", str(spec), "--delta", "1/3")
    assert (code, out) == (1, "")
    assert err == (
        "pochex: error: --delta is for --closed; a spec carries delta in its own constants\n"
    )


def test_expand_source_flags_are_exclusive(capsys, tmp_path):
    spec = tmp_path / "f1.spec"
    spec.write_text(F1_SPEC)
    assert_clean_failure(capsys, "expand", "--spec", str(spec), "--closed", "F1")
    assert_clean_failure(capsys, "expand")


def test_expand_unknown_example(capsys):
    # The name is checked once, by expand_closed, not by argparse as well.
    assert run(capsys, "expand", "--closed", "F9") == (
        1,
        "",
        "pochex: error: unknown example 'F9'; known: "
        "F1, F2, F3, F4, F5, F6, F6_alt, F7, dF7_ddelta\n",
    )


# -- tables -----------------------------------------------------------------------


def test_tables_small(capsys):
    code, out, err = run(capsys, "tables", "--k", "0", "--max-m", "2")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "k,m,n,coefficient",
        "0,0,0,1",
        "0,1,0,1/2",
        "0,1,1,1/4",
        "0,2,0,5/16",
        "0,2,1,1/4",
        "0,2,2,1/8",
    ]


def test_tables_defaults_have_84_entries(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,m,n,coefficient"
    assert len(lines) == 1 + 84  # k in 0..3, m in 0..5, n in 0..m


def test_tables_k_range(capsys):
    code, out, _ = run(capsys, "tables", "--k", "1..2", "--max-m", "3")
    assert code == 0
    ks = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert ks == {"1", "2"}


def test_tables_bad_range(capsys):
    assert_clean_failure(capsys, "tables", "--k", "3..1")
    assert_clean_failure(capsys, "tables", "--k", "x")


def test_tables_negative_max_m(capsys):
    assert_clean_failure(capsys, "tables", "--max-m", "-1")


# -- verify -----------------------------------------------------------------------


def test_verify_selected_ids(capsys):
    code, out, err = run(capsys, "verify", "--id", "A9", "--id", "nueva1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("A9: PASS (")
    assert lines[1].startswith("nueva1: PASS (")


def test_verify_reports_each_failure(capsys, monkeypatch):
    # One identity and one generating relation whose two sides disagree, and
    # one relation left as it is.
    relations = pochex.verify._RELATIONS
    monkeypatch.setitem(relations, "iii4", (lambda calls, m: (1, 2), "m>=0", lambda: [{"m": 1}]))
    sides = (EpsSeries([1, 0, 1]), EpsSeries([1, 0, 0]))
    grid = [{"k": 0}, {"k": 1}]
    monkeypatch.setitem(relations, "a7", (lambda calls, order, k: sides, "k>=0", lambda: grid))
    code, out, err = run(capsys, "verify", "--id", "iii4", "--id", "a7", "--id", "iii10")
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "iii4: FAIL (1/1 point)",
        "  params {'m': '1'}: lhs 1 rhs 2",
        "a7: FAIL (2/2 points)",
        "  params {'k': '0'}: first discrepancy at exponent 2 (order 12)",
        "  params {'k': '1'}: first discrepancy at exponent 2 (order 12)",
        "iii10: PASS (63 points)",
    ]


def test_verify_unknown_id(capsys):
    assert_clean_failure(capsys, "verify", "--id", "A99")


def test_verify_unknown_id_after_a_known_one(capsys):
    assert_clean_failure(capsys, "verify", "--id", "A27", "--id", "zz")


def test_verify_id_and_all_conflict(capsys):
    assert_clean_failure(capsys, "verify", "--id", "A9", "--all")


def test_verify_id_and_all_is_a_verify_usage_error(capsys):
    assert_usage_error(
        capsys, "--id and --all are mutually exclusive", "verify", "--id", "A5", "--all"
    )


# -- top-level behavior --------------------------------------------------------------


def test_no_subcommand(capsys):
    assert_clean_failure(capsys)


def test_unknown_subcommand(capsys):
    assert_clean_failure(capsys, "frobnicate")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "poch" in out


def test_each_subcommand_runs_its_own_command():
    commands = subcommands()
    runs = {name: sub.get_default("run") for name, sub in commands.items()}
    assert runs == {name: getattr(cli, f"_cmd_{name}") for name in runs}
    assert all(sub.get_default("parser") is sub for sub in commands.values())
    assert sorted(runs) == ["expand", "pf", "poch", "quotient", "recip", "tables", "verify"]


def test_output_is_deterministic(capsys):
    args = ("expand", "--closed", "F2", "--eps-order", "2", "--degree-bound", "3")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


# -- argv fuzz -----------------------------------------------------------------------

# Small values only, so that no draw runs long: the largest expansion is K = D = 12.
_INT = st.integers(-3, 12).map(str)
_RAT = st.builds("{}/{}".format, st.integers(-12, 12), st.integers(1, 5)) | _INT
_RELATION_IDS = [r.value for r in IdentityId] + [r.value for r in GenFunId] + ["zz"]
_COMMANDS = ["poch", "recip", "laurent", "quotient", "expand", "tables", "verify"]


@st.composite
def _argv(draw):
    i, r = (lambda: draw(_INT)), (lambda: draw(_RAT))
    command = draw(st.sampled_from(_COMMANDS))
    if command == "poch":
        method = draw(st.sampled_from([m.value for m in PochMethod]))
        return ["poch", "--alpha", r(), "-m", i(), "-k", i(), "--method", method]
    if command == "recip":
        method = draw(st.sampled_from([m.value for m in RecipMethod]))
        return ["recip", "--beta", r(), "-m", i(), "-k", i(), "--method", method]
    if command == "laurent":
        return ["recip", "--laurent", "-n", i(), "-b", r(), "-m", i(), "--order", i()]
    if command == "quotient":
        argv = ["quotient", "--num", r(), r(), "-m", i(), "--den", r(), r(), "-n", i()]
        return argv + ["-k", i(), "--at", r()]
    if command == "expand":
        example = draw(st.sampled_from(CLOSED_EXAMPLES) | st.sampled_from(["F9", "f1", ""]))
        argv = ["expand", "--closed", example]
        argv += ["--eps-order", i(), "--degree-bound", i()]
        if draw(st.booleans()):
            argv += ["--delta", r()]
        argv += ["--regroup", draw(st.sampled_from(["lattice", "total"]))]
        return argv + ["--format", draw(st.sampled_from(["csv", "aligned"]))]
    if command == "tables":
        k = draw(st.sampled_from([i(), f"{i()}..{i()}"]))
        return ["tables", "--k", k, "--max-m", i()]
    ids = draw(st.lists(st.sampled_from(_RELATION_IDS), min_size=1, max_size=2))
    return ["verify"] + [token for relation in ids for token in ("--id", relation)]


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
def test_argv_fuzz_exits_cleanly(argv):
    # Exit 0, 1 or 2 with no exception; a failure prints nothing on stdout and
    # says `error:` on stderr.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.getvalue() == "", argv
        assert any("error:" in line for line in err.getvalue().splitlines()), argv


# -- golden gate: the bytes of every documented line, help page and refusal --------------

# Every `pochex ...` line of the README's code blocks, without its comment.
README_LINES = re.findall(r"^pochex (.+?)(?:\s+#.*)?$", README, re.MULTILINE)
# Spec files read by the refusals below, by name; `nope.txt` does not exist.
BIG = b"7" * 5000
REFUSED_FILES = {
    "f1.spec": F1_SPEC.encode(),
    "latin.txt": b"\xff\xfe[numerator]\n",
    "repeated.txt": b"[denominator]\npoch = 1 1 : 2\npoch = 2 1 : 1\n",
    "badline.txt": b"[denominator]\npoch = 1 1 : 0 1 0\n",
    "big_pf.txt": b"[numerator]\npoch = %s 1 : 1\n[denominator]\npoch = 2 1 : 2\n" % BIG,
    "big_expand.txt": b"[denominator]\npoch = 1 1 : 0 1 0\npoch = 1/%s 1 : 0 0 1\n" % BIG,
}
# The usage and domain errors that the tests above trigger, one argv each.
REFUSALS = [
    "poch --alpha 1.5 -m 2 -k 1",
    "poch --alpha 1 -m 2 -k 1 --method magic",
    "poch --alpha 1 -m -2 -k 0",
    "recip --beta=-2 -m 4 -k 1",
    "recip --laurent -m 3",
    "recip --laurent -n 1 -b 1 -m 3 --order 3 --beta 2",
    "recip -m 3",
    "recip --beta 1 -m 2 -k 1 -n 3",
    "recip --beta 1 -m 2 -k 1 -b 2",
    "recip --beta 1 -m 2 -k 1 --order 4",
    "recip --beta 1 -m 2 -k 1 -n 3 -b 2 --order 4",
    "recip --laurent -n 0 -b 1 -m 2 --order 2 --method delta_form",
    "quotient --num 1 1 -m 1 --den 2 1 -n 1 -k 0 --at=-2",
    "pf --spec nope.txt",
    "pf --spec latin.txt",
    "expand --spec latin.txt",
    "pf --spec repeated.txt",
    "pf --spec badline.txt",
    "pf --spec big_pf.txt",
    "expand --spec big_expand.txt",
    "expand --closed F6 --delta=-1",
    "expand --closed F7 --delta -2",
    "expand --closed F7",
    *(f"expand --closed {example} --delta 1/3" for example in ["F1", "F2", "F3", "F4", "F5"]),
    "expand --spec f1.spec --delta 1/3",
    "expand --spec f1.spec --closed F1",
    "expand",
    "expand --closed F9",
    "tables --k 3..1",
    "tables --k x",
    "tables --max-m -1",
    "verify --id A99",
    "verify --id A27 --id zz",
    "verify --id A9 --all",
    "verify --id A5 --all",
    "",
    "frobnicate",
]


def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch):
    # One sha256 over (argv, exit code, stdout, stderr) of each README line, each
    # `--help` and each refusal above, run in a directory that holds their files.
    # argparse wraps its help and usage to the terminal width, so the width is fixed.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for name, data in REFUSED_FILES.items():
        (tmp_path / name).write_bytes(data)
    helps = [["--help"]] + [[command, "--help"] for command in subcommands()]
    argvs = [shlex.split(line) for line in README_LINES + REFUSALS] + helps
    h = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        h.update(f"{[argv, code, out.getvalue(), err.getvalue()]!r}\n".encode())
    assert (len(README_LINES), len(argvs), h.hexdigest()) == (
        15,
        64,
        "0539993ac9e3a5f3dea5edc6ce366181ede88d1ea3ca698021320bd93de8978a",
    )
