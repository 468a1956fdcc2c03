"""File format round trips and CLI behavior, including exit codes."""

import io
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from trigvee import errors
from trigvee.catalog import catalog_get, catalog_list
from trigvee.cli import main
from trigvee.cms import cms_identity_residual, vee_form_metric
from trigvee.constraints import find_multiplicities
from trigvee.errors import DimensionMismatch, InvalidParams, ParseError
from trigvee.multipoly import parse_expression
from trigvee.veefile import (
    config_file_from_configuration,
    parse_config_file,
    parse_rational,
    render_config_file,
)
from trigvee.wdvv import wdvv_residual

F = Fraction


@st.composite
def rational_tokens(draw):
    """Tokens of the grammar's <q>, leading zeros and `-0` included, with
    digit strings of up to 40 digits or exactly 4300, the most `int`
    converts from a string by default."""
    digits = st.one_of(st.integers(1, 40), st.just(4300)).flatmap(
        lambda size: st.text("0123456789", min_size=size, max_size=size)
    )
    token = draw(st.sampled_from(["", "-"])) + draw(digits)
    if draw(st.booleans()):
        token += "/" + draw(digits)
    return token


A2_TEXT = """\
dim 2
vector 1 0 mult 1
vector 0 1 mult 1
vector 1 1 mult 1
"""

A2_SYMBOLIC_TEXT = "dim 2\nvector 1 0 mult ?a\nvector 0 1 mult ?b\nvector 1 1 mult ?c\n"
DESCENT_ONLY_TEXT = "dim 2\n" + "".join(
    f"vector {v} mult ?c{k}\n" for k, v in enumerate(["0 1", "1 0", "1 1", "1 2", "2 1", "2 2"])
)


class TestFileFormat:
    def test_parse_canonical(self):
        cf = parse_config_file(A2_TEXT)
        assert cf.dim == 2
        assert len(cf.entries) == 3
        assert cf.entries[2].coords == (F(1), F(1))
        assert not cf.has_symbols()
        cfg = cf.build()
        assert cfg.gram_det == 3

    def test_symbolic_multiplicity(self):
        cf = parse_config_file("dim 2\nvector 1/2 3/2 mult ?b\nvector 1 0 mult 1\n")
        assert cf.entries[0].symbol == "b"
        assert cf.entries[0].coords == (F(1, 2), F(3, 2))
        assert cf.has_symbols()

    def test_comments_blanks_and_lambda2(self):
        text = "# configuration\n\ndim 2  # two dims\nvector 1 0 mult 1\nvector 0 1 mult 1\nlambda2 36\n"
        cf = parse_config_file(text)
        assert cf.lambda2 == 36

    def test_round_trip_parse_render(self):
        for name in ("A2", "Prop5", "TenVector"):
            cf = config_file_from_configuration(catalog_get(name).cfg, lambda2=None)
            assert parse_config_file(render_config_file(cf)) == cf
        symbolic = parse_config_file("dim 2\nvector 1 0 mult ?a\nvector 0 1 mult 2/3\n")
        assert parse_config_file(render_config_file(symbolic)) == symbolic

    def test_parse_rational(self):
        assert parse_rational("-1/2") == F(-1, 2)
        with pytest.raises(ParseError, match=r"^zero denominator \(line 3, column 4\)$"):
            parse_rational("1/0", 3, 4)

    @given(rational_tokens())
    @example("-0")
    @example("-0/007")
    @example("0012/0018")
    @example("9" * 4300 + "/" + "0" * 4299 + "7")
    def test_parse_rational_equals_fraction_of_the_token(self, token):
        assume(not re.fullmatch(r"-?[0-9]+/0+", token))
        got = parse_rational(token)
        assert type(got) is Fraction and got == Fraction(token)

    @pytest.mark.parametrize("token", ["1" * 4301, "-1/" + "1" * 4301, "0" * 4301 + "/3"])
    def test_parse_rational_refuses_a_token_past_the_digit_limit(self, token):
        with pytest.raises(ParseError, match=rf"^number too long \({len(token)} characters\)"):
            parse_rational(token)

    @pytest.mark.parametrize("token", ["3\n", "-1/2\n"])
    def test_parse_rational_refuses_trailing_newline(self, token):
        with pytest.raises(ParseError, match="^expected a rational number"):
            parse_rational(token)

    def test_build_refuses_symbolic_file(self):
        with pytest.raises(InvalidParams) as exc:
            parse_config_file("dim 1\nvector 1 mult ?a\n").build()
        assert str(exc.value) == (
            "file has symbolic multiplicities; use the constraints/family/search commands"
        )

    def test_zero_covector_rejected_at_parse(self):
        with pytest.raises(ParseError) as err:
            parse_config_file("dim 2\nvector 0 0 mult 1\n")
        assert err.value.line == 2

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_config_file("vector 1 0 mult 1\n")  # dim missing
        with pytest.raises(ParseError):
            parse_config_file("dim 2\ndim 2\nvector 1 0 mult 1\n")
        with pytest.raises(ParseError):
            parse_config_file("dim 2\nvector 1 0 mult 1\nfrobnicate 3\n")
        with pytest.raises(ParseError):
            parse_config_file("dim 2\nvector 1 0.5 mult 1\n")  # decimals not in grammar
        with pytest.raises(ParseError):
            parse_config_file("dim 2\nvector 1 1/0 mult 1\n")
        with pytest.raises(DimensionMismatch):
            parse_config_file("dim 2\nvector 1 0 1 mult 1\n")
        with pytest.raises(ParseError) as err:
            parse_config_file("dim 1\nvector 1 mult ?a\n\nvector 2 mult ?a\n")
        assert err.value.line == 4

    @pytest.mark.parametrize("expr", ["1/0", "t/(t-t)", "t/(1-1)^2"])
    def test_division_by_zero_expression(self, expr):
        with pytest.raises(ParseError, match="division by zero"):
            parse_expression(expr, ["t"])


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.vee"
    path.write_text(A2_TEXT)
    return str(path)


@pytest.fixture
def b2bad_file(tmp_path):
    path = tmp_path / "b2bad.vee"
    path.write_text(
        "dim 2\nvector 1 0 mult 1\nvector 0 1 mult 2\nvector 1 1 mult 1\nvector 1 -1 mult 1\n"
    )
    return str(path)


@pytest.fixture
def b2sym_file(tmp_path):
    path = tmp_path / "b2sym.vee"
    path.write_text(
        "dim 2\nvector 1 0 mult ?c1\nvector 0 1 mult ?c2\nvector 1 1 mult ?cp\nvector 1 -1 mult ?cm\n"
    )
    return str(path)


@pytest.fixture
def a2sym_file(tmp_path):
    path = tmp_path / "a2sym.vee"
    path.write_text(A2_SYMBOLIC_TEXT)
    return str(path)


class TestCli:
    def test_check_pass(self, a2_file, capsys):
        assert main(["check", a2_file]) == 0
        out = capsys.readouterr().out
        assert "trig-vee: PASS" in out
        assert "lambda2 = 36" in out

    def test_check_no_solution_exit_1(self, tmp_path, capsys):
        path = tmp_path / "pair.vee"
        path.write_text("dim 2\nvector 1 0 mult 1\nvector 0 1 mult 1\n")
        assert main(["check", str(path)]) == 1
        assert "NO SOLUTION" in capsys.readouterr().out

    def test_series_failure_prints_witness(self, b2bad_file, capsys):
        assert main(["series", b2bad_file]) == 1
        out = capsys.readouterr().out
        assert "residual" in out and "1/12" in out

    def test_failure_listing_pinned(self, tmp_path, capsys):
        """A B2 with c1 != c2: the failing series in split order, with their
        residuals and report keys, as the eager report listed them."""
        path = tmp_path / "b2.vee"
        path.write_text(
            "dim 2\nvector 1 0 mult 1\nvector 0 1 mult 2\nvector 1 1 mult 3/2\nvector 1 -1 mult 1/2\n"
        )
        failures = [
            ("v2", 0, "v0,v1", "-1/11"),
            ("v2", 1, "v3", "1/22"),
            ("v3", 0, "v0,v1", "-3/11"),
            ("v3", 1, "v2", "3/22"),
        ]
        assert main(["check", str(path), "--report-kv"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "trig-vee: FAIL, irreducible: yes, lambda2 = 484/7",
            *(f"series failure: base {b} members ({m}) residual {r}" for b, _s, m, r in failures),
            "trig_vee = fail",
            "degenerate = no",
            "irreducible = yes",
            "lambda2_status = solved",
            "lambda2 = 484/7",
        ]
        assert main(["series", str(path), "--report-kv"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "series: FAIL (4 of 6 residuals nonzero)",
            *(f"base {b} series {s} members ({m}): residual {r}" for b, s, m, r in failures),
            "series = fail",
            "series_checked = 6",
            *(f"residual_{b[1]}_{s} = {r}" for b, s, _m, r in failures),
        ]

    @pytest.mark.parametrize(
        "command, out, err",
        [
            (["series", "--report-kv"], ["series: FAIL (degenerate form)", "series = fail", "degenerate = yes"], ""),
            (["check"], ["trig-vee: FAIL (degenerate form)"], ""),
            (["lambda"], [], "check failed: the form G is degenerate\n"),
            (["wdvv"], [], "check failed: the form G is degenerate\n"),
            (["cms"], [], "check failed: the form G is degenerate\n"),
        ],
        ids=["series", "check", "lambda", "wdvv", "cms"],
    )
    def test_series_degenerate_form_exit_1(self, tmp_path, capsys, command, out, err):
        """G = 1 * 1^2 - (1/4) * 2^2 = 0 on the line: every exact command exits 1."""
        path = tmp_path / "degenerate.vee"
        path.write_text("dim 1\nvector 1 mult 1\nvector 2 mult -1/4\n")
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == out
        assert captured.err == err

    @pytest.mark.parametrize(
        "command",
        [["constraints"], ["family", "--set", "a=t"], ["search"]],
        ids=["constraints", "family", "search"],
    )
    def test_non_spanning_vectors_exit_2(self, tmp_path, capsys, command):
        """Vectors that do not span are outside the constraint tools' hypotheses."""
        path = tmp_path / "line.vee"
        path.write_text("dim 2\nvector 1 0 mult ?a\nvector 2 0 mult ?b\n")
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vectors span only 1 of 2 dimensions\n"

    @pytest.mark.parametrize("command", ["check", "series", "lambda", "wdvv", "cms"])
    def test_repeated_covector_exit_2(self, tmp_path, capsys, command):
        """A covector listed twice up to sign is not a set: an input error."""
        path = tmp_path / "repeated.vee"
        path.write_text("dim 2\nvector 1 0 mult 1\nvector 0 1 mult 1\nvector -1 0 mult 2\n")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: entries v0 and v2 coincide up to sign\n"

    def test_lambda_on_degenerate_form_exit_1(self, tmp_path, capsys):
        """Collinear distinct covectors that do not span give a degenerate form:
        a failed check, not an input error."""
        path = tmp_path / "line.vee"
        path.write_text("dim 2\nvector 1 0 mult 1\nvector 2 0 mult 1\n")
        assert main(["lambda", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "check failed: the form G is degenerate\n"

    def test_lambda(self, a2_file, capsys):
        assert main(["lambda", a2_file, "--report-kv"]) == 0
        out = capsys.readouterr().out
        assert "lambda2 = 36" in out
        assert "lambda2_status = solved" in out

    @pytest.mark.parametrize("command", ["check", "lambda"])
    @pytest.mark.parametrize(
        "text", [A2_TEXT, "dim 2\nvector 1 0 mult 1\nvector 0 1 mult 1\n"], ids=["A2", "pair"]
    )
    def test_check_and_lambda_ignore_a_declared_lambda2(self, command, text, tmp_path, capsys):
        """Only `vee wdvv` reads the lambda2 line: `check` and `lambda` solve
        for the coupling and print the same whatever the file declares."""
        runs = []
        declarations = ["", "lambda2 36\n", "lambda2 5\n", "lambda2 0\n", "lambda2 -7/3\n"]
        for k, declared in enumerate(declarations):
            path = tmp_path / f"declared{k}.vee"
            path.write_text(text + declared)
            for extra in ([], ["--report-kv"]):
                code = main([command, str(path)] + extra)
                runs.append((extra, code, capsys.readouterr()))
        assert runs[2:] == runs[:2] * 4

    def test_wdvv_pass_and_perturbed_fail(self, a2_file, tmp_path, capsys):
        assert main(["wdvv", a2_file, "--points", "10", "--seed", "7", "--tol", "1e-8"]) == 0
        perturbed = tmp_path / "a2wrong.vee"
        perturbed.write_text(A2_TEXT + "lambda2 35\n")
        assert main(["wdvv", str(perturbed), "--points", "10", "--seed", "7"]) == 1

    def test_cms(self, a2_file, capsys):
        assert main(["cms", a2_file, "--points", "10", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "cms identity" in out and "PASS" in out

    def test_cms_metric_file(self, a2_file, tmp_path, capsys):
        metric = tmp_path / "metric.txt"
        metric.write_text("1 0\n0 1\n")
        assert main(["cms", a2_file, "--metric", str(metric)]) == 1
        out = capsys.readouterr().out
        assert "metric series condition: FAIL" in out

    @pytest.mark.parametrize("command", ["wdvv", "cms"])
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_exit_2(self, a2_file, capsys, command, points):
        assert main([command, a2_file, "--points", points]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --points must be at least 1, got {points}\n"

    @pytest.mark.parametrize("command", ["wdvv", "cms"])
    @pytest.mark.parametrize(
        "option, message",
        [
            ("--tol=nan", "--tol must be a finite number above 0, got nan"),
            ("--tol=inf", "--tol must be a finite number above 0, got inf"),
            ("--tol=0", "--tol must be a finite number above 0, got 0.0"),
            ("--tol=-1e-8", "--tol must be a finite number above 0, got -1e-08"),
            ("--margin=nan", "--margin must be a finite number, got nan"),
            ("--margin=-inf", "--margin must be a finite number, got -inf"),
        ],
    )
    def test_bad_float_option_exit_2(self, a2_file, capsys, command, option, message):
        """A NaN --tol would print FAIL, a NaN --margin would exhaust the
        sampler: both are refused before anything is computed."""
        assert main([command, a2_file, option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("num_points", [0, -1])
    def test_library_rejects_points_below_one(self, num_points):
        cfg = catalog_get("A2").cfg
        with pytest.raises(InvalidParams, match="num_points must be at least 1"):
            wdvv_residual(cfg, 36, num_points=num_points)
        with pytest.raises(InvalidParams, match="num_points must be at least 1"):
            cms_identity_residual(cfg, vee_form_metric(cfg), num_points=num_points)

    def test_non_symmetric_metric_file_exit_2(self, a2_file, tmp_path, capsys):
        metric = tmp_path / "metric.txt"
        metric.write_text("1 2\n0 1\n")
        assert main(["cms", a2_file, "--metric", str(metric)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: metric file must hold a symmetric matrix\n"

    def test_singular_metric_file_exit_2(self, a2_file, tmp_path, capsys):
        metric = tmp_path / "metric.txt"
        metric.write_text("1 2\n2 4\n")
        assert main(["cms", a2_file, "--metric", str(metric)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: metric file must hold a nonsingular matrix\n"

    def test_non_utf8_input_exit_2(self, tmp_path, capsys, monkeypatch):
        data = A2_TEXT.encode() + b"# \xff\n"
        path = tmp_path / "latin.vee"
        path.write_bytes(data)
        reason = f"is not UTF-8 text (invalid start byte at byte {len(A2_TEXT) + 2})"
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} {reason}\n"
        # stdin is decoded strictly even where the locale escapes bad bytes
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["check", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: stdin {reason}\n"

    @pytest.mark.parametrize("command", ["constraints", "family", "search"])
    def test_repeated_symbol_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "repeated.vee"
        path.write_text("dim 2\nvector 1 0 mult ?c\nvector 0 1 mult ?c\nvector 1 1 mult ?d\n")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: repeated multiplicity symbol '?c' (line 3, column 5)\n"

    @pytest.mark.parametrize("expr", ["1/0", "t/(t-t)", "(t+1)/(2-2)*t"])
    def test_division_by_zero_exit_2(self, b2sym_file, capsys, expr):
        assert main(["family", b2sym_file, "--set", f"c1={expr}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: division by zero in expression\n"

    @pytest.mark.parametrize("expr", ["0", "t-t"])
    def test_zero_multiplicity_exit_2(self, b2sym_file, capsys, expr):
        assert main(["family", b2sym_file, "--set", f"c1={expr}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: multiplicity c1 is identically 0\n"

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("2^99999999", "power too large (over 10000 bits)"),
            ("5" * 5000 + "*t", "integer too long (5000 digits)"),
            ("(1+s+t)^40", "power too large (over 500 terms)"),
            ("2^5000*2^5000*2^5000", "a number has more than 4300 decimal digits"),
        ],
        ids=["power", "literal", "terms", "product"],
    )
    def test_oversized_expression_exit_2(self, b2sym_file, capsys, expr, message):
        start = time.process_time()
        assert main(["family", b2sym_file, "--set", f"c1={expr}"]) == 2
        assert time.process_time() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dim ²\nvector 1 mult 1\n", "usage: dim <positive integer>, got '²' (line 1, column 1)"),
            ("dim ٢\nvector 1 0 mult 1\n", "usage: dim <positive integer>, got '٢' (line 1, column 1)"),
            (
                "dim 2\nvector ٣ 0 mult 1\nvector 0 1 mult 1\n",
                "expected a rational number, got '٣' (line 2, column 2)",
            ),
        ],
        ids=["superscript-dim", "arabic-indic-dim", "arabic-indic-coordinate"],
    )
    def test_non_ascii_digit_in_file_exit_2(self, tmp_path, capsys, text, message):
        """str.isdigit and the regex \\d accept these digits; only 0-9 are digits."""
        with pytest.raises(ParseError):
            parse_config_file(text)
        path = tmp_path / "digits.vee"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("expr", ["²", "t²"], ids=["literal", "in-name"])
    def test_non_ascii_digit_in_expression_exit_2(self, b2sym_file, capsys, expr):
        """'t²' would otherwise name a new free parameter, not t^2."""
        with pytest.raises(ParseError):
            parse_expression(expr, ["t"])
        assert main(["family", b2sym_file, "--set", f"c1={expr}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unexpected character '²' in expression\n"

    def test_oversized_multiplicity_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.vee"
        path.write_text("dim 2\nvector 1 0 mult 1\nvector 0 1 mult " + "7" * 5000 + "\n")
        start = time.process_time()
        assert main(["check", str(path)]) == 2
        assert time.process_time() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: number too long (5000 characters) (line 3, column 5)\n"

    @pytest.mark.parametrize(
        "text",
        [
            "dim 2\nvector 1 0 mult 1\nvector 0 1 mult " + "7" * 4000 + "\nvector 1 1 mult 1\n",
            "dim " + "7" * 5000 + "\nvector 1 mult 1\n",
        ],
        ids=["lambda2", "dim"],
    )
    def test_number_past_digit_limit_exit_2(self, tmp_path, capsys, text):
        """A lambda2 built from a 4000-digit multiplicity, and a 5000-digit dim."""
        path = tmp_path / "big.vee"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a number has more than 4300 decimal digits\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dim 2\nvector 1 0 mult 0\n", "zero multiplicity (line 2, column 5)"),
            ("lambda2 3\ndim 2\n", "dim must come before lambda2 (line 1, column 1)"),
            (
                "dim 2\nvector 1 0 mult 1\nlambda2 3\nlambda2 3\n",
                "duplicate lambda2 directive (line 4, column 1)",
            ),
            ("dim 2\nvector 1 0 mult 1\nlambda2 3 4\n", "usage: lambda2 <rational> (line 3, column 1)"),
            ("dim 2\nvectr 1 0 mult 1\n", "unknown directive 'vectr' (line 2, column 1)"),
            ("# nothing\n", "missing dim directive"),
            ("dim 2\n", "no vector lines"),
            (
                "dim 2\nvector 1 0 mult ?a\nvector 0 1 mult ?b\n",
                "file has symbolic multiplicities; use the constraints/family/search commands",
            ),
        ],
        ids=[
            "zero-mult", "lambda2-before-dim", "duplicate-lambda2", "lambda2-usage",
            "unknown-directive", "missing-dim", "no-vectors", "symbolic-check",
        ],
    )
    def test_file_error_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.vee"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_constraints_on_mixed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "mixed.vee"
        path.write_text("dim 2\nvector 1 0 mult ?a\nvector 0 1 mult 1\n")
        assert main(["constraints", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: this command needs every multiplicity symbolic (write 'mult ?name')\n"
        )

    @pytest.mark.parametrize(
        "item, message",
        [
            ("a", "--set needs sym=expression, got 'a'"),
            ("z=1", "--set: unknown multiplicity symbol 'z'"),
            ("a=(t", "missing closing parenthesis"),
            ("a=t)", "trailing input after expression: ')'"),
        ],
    )
    def test_bad_set_exit_2(self, a2sym_file, capsys, item, message):
        assert main(["family", a2sym_file, "--set", item]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_lexing_error_in_later_set_wins(self, b2sym_file, capsys):
        """Every --set expression is lexed before any is parsed, so a bad
        character in a later one is reported over a parse error in an earlier."""
        argv = ["family", b2sym_file, "--set", "c1=(t", "--set", "c2=$"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unexpected character '$' in expression\n"

    def test_set_unary_plus_passes(self, a2sym_file, capsys):
        assert main(["family", a2sym_file, "--set", "a=+t", "--set", "b=t"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "family: PASS (all constraints vanish identically)\n"
        assert captured.err == ""

    def test_constraints_and_family(self, b2sym_file, capsys):
        assert main(["constraints", b2sym_file]) == 0
        out = capsys.readouterr().out
        assert "nondegeneracy" in out
        assert main(["family", b2sym_file, "--set", "c1=t", "--set", "c2=t"]) == 0
        assert main(["family", b2sym_file, "--set", "c1=1", "--set", "c2=2"]) == 1

    def test_failing_merged_family_pinned(self, tmp_path, capsys):
        """B3 with short multiplicities t, t, 2t and long ones s^2/(s+t): the
        residual numerators of the symbols merged by equal image, pinned."""
        path = tmp_path / "b3sym.vee"
        path.write_text(
            "dim 3\n"
            + "".join(
                f"vector {v} mult ?c{k + 1}\n"
                for k, v in enumerate(
                    ["1 0 0", "0 1 0", "0 0 1", "1 1 0", "1 -1 0", "1 0 1", "1 0 -1", "0 1 1", "0 1 -1"]
                )
            )
        )
        sets = ["c1=t", "c2=t", "c3=2*t"] + [f"c{k}=s^2/(s+t)" for k in range(4, 10)]
        assert main(["family", str(path), *(x for kv in sets for x in ("--set", kv))]) == 1
        big = "16*s^7*t - 52*s^6*t^2 - 64*s^5*t^3 - 40*s^4*t^4 - 16*s^3*t^5 - 4*s^2*t^6"
        small = "4*s^7*t + 13*s^6*t^2 + 16*s^5*t^3 + 10*s^4*t^4 + 4*s^3*t^5 + s^2*t^6"
        neg_small = "-4*s^7*t - 13*s^6*t^2 - 16*s^5*t^3 - 10*s^4*t^4 - 4*s^3*t^5 - s^2*t^6"
        expected = ["family: FAIL (16 constraints do not vanish)"]
        for base, first, third in (
            ("c6", 0, small), ("c7", 0, small), ("c8", 1, neg_small), ("c9", 1, neg_small)
        ):
            expected += [
                f"base {base} series {first}: -{big}",
                f"base {base} series 2: {small}",
                f"base {base} series 3: {third}",
                f"base {base} series 4: {small}",
            ]
        captured = capsys.readouterr()
        assert captured.out.splitlines() == expected
        assert captured.err == ""

    def test_search(self, b2sym_file, capsys):
        assert main(["search", b2sym_file, "--fix", "cp", "--seed", "3", "--starts", "4"]) == 0
        out = capsys.readouterr().out
        assert "exactly-verified" in out

    @pytest.mark.parametrize("starts", ["0", "-2"])
    def test_starts_below_one_exit_2(self, b2sym_file, capsys, starts):
        assert main(["search", b2sym_file, "--starts", starts]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --starts must be at least 1, got {starts}\n"

    @pytest.mark.parametrize("starts", [0, -2])
    def test_library_rejects_starts_below_one(self, starts):
        with pytest.raises(InvalidParams, match=f"starts must be at least 1, got {starts}"):
            find_multiplicities([(1, 0), (0, 1), (1, 1), (1, -1)], starts=starts)

    @pytest.mark.parametrize(
        "command, text, seed",
        [
            (["wdvv"], A2_TEXT, "-1"),
            (["cms"], A2_TEXT, "-3"),
            # the descent-only planar set, where the numeric fallback reads the seed
            (["search", "--starts", "2"], DESCENT_ONLY_TEXT, "-1"),
            # certified by the exact stage, which never reads the seed
            (["search"], A2_SYMBOLIC_TEXT, "-5"),
        ],
        ids=["wdvv", "cms", "search-descent", "search-exact"],
    )
    def test_negative_seed_exit_2(self, tmp_path, capsys, command, text, seed):
        path = tmp_path / "input.vee"
        path.write_text(text)
        assert main([command[0], str(path), *command[1:], "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must be at least 0, got {seed}\n"

    def test_catalog_list_show_export(self, capsys):
        assert main(["catalog", "list"]) == 0
        assert "A2" in capsys.readouterr().out
        assert main(["catalog", "show", "Prop4"]) == 0
        out = capsys.readouterr().out
        assert "486/7" in out
        assert main(["catalog", "export", "A2"]) == 0
        out = capsys.readouterr().out
        assert parse_config_file(out).build().gram_det == 3

    def test_prop4_vanishing_closed_form_denominator(self, tmp_path, capsys):
        """c1 + 4 ct1 = 0: `show` and `export` withhold lambda2 instead of
        dividing by zero, and the exact solve finds no coupling."""
        params = ["--param", "c1=2", "--param", "c2=1", "--param", "cp=-1", "--param", "cm=-1"]
        params += ["--param", "ct1=-1/2"]
        assert main(["catalog", "show", "Prop4", *params]) == 0
        out = capsys.readouterr().out
        assert "expected trig-vee: pass" in out and "lambda2" not in out
        assert main(["catalog", "export", "Prop4", *params]) == 0
        path = tmp_path / "prop4.vee"
        path.write_text(capsys.readouterr().out)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("trig-vee: PASS, irreducible: yes, lambda2 = NO SOLUTION\n")

    @pytest.mark.parametrize("token", ["٣", "１", "1.5", "1e3", "1_0", "+3", ".5", "1/٢"])
    def test_param_rational_spelling_exit_2(self, capsys, token):
        """--param reads the .vee grammar [-]digits[/digits], ASCII digits only."""
        assert main(["catalog", "show", "TenVector", "--param", f"scale={token}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --param: {token!r} is not a rational number\n"

    @pytest.mark.parametrize("token", ["٢", "1.0", "1e0", "1_0", "+1"])
    def test_metric_rational_spelling_exit_2(self, a2_file, tmp_path, capsys, token):
        metric = tmp_path / "metric.txt"
        metric.write_text(f"{token} 0\n0 1\n", encoding="utf-8")
        assert main(["cms", a2_file, "--metric", str(metric)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: metric file: {token!r} is not a rational number\n"

    @pytest.mark.parametrize("command", ["wdvv", "cms"])
    def test_unreachable_margin_exit_2(self, a2_file, capsys, command):
        """No point has every |sin a(x)| above 1e9: an input error, not a failed check."""
        assert main([command, a2_file, "--margin", "1e9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no point with margin > 1000000000.0 found in 1000 tries\n"

    def test_catalog_show_without_name_exit_2(self, capsys):
        assert main(["catalog", "show"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: catalog show needs an entry name\n"

    def test_param_zero_denominator_exit_2(self, capsys):
        assert main(["catalog", "show", "B2", "--param", "c1=1/0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --param: '1/0' is not a rational number\n"

    def test_metric_file_wrong_shape_exit_2(self, a2_file, tmp_path, capsys):
        metric = tmp_path / "metric.txt"
        metric.write_text("1 0 0\n0 1 0\n")
        assert main(["cms", a2_file, "--metric", str(metric)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: metric file must hold a 2x2 rational matrix\n"

    def test_param_without_value_exit_2(self, capsys):
        assert main(["catalog", "show", "B2", "--param", "c1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --param needs key=value, got 'c1'\n"

    def test_search_unknown_fix_exit_2(self, b2sym_file, capsys):
        assert main(["search", b2sym_file, "--fix", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --fix: unknown multiplicity symbol 'nope'\n"

    def test_search_existence_undecided_exit_1(self, tmp_path, capsys):
        path = tmp_path / "three.vee"
        path.write_text("dim 2\nvector 1 0 mult ?a\nvector 0 1 mult ?b\nvector 1 2 mult ?c\n")
        assert main(["search", str(path)]) == 1
        assert capsys.readouterr().out == (
            "search: no exactly-verified solution found (existence undecided)\n"
        )

    def test_family_with_vanishing_form_exit_1(self, b2sym_file, capsys):
        sets = ["c1=t", "c2=t", "cp=-t/2", "cm=-t/2"]
        assert main(["family", b2sym_file, *(x for kv in sets for x in ("--set", kv))]) == 1
        assert capsys.readouterr().out == (
            "family: FAIL (the form determinant vanishes identically under this parametrization)\n"
        )

    def test_wdvv_without_coupling_exit_2(self, tmp_path, capsys):
        assert main(["catalog", "export", "OrthogonalPair"]) == 0
        path = tmp_path / "pair.vee"
        path.write_text(capsys.readouterr().out)
        assert main(["wdvv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: coupling status is no_solution; declare lambda2 in the file to force a value\n"
        )

    def test_wdvv_declared_zero_coupling_exit_2(self, tmp_path, capsys):
        """A declared lambda2 0 is outside the prepotential ansatz (a solved
        coupling is never 0): an input error, not a failed check."""
        path = tmp_path / "zero.vee"
        path.write_text(A2_TEXT + "lambda2 0\n")
        assert main(["wdvv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lambda must be nonzero\n"

    def test_export_check_round_trip(self, tmp_path, capsys, monkeypatch):
        assert main(["catalog", "export", "B2"]) == 0
        exported = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(exported))
        assert main(["check", "-"]) == 0
        piped = capsys.readouterr().out
        path = tmp_path / "b2.vee"
        path.write_text(exported)
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == piped

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.vee"
        bad.write_text("dim 2\nvector 0 0 mult 1\n")
        assert main(["check", str(bad)]) == 2
        assert main(["catalog", "show", "Nope"]) == 2
        assert main(["check", str(tmp_path / "missing.vee")]) == 2
        assert main(["nonsense"]) == 2
        sym = tmp_path / "sym.vee"
        sym.write_text("dim 2\nvector 1 0 mult ?a\nvector 0 1 mult 1\n")
        assert main(["check", str(sym)]) == 2

    def test_report_kv_deterministic(self, a2_file, capsys):
        assert main(["check", a2_file, "--report-kv"]) == 0
        first = capsys.readouterr().out
        assert main(["check", a2_file, "--report-kv"]) == 0
        assert capsys.readouterr().out == first
        assert "lambda2 = 36" in first


@pytest.mark.parametrize("name", [name for name, _ in catalog_list()])
def test_lambda_report_kv_lines_are_stable_pairs(name, tmp_path, capsys):
    """Every `key = value` line of `vee lambda --report-kv` is one stable
    pair, a key and a one-token value, and no key repeats: the human line
    must not read as a pair."""
    assert main(["catalog", "export", name]) == 0
    path = tmp_path / f"{name}.vee"
    path.write_text(capsys.readouterr().out)
    main(["lambda", str(path), "--report-kv"])
    keys = []
    for line in capsys.readouterr().out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            assert re.fullmatch(r"[a-z][a-z0-9_]*", key) and re.fullmatch(r"\S+", value), line
            keys.append(key)
    assert "lambda2_status" in keys
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize(
    "name, pair",
    [
        ("Prop4", "v0 and v1"),
        ("Prop5", "v1 and v2"),
        ("G2timesScaledA2", "v0 and v6"),
        ("TenVector", "v0 and v1"),
    ],
)
def test_cms_on_collinear_covectors_is_an_input_error(name, pair, tmp_path, capsys):
    """Collinear covectors are outside the hypotheses of `vee cms`: a usage
    error (exit 2), not a refuted identity (exit 1)."""
    assert main(["catalog", "export", name]) == 0
    path = tmp_path / f"{name}.vee"
    path.write_text(capsys.readouterr().out)
    assert main(["cms", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: covectors {pair} are collinear\n"


INPUT_ERRORS = {
    "ParseError", "UnknownName", "InvalidParams", "DimensionMismatch", "ZeroMultiplicity",
    "SamplingExhausted", "CollinearPair", "ZeroLambda", "SpanDeficient", "DuplicateCovector",
    "ZeroCovector", "FunctionalVanishes",
}
CHECK_ERRORS = {
    "DegenerateForm", "SingularMatrix", "SingularPoint", "OutOfDomain", "NonScalarAction",
    "DegenerateParametrization",
}


def test_error_classes_decide_the_exit_code():
    """`vee` exits 2 on an InputError and 1 on any other VeeError, so each
    class of `trigvee.errors` carries that decision; a new class must be
    placed on one side here."""
    defined = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.VeeError)
        and cls not in (errors.VeeError, errors.InputError)
    }
    assert set(defined) == INPUT_ERRORS | CHECK_ERRORS
    inputs = {name for name, cls in defined.items() if issubclass(cls, errors.InputError)}
    assert inputs == INPUT_ERRORS
