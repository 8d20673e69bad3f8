import json
import random
import subprocess
import sys

import pytest

from tropoly.cli import main

from conftest import random_poly
from tropoly import format_poly


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out.rstrip("\n"), err


class TestVerbs:
    def test_canon(self, capsys):
        code, out, _ = run(capsys, "canon", "x^2 + 4x + 6")
        assert (code, out) == (0, "x^2 + 3x + 6")

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "x^2 + 1x + 1")
        assert (code, out) == (0, "0 * (x + 1/2)^2")

    def test_factor_json(self, capsys):
        code, out, _ = run(capsys, "--json", "factor", "x^2 + 4x + 6")
        assert code == 0
        assert json.loads(out) == {
            "leading": "0",
            "monomial_degree": 0,
            "roots": ["3", "3"],
        }

    def test_expand(self, capsys):
        fac = '{"leading": "0", "monomial_degree": 0, "roots": ["3", "3"]}'
        code, out, _ = run(capsys, "expand", fac)
        assert (code, out) == (0, "x^2 + 3x + 6")

    def test_roots(self, capsys):
        code, out, _ = run(capsys, "roots", "x^3 + 1x^2 + 3x + 6")
        assert (code, out) == (0, "1\n2\n3")

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "x^2 + 3x + 6", "10")
        assert (code, out) == (0, "6")

    def test_equiv_true(self, capsys):
        code, out, _ = run(capsys, "equiv", "x^2 + 1x + 2", "x^2 + 2x + 2")
        assert (code, out) == (0, "true")

    def test_equiv_false(self, capsys):
        code, out, _ = run(capsys, "equiv", "x + 1", "x + 2")
        assert (code, out) == (0, "false")

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "x + 3", "x + 3")
        assert (code, out) == (0, "x^2 + 3x + 6")

    def test_add(self, capsys):
        code, out, _ = run(capsys, "add", "x^2 + 0", "1x")
        assert (code, out) == (0, "x^2 + 1x + 0")

    def test_plot_tsv(self, capsys):
        code, out, _ = run(capsys, "plot", "x^2 + 3x + 6")
        assert code == 0
        assert out.splitlines() == [
            "x\tf(x)\tactive_degrees",
            "3\t6\t0,1,2",
        ]

    def test_canon_json(self, capsys):
        code, out, _ = run(capsys, "--json", "canon", "x^2 + 4x + 6")
        assert json.loads(out) == {"low_degree": 0, "coeffs": ["6", "3", "0"]}


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, out, err = run(capsys, "canon", "x^^2")
        assert code == 2
        assert "parse error" in err and "position" in err

    def test_domain_error_is_1(self, capsys):
        code, out, err = run(capsys, "factor", "inf")
        assert code == 1
        assert "domain error" in err and "factor" in err

    def test_eval_at_infinity_is_domain_error(self, capsys):
        code, _, err = run(capsys, "eval", "x + 1", "inf")
        assert code == 1

    def test_bad_factored_json_is_2(self, capsys):
        code, _, err = run(capsys, "expand", "{not json")
        assert code == 2

    def test_unknown_verb_is_2(self, capsys):
        assert main(["frobnicate", "x"]) == 2

    def test_expand_json_wrong_types_is_2(self, capsys):
        fac = '{"leading":"0","monomial_degree":2.7,"roots":"12"}'
        code, out, err = run(capsys, "expand", fac)
        assert (code, out) == (2, "")
        assert "parse error" in err and "monomial_degree" in err


class TestArgv:
    @pytest.mark.parametrize("verb", ["canon", "eval", "equiv", "expand", "plot"])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_verb_help(self, capsys, verb, flag):
        code, out, err = run(capsys, verb, flag)
        assert code == 0
        assert out.startswith(f"usage: tropoly {verb}")
        assert err == ""

    def test_help_after_an_argument(self, capsys):
        code, out, _ = run(capsys, "--json", "eval", "x + 1", "--help")
        assert code == 0
        assert out.startswith("usage: tropoly eval")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["canon", "-2x + 1"], "-2x + 1"),
            (["canon", "-2x"], "-2x"),
            (["--json", "canon", "-1/2"], '{"low_degree": 0, "coeffs": ["-1/2"]}'),
            (["eval", "-1x^2 + 3", "-3"], "-7"),
            (["equiv", "-2x + 1", "-2x + 1 + 5x^2"], "false"),
        ],
    )
    def test_leading_minus_is_an_argument(self, capsys, argv, expected):
        assert run(capsys, *argv)[:2] == (0, expected)


class TestPipeClosure:
    def test_outputs_reparse(self, capsys):
        rng = random.Random(11)
        for _ in range(40):
            f = random_poly(rng, max_degree=8)
            text = format_poly(f)
            for argv in (
                ["canon", text],
                ["mul", text, "x + 1"],
                ["add", text, "2x^2"],
            ):
                code = main(argv)
                out, _ = capsys.readouterr()
                assert code == 0
                code2 = main(["canon", out.rstrip("\n")])
                capsys.readouterr()
                assert code2 == 0

    def test_factor_then_expand_is_equivalent(self, capsys):
        rng = random.Random(12)
        for _ in range(40):
            f = random_poly(rng, max_degree=8)
            text = format_poly(f)
            assert main(["--json", "factor", text]) == 0
            fac_json, _ = capsys.readouterr()
            assert main(["expand", fac_json.strip()]) == 0
            expanded, _ = capsys.readouterr()
            assert main(["equiv", text, expanded.strip()]) == 0
            out, _ = capsys.readouterr()
            assert out.strip() == "true"


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tropoly.cli", "canon", "x^2 + 4x + 6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x^2 + 3x + 6"
