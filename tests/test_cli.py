"""Command-line interface: commands, exit codes, byte determinism."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

import weylalg.cli
from weylalg import WeylError, errors, load_record
from weylalg.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(*argv, env=None, timeout=None):
    """Entry point via subprocess; returns (exit_code, stdout_bytes, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "weylalg.cli", *argv],
        capture_output=True, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def test_exit_code_tables_match_the_errors():
    # README and the cli docstring document exactly the codes that
    # WeylError subclasses carry, plus success and internal error
    codes = {cls.exit_code for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, WeylError)}
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Exit codes:", 1)[1].split("\n## ", 1)[0]
    assert {int(c) for c in re.findall(r"^\| (\d+) \|", table, re.M)} \
        == codes | {0, 1}
    doc = weylalg.cli.__doc__.split("Exit codes:", 1)[1]
    assert {int(c) for c in re.findall(r"^    (\d+)  ", doc, re.M)} \
        == codes | {0, 1}


def test_star_stdout(capsys):
    assert main(["star", "x1^2", "p1^2"]) == 0
    out = capsys.readouterr().out
    assert out == "x1^2*p1^2 + 2*i*h*x1*p1 - (1/2)*h^2\n"


def test_poisson_and_bracket(capsys):
    assert main(["poisson", "x1^2", "p1^2"]) == 0
    assert main(["bracket", "x1^3", "p1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["-4*x1*p1", "-3*x1^2"]


def test_dim_and_max_grade_flags(capsys):
    assert main(["star", "x2", "p2", "--dim", "2", "--max-grade", "6"]) == 0
    assert capsys.readouterr().out == "x2*p2 + (1/2)*i*h\n"


def test_huge_max_grade_on_linear_factors():
    # the cost of a product follows its operands, not the truncation; in a
    # subprocess, so that a cost that follows the truncation fails the test
    # instead of hanging the suite
    code, out, _ = run_cli("star", "x1", "p1", "--max-grade", "100000000",
                           timeout=60)
    assert code == 0 and out == b"x1*p1 + (1/2)*i*h\n"


def test_out_flag_writes_element_record(tmp_path, capsys):
    out = tmp_path / "res.json"
    assert main(["star", "x1", "p1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x1*p1 + (1/2)*i*h\n"
    assert str(out) in captured.err
    rec = load_record(out)
    assert rec["schema"] == "weyl-element/1"
    assert rec["payload"]["expr"] == "x1*p1 + (1/2)*i*h"


def test_apply_fixture(capsys):
    assert main(["apply", str(FIXTURES / "inner_cubic.json"), "x1*p1"]) == 0
    assert capsys.readouterr().out == "x1*p1 - 3*x1^3\n"


def test_factor_fixture_stdout(capsys):
    assert main(["factor", str(FIXTURES / "inner_cubic.json")]) == 0
    captured = capsys.readouterr()
    rec = json.loads(captured.out)
    assert rec["schema"] == "factorization/1"
    assert rec["payload"]["generator"] == "x1^3"
    assert rec["payload"]["matrix"] == [["1", "0"], ["0", "1"]]
    assert rec["payload"]["residual_report"]["passed"] is True
    assert "residual check passed" in captured.err


def test_factor_identity(capsys):
    assert main(["factor", str(FIXTURES / "identity.json")]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["payload"]["generator"] == "0"


@pytest.mark.parametrize("fixture,code", [
    ("malformed.json", 2),
    ("bad_expr.json", 2),
    ("bad_schema.json", 3),
    ("image_not_x1.json", 10),
    ("singular_linear.json", 11),
    ("nonsymplectic_linear.json", 12),
    ("hbar_scale.json", 13),
    ("nonclosed.json", 14),
])
def test_factor_failure_exit_codes(fixture, code, capsys):
    assert main(["factor", str(FIXTURES / fixture)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_expression_error_exit_codes(capsys):
    assert main(["star", "x1 +", "p1"]) == 2
    assert main(["star", "x9", "p1"]) == 2
    assert main(["star", "x1^9999999", "p1"]) == 2
    for text in ("x1\u00b2", "\u00b2", "x1^\u00b2", "\u0661+x1", "1" * 5000,
                 "(" * 300 + "x1" + ")" * 300):
        assert main(["star", text, "1"]) == 2
    capsys.readouterr()


def test_context_error_exit_code(capsys):
    assert main(["star", "x1", "p1", "--max-grade", "2"]) == 3
    assert main(["star", "x1", "p1", "--dim", "0"]) == 3
    capsys.readouterr()


def test_printing_limit_exit_code(tmp_path, capsys):
    out = tmp_path / "big.json"
    assert main(["star", "2^20000", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert str(sys.get_int_max_str_digits()) in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    ("random-instance", "--steps"),
    ("random-instance", "--terms"),
    ("selftest", "--cases"),
])
def test_negative_count_exit_code(command, flag, tmp_path, capsys):
    argv = [command, flag, "-1"]
    if command == "random-instance":
        argv += ["--out", str(tmp_path / "inst.json")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and flag in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["apply", "factor"])
def test_zero_hbar_scale_record(command, tmp_path, capsys):
    rec = json.loads((FIXTURES / "hbar_scale.json").read_text())
    rec["payload"]["hbar_scale"] = "0"
    path = tmp_path / "zero_scale.json"
    path.write_text(json.dumps(rec))
    argv = [command, str(path)] + (["x1"] if command == "apply" else [])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hbar_scale" in captured.err


def test_huge_hbar_scale_record(tmp_path, capsys):
    # the scale is past the printing limit, but the error is still exit 13
    rec = json.loads((FIXTURES / "hbar_scale.json").read_text())
    rec["payload"]["hbar_scale"] = "2^20000"
    rec["payload"]["images"] = ["x1", "p1"]
    path = tmp_path / "huge_scale.json"
    path.write_text(json.dumps(rec))
    assert main(["factor", str(path)]) == 13
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot factor: hbar scale has more than "
                            f"{sys.get_int_max_str_digits()} digits, need 1\n")


def test_missing_file(capsys, tmp_path):
    assert main(["factor", "/nonexistent/nope.json"]) == 1
    capsys.readouterr()
    # an --out that cannot be written fails before any result is printed
    assert main(["star", "x1", "p1", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_env_var_default(tmp_path):
    import os
    env = dict(os.environ, WEYL_MAX_GRADE="4")
    code, out, _ = run_cli("star", "x1^3", "p1^3", env=env)
    assert code == 0 and out == b"0\n"
    # flag beats the environment
    code, out, _ = run_cli("star", "x1^3", "p1^3", "--max-grade", "8", env=env)
    assert code == 0 and out != b"0\n"
    env["WEYL_MAX_GRADE"] = "donkey"
    code, _, err = run_cli("star", "x1", "p1", env=env)
    assert code == 3 and "WEYL_MAX_GRADE" in err


def test_selftest_line(capsys):
    assert main(["selftest", "--cases", "3", "--seed", "11"]) == 0
    assert capsys.readouterr().out == "3/3 round-trips exact\n"


def test_random_instance_roundtrip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["random-instance", "--dim", "2", "--seed", "5",
                 "--out", str(inst)]) == 0
    capsys.readouterr()
    answer = inst.with_suffix(".json.answer.json")
    assert answer.exists()
    got = tmp_path / "got.json"
    assert main(["factor", str(inst), "--out", str(got)]) == 0
    capsys.readouterr()
    assert got.read_bytes() == answer.read_bytes()


def test_byte_determinism_across_processes(tmp_path):
    code1, out1, _ = run_cli("star", "x1^2 + i*p1", "p1^2 - 1/3*x1",
                             "--max-grade", "8")
    code2, out2, _ = run_cli("star", "x1^2 + i*p1", "p1^2 - 1/3*x1",
                             "--max-grade", "8")
    assert code1 == code2 == 0
    assert out1 == out2
    code1, out1, _ = run_cli("factor", str(FIXTURES / "inner_cubic.json"))
    code2, out2, _ = run_cli("factor", str(FIXTURES / "inner_cubic.json"))
    assert code1 == code2 == 0
    assert out1 == out2


def test_factor_record_bytes_golden():
    # the canonical serialization, reproduced with plain json.dumps on a
    # hand-written dict; any formatting drift in the engine breaks this
    expected = {
        "dim": 1,
        "payload": {
            "generator": "x1^3",
            "generator_trunc": 9,
            "matrix": [["1", "0"], ["0", "1"]],
            "residual_report": {
                "generators": [
                    {"first_mismatch_grade": None, "index": 0,
                     "max_grade_checked": 8, "passed": True},
                    {"first_mismatch_grade": None, "index": 1,
                     "max_grade_checked": 8, "passed": True},
                ],
                "passed": True,
            },
        },
        "schema": "factorization/1",
        "trunc": 8,
    }
    want = (json.dumps(expected, indent=2, sort_keys=True) + "\n").encode()
    code, out, _ = run_cli("factor", str(FIXTURES / "inner_cubic.json"))
    assert code == 0
    assert out == want
