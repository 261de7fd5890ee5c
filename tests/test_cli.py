"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from polarops import cli
from polarops.cli import main
from polarops.matrixio import read_matrix, write_matrix
from polarops.sampling import random_operator
from polarops.shifts import ShiftSpec, build_truncated


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_lines(out):
    return {
        line.split()[1]: line.split()[-1]
        for line in out.splitlines()
        if line.startswith("check ")
    }


def value_lines(out):
    values = {}
    for line in out.splitlines():
        if line.startswith("value "):
            _, name, value = line.split(" ", 2)
            values[name] = value
    return values


class TestPolarCommand:
    def test_zero_matrix(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        write_matrix(path, np.zeros((3, 3)))
        code, out, _ = run_cli(capsys, ["polar", str(path)])
        assert code == 0
        assert "verdict: pass" in out
        assert np.all(read_matrix(tmp_path / "zero.u.json") == 0)
        assert np.all(read_matrix(tmp_path / "zero.p.json") == 0)

    def test_identity(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        write_matrix(path, np.eye(3))
        code, out, _ = run_cli(capsys, ["polar", str(path)])
        assert code == 0
        assert np.allclose(read_matrix(tmp_path / "eye.u.json"), np.eye(3))
        assert np.allclose(read_matrix(tmp_path / "eye.p.json"), np.eye(3))

    def test_random_fixture_reconstructs(self, capsys, tmp_path):
        t = random_operator(np.random.default_rng(42), 5)
        path = tmp_path / "t.json"
        write_matrix(path, t)
        code, out, _ = run_cli(
            capsys, ["polar", str(path), "--out", str(tmp_path / "f")]
        )
        assert code == 0
        u = read_matrix(tmp_path / "f.u.json")
        p = read_matrix(tmp_path / "f.p.json")
        assert np.linalg.norm(u @ p - t) / np.linalg.norm(t) < 1e-10
        checks = check_lines(out)
        assert checks["reconstruction"] == "pass"
        assert checks["range_condition"] == "pass"

    def test_tight_tolerance_fails_verdict(self, capsys, tmp_path):
        t = random_operator(np.random.default_rng(43), 4)
        path = tmp_path / "t.json"
        write_matrix(path, t)
        code, out, _ = run_cli(capsys, ["polar", str(path), "--eq-tol", "1e-18"])
        assert code == 1
        assert "verdict: fail" in out


class TestMpCommand:
    def test_diagonal_with_kernel(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        write_matrix(path, np.diag([2.0, 0.0]))
        code, out, _ = run_cli(capsys, ["mp", str(path)])
        assert code == 0
        inverse = read_matrix(tmp_path / "d.pinv.json")
        assert np.allclose(inverse, np.diag([0.5, 0.0]), atol=1e-12)
        checks = check_lines(out)
        assert all(verdict == "pass" for verdict in checks.values())
        assert "inverse_polar_reconstruction" in checks

    def test_invertible_fixture(self, capsys, tmp_path):
        t = random_operator(np.random.default_rng(44), 4)
        path = tmp_path / "t.json"
        write_matrix(path, t)
        code, out, _ = run_cli(
            capsys, ["mp", str(path), "--out", str(tmp_path / "inv.json")]
        )
        assert code == 0
        inverse = read_matrix(tmp_path / "inv.json")
        assert np.allclose(inverse, np.linalg.inv(t), atol=1e-9)
        residuals = [
            float(line.split("residual=")[1].split()[0])
            for line in out.splitlines()
            if line.startswith("check ")
        ]
        assert max(residuals) < 1e-10

    def test_rectangular_skips_inverse_polar_checks(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        write_matrix(path, random_operator(np.random.default_rng(45), 3, 5))
        code, out, _ = run_cli(capsys, ["mp", str(path)])
        assert code == 0
        checks = check_lines(out)
        assert "txt_minus_t" in checks
        assert not any(name.startswith("inverse_polar") for name in checks)


class TestClassifyCommand:
    def test_normal_matrix_reaches_max_order(self, capsys, tmp_path):
        path = tmp_path / "n.json"
        write_matrix(path, np.diag([1.0, 1j, -2.0]))
        code, out, _ = run_cli(capsys, ["classify", str(path), "--max-n", "6"])
        assert code == 0
        values = value_lines(out)
        assert values["verified_order"] == "6"
        assert values["binormal"] == "true"

    def test_shift_fixture_order_two(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        write_matrix(path, build_truncated(ShiftSpec.from_recipe(2)))
        code, out, _ = run_cli(capsys, ["classify", str(path)])
        assert code == 0
        values = value_lines(out)
        assert values["verified_order"] == "2"
        assert check_lines(out)["oracle_agreement"] == "pass"

    def test_nilpotent_shift_is_binormal(self, capsys, tmp_path):
        path = tmp_path / "j.json"
        write_matrix(path, np.array([[0, 1], [0, 0]], dtype=complex))
        code, out, _ = run_cli(capsys, ["classify", str(path)])
        assert code == 0
        assert value_lines(out)["binormal"] == "true"

    def test_an_entry_whose_powers_overflow_ends_in_a_failed_verdict(self, tmp_path):
        # The powers of T overflow to inf and NaN, which no LAPACK call may
        # see: an SVD of them need not return. Run in its own process, so
        # that a hang ends at the timeout.
        t = random_operator(np.random.default_rng(3), 5)
        t[0, 0] = 1e150
        path = tmp_path / "large.json"
        write_matrix(path, t)
        proc = subprocess.run(
            [sys.executable, "-m", "polarops.cli", "classify", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout.endswith("verdict: fail\n")

    def test_rejects_rectangular_input(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        write_matrix(path, np.zeros((2, 3)))
        code, _, err = run_cli(capsys, ["classify", str(path)])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("max_n", ["1", "0"])
    def test_rejects_max_n_below_two(self, capsys, tmp_path, max_n):
        # Order 1 cannot decide binormality (order 2), so the identity would
        # fail its binormal consistency check.
        path = tmp_path / "i.json"
        write_matrix(path, np.eye(2))
        code, out, err = run_cli(capsys, ["classify", str(path), "--max-n", max_n])
        assert code == 2
        assert out == ""
        assert err == f"error: --max-n must be at least 2, got {max_n}\n"


class TestCounterexampleCommand:
    def test_default_blocks_for_order_two(self, capsys, tmp_path):
        out_path = tmp_path / "shift.json"
        code, out, _ = run_cli(
            capsys, ["counterexample", "--n", "2", "--out", str(out_path)]
        )
        assert code == 0
        values = value_lines(out)
        assert values["blocks"] == "5"
        assert values["dimension"] == "15"
        assert values["verified_order"] == "2"
        checks = check_lines(out)
        assert checks["order_exact"] == "pass"
        assert checks["oracle_agreement"] == "pass"
        assert checks["predicted_structure"] == "pass"
        assert read_matrix(out_path).shape == (15, 15)

    def test_explicit_blocks(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            [
                "counterexample",
                "--n",
                "4",
                "--blocks",
                "7",
                "--out",
                str(tmp_path / "s.json"),
            ],
        )
        assert code == 0
        values = value_lines(out)
        assert values["blocks"] == "7"
        assert values["verified_order"] == "4"

    def test_rejects_order_one(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, ["counterexample", "--n", "1"])
        assert code == 2
        assert "at least 2" in err

    def test_rejects_too_few_blocks(self, capsys):
        code, _, err = run_cli(capsys, ["counterexample", "--n", "4", "--blocks", "5"])
        assert code == 2
        assert "error:" in err

    def test_never_certifies_entries_off_the_subdiagonal(
        self, capsys, tmp_path, monkeypatch
    ):
        def perturbed(spec):
            t = build_truncated(spec)
            t[0, 0] = 1e-3
            return t

        monkeypatch.setattr(cli, "build_truncated", perturbed)
        code, out, err = run_cli(
            capsys, ["counterexample", "--n", "3", "--out", str(tmp_path / "s.json")]
        )
        assert code == 2
        assert "verdict" not in out
        assert "off its first block subdiagonal" in err

    def test_output_file_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run_cli(capsys, ["counterexample", "--n", "3", "--out", str(first)])
        run_cli(capsys, ["counterexample", "--n", "3", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestVerifyTheoremsCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify-theorems", "--suite", "psd-pairs", "--trials", "10", "--seed", "1"],
        )
        assert code == 0
        assert "verdict: pass" in out

    def test_all_suites_small(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify-theorems", "--trials", "8", "--dim", "3", "--seed", "2"]
        )
        assert code == 0
        assert "polar-contract:contract_failures" in out
        assert "v-entries:v33_at_1" in out

    def test_deterministic_output(self, capsys):
        argv = ["verify-theorems", "--suite", "centered-oracle", "--trials", "6", "--seed", "7"]
        code_a, out_a, _ = run_cli(capsys, argv)
        code_b, out_b, _ = run_cli(capsys, argv)
        assert (code_a, out_a) == (code_b, out_b)

    def test_one_trial_checks_something_in_every_suite(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-theorems", "--trials", "1"])
        assert code == 0
        counts = {
            name: int(value)
            for name, value in value_lines(out).items()
            if name.endswith("_trials")
        }
        assert set(counts) == {f"{name}_trials" for name in cli.SUITES}
        assert all(count > 0 for count in counts.values()), counts
        # One random pair and one constructed commuting-moduli pair.
        assert counts["product-polar_trials"] == 2

    def test_rejects_dim_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, ["verify-theorems", "--dim", "13"])
        assert code == 2
        assert "--dim" in err

    def test_rejects_zero_trials(self, capsys):
        code, _, err = run_cli(capsys, ["verify-theorems", "--trials", "0"])
        assert code == 2
        assert "--trials" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-theorems", "--suite", "no-such"])
        assert excinfo.value.code == 2


class TestErrorPaths:
    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["polar", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in err

    def test_malformed_input_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]", encoding="utf-8")
        code, _, err = run_cli(capsys, ["mp", str(path)])
        assert code == 2
        assert "error:" in err

    def test_integer_entry_beyond_the_float_range(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ", 0]]}",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, ["classify", str(path)])
        assert code == 2 and out == ""
        assert err == "error: entry 0 is too large for a float\n"

    def test_data_nested_past_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text(
            '{"rows": 1, "cols": 1, "data": ' + "[" * depth + "]" * depth + "}",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, ["classify", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: not valid JSON: ")
        assert err.count("\n") == 1  # one line, no traceback

    def test_boolean_shape_fields(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(
            '{"rows": true, "cols": true, "data": [[2.0, 0.0]]}', encoding="utf-8"
        )
        code, out, err = run_cli(capsys, ["classify", str(path)])
        assert code == 2 and out == ""
        assert err == "error: rows and cols must be integers\n"


class TestRepeatedCalls:
    """``main`` parses with one parser per process; no call may see
    another's options or state."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_valid_call_after_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["counterexample", "--blocks", "5"])  # --n is required
        assert excinfo.value.code == 2
        capsys.readouterr()
        out_path = tmp_path / "shift.json"
        argv = ["counterexample", "--n", "3", "--out", str(out_path)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert value_lines(out)["blocks"] == "6"

    def test_tolerance_does_not_leak_into_the_next_call(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_matrix(path, random_operator(np.random.default_rng(3), 4))
        _, loose, _ = run_cli(capsys, ["classify", str(path), "--eq-tol", "0.5"])
        _, default, _ = run_cli(capsys, ["classify", str(path)])
        assert "equality_rel_tol=0.5" in loose.splitlines()[1]
        assert default.splitlines()[1].endswith("equality_rel_tol=1e-09")
        assert default.splitlines()[0] == f"command: polarops classify {path}"

    def test_identical_calls_print_identical_bytes(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_matrix(path, random_operator(np.random.default_rng(4), 5))
        argv = ["classify", str(path), "--max-n", "4"]
        first, second = run_cli(capsys, argv), run_cli(capsys, argv)
        assert first == second
        assert first[1].endswith("\n") and first[2] == ""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polarops.cli", "verify-theorems", "--suite",
         "v-entries", "--trials", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verdict: pass" in proc.stdout
