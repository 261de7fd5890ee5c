"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import hashlib
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

    def test_v_entries_fails_at_the_printed_equality_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify-theorems", "--suite", "v-entries", "--eq-tol", "1e-30"]
        )
        assert code == 1
        assert "equality_rel_tol=1e-30" in out
        assert check_lines(out)["v-entries:worst_power_match"] == "fail"
        assert "verdict: fail" in out

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


# sha256 of the whole ``verify-theorems --suite all`` report at each
# (seed, dim, trials): any moved digit of any record fails.
SUITE_REPORT_SHA256 = [
    ((0, 6, 20), "84884ff2149dc1f54f8cdfc11c436458f1b566d7b326b487c75e434acbe887f7"),
    ((0, 12, 40), "b413227ee4923ea9ec428ca735f3be4ff5350c7adca7d6aa3de19d8976af881e"),
    ((0, 2, 1), "29d53bacce63dfae0c611ef96f7f13ab9412b2adcfbcf754ca9c12b5d3a7afaa"),
    ((0, 8, 60), "cf0602f799078205f0549a9dac94ccccfe7516616d505d27ca1dafb83a70be8f"),
    ((1, 6, 20), "cdf1533a8d1f364372ec01881f8b8a74a9fae005f7cb803ecd7d4d3496891c0d"),
    ((1, 12, 40), "43afbe51f11fd47784e6ae572bad5462ecb4ee11325aba4ec86d4c02104a0a12"),
    ((1, 2, 1), "79e79a9deea65b41e4a983dc2f3f9cdcfb663301938e74d4d77374272f310c5e"),
    ((1, 8, 60), "2ba210570dade0f4d53de6a8efe26df9deb8220da3898079749eb64b8ef68021"),
    ((2, 6, 20), "bdb2c4a53483e9d1cac251f80a47f016aa0ab3e5d0f6feb4aad096f8e7df0ba5"),
    ((2, 12, 40), "bbeb381a07b27062510d298ee77693e4db2f3fbae5b4f3a8863b3ea91160e26e"),
    ((2, 2, 1), "cef5890d0e16e166f84c42dcbd23ac6133ba85724864113e1bced5c22014b030"),
    ((2, 8, 60), "b2c5e51887f5d6e50fff63fac7a29a3538560649857ddbaa7787a30f0dedcf0c"),
    ((3, 6, 20), "b2b373a325ff800a64f4e8be77bb1561a2426dc8d01b9c19472e181eb4715e0b"),
    ((3, 12, 40), "afabdf5bba62b49d1484d55acd1626a09f2f5499be9b8fdef6d361b733261dc0"),
    ((3, 2, 1), "5ce041901c7a0f0668256e17b601a680ead49a5cb64e1f3a8d19eaa828861a6b"),
    ((3, 8, 60), "5a92e968034565c67c16a1d9cb9845a8586341116980f72778e155b0e4c98d67"),
    ((47, 6, 20), "3091e24549dbc56f9cf796a7807c346d4639ef78c71a90738c1b8755c6d4b520"),
    ((47, 12, 40), "5c368b5c77432d548bda46fa1a557bdf35cb5ba72dc9eefe71db18b300557e7d"),
    ((47, 2, 1), "bee7b13cf0160bccf6bcba0019bd0ccafa6fcb9ec2f34819c21c7fcdc5f73ca1"),
    ((47, 8, 60), "9c0592c5c5fdd6de2601f2a3fd3d4bf5220963742813363d35806727385f0997"),
]


@pytest.mark.parametrize(
    "case, digest",
    SUITE_REPORT_SHA256,
    ids=["-".join(map(str, case)) for case, _ in SUITE_REPORT_SHA256],
)
def test_suite_reports_are_pinned_byte_for_byte(capsys, case, digest):
    seed, dim, trials = map(str, case)
    argv = ["verify-theorems", "--suite", "all", "--seed", seed, "--dim", dim, "--trials", trials]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
