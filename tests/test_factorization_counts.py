"""Factorization-count gates and the single-pass definitional oracle.

LAPACK call counts are deterministic, and so are the matrices factored: a
stacked call factors every matrix of its stack. The whole-suite count, the
counts of the suites that share factorizations within a trial or evaluate
their trials in shape groups (every random suite), the blockwise
``counterexample`` count and the dense-file commands are pinned exactly,
and no dense-file command factors the same matrix twice: ``T`` once for
``U``, the margin and, in ``classify``, the oracle's check of ``T`` itself;
``verify_polar`` factors only its modulus ``P``, by one ``eigh`` for both
its spectrum and its range projection, and checks the ``|T*|`` identities
by matmuls.
Single calls are pinned to their stacked calls and to one matrix per
operator power, or per distinct window of a block shift's powers. Every
route to the definitional check, ``centered_order``,
``is_n_centered_definitional`` and ``binormal_equivalents``, factors the
powers ``T^k`` in one stacked SVD per group of powers, so grouping lowers
the calls but, wherever the oracle agrees, not the matrices factored;
where they take the SVD of ``T`` for ``U`` themselves (``binormal_equivalents``
in one SVD of ``T`` and ``T*``), the oracle takes ``T`` itself from it and
factors only ``T^k``, k >= 2. The
equivalence tests keep the two-call definition of ``oracle_agrees`` and the
two-SVD definitional loop as references for the single pass, and a test
forces the oracle's fallback to one power at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from polarops.classify import centered_order, is_n_centered_definitional
from polarops.cli import main
from polarops.core import DEFAULT_TOLERANCES, equality_residual, range_projection
from polarops.decomp import abs_value, polar_decompose
from polarops.matrixio import write_matrix
from polarops.sampling import random_mixed_rank, random_operator, structured_fixtures
from polarops.shifts import ShiftSpec, build_truncated, certify_blockwise
from polarops.suites import run_suite


@dataclass
class LapackLog:
    """Calls of numpy's svd/eigh/eigvalsh keyed by ``(name, ndim of the
    input)``: 2 for a dense operator, 3 for a stack. ``matrices`` counts, per
    name, the matrices those calls factored: the product of the leading
    dimensions of each input, 1 for a dense operator."""

    calls: Counter = field(default_factory=Counter)
    matrices: Counter = field(default_factory=Counter)

    def clear(self) -> None:
        self.calls.clear()
        self.matrices.clear()


@pytest.fixture
def lapack_calls(monkeypatch) -> LapackLog:
    """Log the calls of numpy's svd/eigh/eigvalsh for the rest of the test."""
    log = LapackLog()
    for name in ("svd", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            log.calls[_name, np.ndim(a)] += 1
            log.matrices[_name] += int(np.prod(np.shape(a)[:-2], dtype=int))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return log


def _totals(log: LapackLog) -> Counter:
    """Calls per name, whatever the input's ndim."""
    totals: Counter = Counter()
    for (name, _), count in log.calls.items():
        totals[name] += count
    return totals


def _shift(n: int) -> np.ndarray:
    return build_truncated(ShiftSpec.from_recipe(n))


def _operators() -> list[np.ndarray]:
    """Random draws, their tiny-norm copies (where the commutator floor
    makes the criterion overshoot, so the oracle disagrees), the structured
    fixtures, and the shifts of orders 2-8."""
    rng = np.random.default_rng(20261017)
    draws = [random_mixed_rank(rng, int(d)) for d in rng.integers(2, 7, size=40)]
    operators = draws + [1e-6 * t for t in draws[:10]]
    operators += [matrix for _, matrix in structured_fixtures(rng)]
    operators += [_shift(n) for n in range(2, 9)]
    return operators


def _two_call_oracle_agrees(t: np.ndarray, verified: int, max_n: int) -> bool:
    """``oracle_agrees`` as first defined: the definitional check holds at
    the verified order and, when there is room, fails one order above."""
    at_order = is_n_centered_definitional(t, verified).ok
    if verified < max_n:
        return at_order and not is_n_centered_definitional(t, verified + 1).ok
    return at_order


def _two_svd_residuals(t: np.ndarray, n: int) -> tuple[list[float], list[float]]:
    """The definitional loop as first written: ``|T^k|`` and the range
    projection of ``(T^k)*`` from two separate SVDs of each power."""
    u = polar_decompose(t).isometry
    equation, ranges = [], []
    t_pow, u_pow = t, u
    for _ in range(n):
        equation.append(equality_residual(t_pow, u_pow @ abs_value(t_pow)))
        ranges.append(
            equality_residual(u_pow.conj().T @ u_pow, range_projection(t_pow.conj().T))
        )
        t_pow, u_pow = t_pow @ t, u_pow @ u
    return equation, ranges


def test_centered_order_on_order6_shift_makes_3_svds_of_7_matrices(lapack_calls):
    # One SVD for U, which also serves the oracle's check of T, then the
    # 27x27 powers T^2..T^7 in two groups, T^2..T^5 and T^6..T^7, one
    # stacked SVD each.
    report = centered_order(_shift(6), 7)
    assert report.verified_order == 6 and report.oracle_agrees
    assert _totals(lapack_calls)["svd"] == 3
    assert lapack_calls.matrices["svd"] == 7


def test_oracle_factors_every_power_it_checks(monkeypatch):
    factored = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        # Each matrix of a stacked input, a dense input as itself.
        factored.extend(np.array(a).reshape(-1, *np.shape(a)[-2:]))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    t = _shift(6)
    centered_order(t, 7)
    # T once, for U and for the oracle's check of T; then T^2..T^7.
    assert len(factored) == 7
    assert np.array_equal(factored[0], t)
    t_pow = t
    for _ in range(6):
        t_pow = t_pow @ t
        assert any(np.array_equal(t_pow, a) for a in factored[1:])


@pytest.mark.parametrize("n", [3, 7])
def test_definitional_check_takes_two_svds(lapack_calls, n):
    # One SVD of T for U and the check of T itself, then the 5x5 powers
    # T^2..T^n in one stacked SVD.
    t = random_mixed_rank(np.random.default_rng(n), 5)
    is_n_centered_definitional(t, n)
    assert _totals(lapack_calls)["svd"] == 2
    assert lapack_calls.matrices["svd"] == n


def test_definitional_check_of_t_alone_takes_the_svd_of_u(lapack_calls):
    # For n = 1 the SVD of T taken for U is the only factorization.
    t = random_mixed_rank(np.random.default_rng(1), 5)
    check = is_n_centered_definitional(t, 1)
    assert lapack_calls.calls == Counter({("svd", 3): 1})
    assert lapack_calls.matrices["svd"] == 1
    equation, ranges = _two_svd_residuals(t, 1)
    assert list(check.equation_residuals) == equation
    np.testing.assert_allclose(check.range_residuals, ranges, rtol=0, atol=1e-12)


def test_oracle_falls_back_to_one_power_at_a_time(monkeypatch):
    # A tiny rank-4 draw: its commutators fall below the absolute floor, so
    # the criterion reaches order 6, while the range of (T^2)* already
    # differs from that of (U^2)* U^2.
    t = 1e-12 * random_mixed_rank(np.random.default_rng(11), 5)
    expected = centered_order(t, 6)
    assert expected.verified_order == 6 and not expected.oracle_agrees
    check = is_n_centered_definitional(t, 6)
    tol = DEFAULT_TOLERANCES.equality_rel_tol
    assert check.range_residuals[0] <= tol < check.range_residuals[1]

    factored = []
    original = np.linalg.svd

    def single(a, *args, **kwargs):
        # A stack of more than one matrix fails, as when one of them does.
        if np.ndim(a) > 2 and len(a) > 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        factored.append(np.reshape(a, np.shape(a)[-2:]))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", single)
    assert centered_order(t, 6) == expected
    # T for U and the check of T itself, then T^2 on its own; no power
    # past the first failing one.
    assert len(factored) == 2
    assert all(np.array_equal(a, b) for a, b in zip(factored, [t, t @ t]))

    def no_square(a, *args, **kwargs):
        if any(np.array_equal(m, t @ t) for m in np.reshape(a, (-1, *t.shape))):
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(a, *args, **kwargs)

    # The definitional check reports every power, so one it cannot factor
    # raises.
    monkeypatch.setattr(np.linalg, "svd", no_square)
    assert is_n_centered_definitional(t, 1) == replace(
        check,
        ok=True,
        equation_residuals=check.equation_residuals[:1],
        range_residuals=check.range_residuals[:1],
    )
    with pytest.raises(np.linalg.LinAlgError):
        is_n_centered_definitional(t, 2)


def test_definitional_pass_in_centered_order_stops_at_first_failure(lapack_calls):
    # A generic draw is 1-centered and fails at power 2: one SVD of T for U
    # and the check of T itself, then the oracle factors T^2 and stops,
    # whatever max_n is.
    t = random_mixed_rank(np.random.default_rng(5), 5)
    report = centered_order(t, 6)
    assert report.verified_order == 1 and report.oracle_agrees
    assert _totals(lapack_calls)["svd"] == 2
    assert lapack_calls.matrices["svd"] == 2


def test_run_suite_all_factorization_counts(lapack_calls):
    # Every random suite factors each shape group in a few stacked calls;
    # the matrices factored are those of the per-trial evaluation.
    run_suite("all", 0, 6, 100)
    assert _totals(lapack_calls) == Counter(svd=145, eigh=41, eigvalsh=5)
    assert lapack_calls.matrices == Counter(svd=3616, eigh=1087, eigvalsh=50)


def test_polar_contract_calls_scale_with_shape_groups_not_trials(lapack_calls):
    # Dims 2-6, square and (d, d - 1) draws: nine shape groups, each one SVD
    # of T and one eigh of |T| for its spectrum and its range projection.
    counts = []
    for trials in (100, 400):
        lapack_calls.clear()
        run_suite("polar-contract", 0, 6, trials)
        counts.append((_totals(lapack_calls), lapack_calls.matrices["svd"]))
    assert counts == [
        (Counter(svd=9, eigh=9), 100),
        (Counter(svd=9, eigh=9), 400),
    ]


def test_mp_inverse_calls_scale_with_shape_groups_not_trials(lapack_calls):
    # Dims 2-6 and the 15x15 and 18x18 shift fixtures: seven shape groups,
    # each one SVD of T and T*, one of pinv, pinv*, |T| and |T*|, one eigh
    # of the modulus in pinv's polar check, and,
    # where an operator is 2-centered or more, one of the powers T^k,
    # k >= 2, for their inverses. The orders of T and pinv come from their
    # commutators alone, which factor nothing.
    counts = []
    for trials in (100, 400):
        lapack_calls.clear()
        run_suite("mp-inverse", 0, 6, trials)
        counts.append((_totals(lapack_calls), Counter(lapack_calls.matrices)))
    assert counts == [
        (Counter(svd=20, eigh=7), Counter(svd=715, eigh=112)),
        (Counter(svd=20, eigh=7), Counter(svd=2515, eigh=412)),
    ]


@pytest.mark.parametrize(
    "suite, counts",
    [
        # Each case pins the calls, then the matrices they factored.
        # 112 operators in seven shape groups. Per group: one SVD for U,
        # which also gives the oracle's check of T, then one stacked SVD of
        # the powers k >= 2 the reports' oracles check per number of powers
        # checked (T^2 for a 1-centered draw): 18 calls. Every report
        # agrees, so no operator needs the full walk.
        ("centered-oracle", (Counter(svd=18), Counter(svd=259))),
        # 100 operators in five shape groups. Per group: one SVD of T and
        # T*, which also gives the two-power oracle its check of T, one of
        # T^2 for that oracle, one of the transforms T_ab and their
        # adjoints at all three exponent pairs; one eigh of |T| and |T*|,
        # one eigh of the transforms' moduli for the polar check. Per
        # operator that is T, T*, T^2, then two SVDs and one eigh per pair,
        # and one eigh each of |T| and |T*|.
        (
            "aluthge-binormal",
            (Counter(svd=15, eigh=10), Counter(svd=900, eigh=500)),
        ),
        # 112 operators in seven shape groups: T, pinv, T*, pinv*, |T| and
        # |T*| (for their inverses) once each, the modulus in pinv's polar
        # check by eigh, and the powers T^k, k >= 2, up to each order, for
        # their inverses; per group a few stacked calls (see the test above).
        (
            "mp-inverse",
            (Counter(svd=20, eigh=7), Counter(svd=715, eigh=112)),
        ),
        # 50 commuting and 50 other pairs, each half in five shape groups.
        # Per commuting group: one SVD for the range projections of A, B and
        # A^(1/2), one for |A B|, one eigh of A for all four powers and one
        # eigvalsh of the Hermitian products A B. Per other group: one SVD
        # for the range projections of A, B, T and T T*, one for |A B|; no
        # product is Hermitian, so none is factored.
        (
            "psd-pairs",
            (
                Counter(svd=20, eigh=5, eigvalsh=5),
                Counter(svd=450, eigh=50, eigvalsh=50),
            ),
        ),
    ],
)
def test_suite_factorization_counts(lapack_calls, suite, counts):
    run_suite(suite, 0, 6, 100)
    assert (_totals(lapack_calls), lapack_calls.matrices) == counts


def test_counterexample_n60_factors_blocks_not_the_dense_operator(
    lapack_calls, tmp_path, capsys
):
    # One batched SVD of the 4 distinct blocks for U and |T|, one per group
    # of powers T^k, k = 1..61, in the definitional check (the 241 distinct
    # windows of the 1,952 blocks of those powers, in five groups), and the
    # predicted-structure check on the 62 blocks (one eigh of the predicted
    # moduli for their eigenvalues and range projections); nothing dense is
    # factored.
    code = main(["counterexample", "--n", "60", "--out", str(tmp_path / "s.json")])
    assert code == 0 and "verdict: pass" in capsys.readouterr().out
    assert lapack_calls.calls == Counter({("svd", 3): 6, ("eigh", 3): 1})
    assert lapack_calls.matrices == Counter(svd=4 + 241, eigh=62)


def test_certify_blockwise_oracle_factors_linearly_many_matrices(lapack_calls):
    # The shift of order n on n + 3 blocks has 4 distinct blocks, and each
    # power T^k the oracle checks, k = 1..n+1, at most 4 distinct windows:
    # 4n + 1 matrices in all, where the (n + 1)(n + 4) / 2 blocks of those
    # powers (1,952 at n = 60) grow quadratically.
    oracle = []
    for n in (20, 40, 60):
        spec = ShiftSpec.from_recipe(n)
        lapack_calls.clear()
        assert certify_blockwise(build_truncated(spec), spec.blocks - 1).oracle_agrees
        # The first SVD factors the 4 distinct blocks for U and |T|.
        oracle.append(lapack_calls.matrices["svd"] - 4)
    assert oracle == [81, 161, 241]


def _dense_file_argv(tmp_path, command: str, shape: tuple[int, int]) -> list[str]:
    """The command line of ``command`` on a seeded Gaussian file of
    ``shape``, written before the caller starts logging."""
    path = tmp_path / "t.json"
    write_matrix(path, random_operator(np.random.default_rng(4), *shape))
    argv = [command, str(path)]
    if command != "classify":
        argv += ["--out", str(tmp_path / "out")]
    return argv


@pytest.mark.parametrize(
    "command, shape, svds",
    [
        # T once for U, |T| and the margin; verify_polar factors only P,
        # by one eigh.
        ("polar", (6, 6), 1),
        ("polar", (7, 4), 1),
        # T once for the inverse, the margin and U*; pinv once for its
        # modulus; verify_polar factors only |pinv|, by one eigh.
        ("mp", (6, 6), 2),
        # T once; the inverse polar checks need a square T.
        ("mp", (7, 4), 1),
        # A generic draw is 1-centered: T once for U, the margin and the
        # oracle's check of T, then the oracle factors T^2 on its own.
        ("classify", (6, 6), 2),
    ],
)
def test_dense_file_commands_factor_t_once(
    lapack_calls, tmp_path, capsys, command, shape, svds
):
    argv = _dense_file_argv(tmp_path, command, shape)
    lapack_calls.clear()
    assert main(argv) == 0, capsys.readouterr().out
    assert _totals(lapack_calls)["svd"] == svds
    # Every input is one matrix.
    assert lapack_calls.matrices["svd"] == svds


@pytest.mark.parametrize(
    "command, counts",
    [
        # T^2 and T are walked in groups of their own at this size.
        ("classify", Counter(svd=2)),
        ("polar", Counter(svd=1, eigh=1)),
        ("mp", Counter(svd=2, eigh=1)),
    ],
)
def test_dense_file_commands_factor_no_matrix_twice(
    monkeypatch, tmp_path, capsys, command, counts
):
    argv = _dense_file_argv(tmp_path, command, (80, 80))
    factored: list[tuple[str, bytes]] = []
    for name in ("svd", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, _name=name, **kwargs):
            matrices = np.reshape(a, (-1, *np.shape(a)[-2:]))
            factored.extend((_name, np.ascontiguousarray(m).tobytes()) for m in matrices)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    assert main(argv) == 0, capsys.readouterr().out
    assert Counter(name for name, _ in factored) == counts
    assert len({data for _, data in factored}) == len(factored)


@pytest.mark.parametrize("max_n", [1, 2, 3, 6, 9])
def test_oracle_agrees_matches_the_two_call_definition(max_n):
    flags = []
    for t in _operators():
        report = centered_order(t, max_n)
        expected = _two_call_oracle_agrees(t, report.verified_order, max_n)
        assert report.oracle_agrees == expected
        flags.append(expected)
    if max_n >= 3:
        # The tiny-norm copies make the inputs cover both outcomes.
        assert set(flags) == {True, False}


def test_single_svd_residuals_match_the_two_svd_loop():
    tol = DEFAULT_TOLERANCES.equality_rel_tol
    for t in _operators():
        check = is_n_centered_definitional(t, 6)
        equation, ranges = _two_svd_residuals(t, 6)
        assert list(check.equation_residuals) == equation
        np.testing.assert_allclose(check.range_residuals, ranges, rtol=0, atol=1e-12)
        assert check.ok == all(r <= tol for r in equation + ranges)
