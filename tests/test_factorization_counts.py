"""Factorization-count gates and the single-pass definitional oracle.

LAPACK call counts are deterministic. The whole-suite count is pinned
exactly; single calls are pinned to one SVD per operator power, or capped
where a later change may lower them further. The equivalence tests keep the
two-call definition of ``oracle_agrees`` and the two-SVD definitional loop
as references for the single pass.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from polarops.classify import centered_order, is_n_centered_definitional
from polarops.core import DEFAULT_TOLERANCES, equality_residual, range_projection
from polarops.decomp import abs_value, polar_decompose
from polarops.sampling import random_mixed_rank, structured_fixtures
from polarops.shifts import ShiftSpec, build_truncated
from polarops.suites import run_suite


@pytest.fixture
def lapack_calls(monkeypatch) -> Counter:
    """Count calls of numpy's svd/eigh/eigvalsh for the rest of the test."""
    calls: Counter = Counter()
    for name in ("svd", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


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


def test_centered_order_on_order6_shift_makes_at_most_8_svds(lapack_calls):
    report = centered_order(_shift(6), 7)
    assert report.verified_order == 6 and report.oracle_agrees
    assert lapack_calls["svd"] <= 8


def test_oracle_factors_every_power_it_checks(monkeypatch):
    factored = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        factored.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    t = _shift(6)
    centered_order(t, 7)
    t_pow = t
    for _ in range(7):
        assert any(np.array_equal(t_pow, a) for a in factored[1:])
        t_pow = t_pow @ t


@pytest.mark.parametrize("n", [1, 3, 7])
def test_definitional_check_takes_one_svd_per_power(lapack_calls, n):
    t = random_mixed_rank(np.random.default_rng(n), 5)
    is_n_centered_definitional(t, n)
    assert lapack_calls["svd"] == n + 1


def test_definitional_pass_in_centered_order_stops_at_first_failure(lapack_calls):
    # A generic draw is 1-centered and fails at power 2: one SVD for U, then
    # the oracle factors T and T^2 and stops, whatever max_n is.
    t = random_mixed_rank(np.random.default_rng(5), 5)
    report = centered_order(t, 6)
    assert report.verified_order == 1 and report.oracle_agrees
    assert lapack_calls["svd"] == 3


def test_run_suite_all_factorization_counts(lapack_calls):
    run_suite("all", 0, 6, 100)
    assert lapack_calls == Counter(svd=9225, eigh=1600, eigvalsh=887)


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
