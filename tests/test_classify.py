"""Tests for binormal/centered classification, products, and transforms."""

from __future__ import annotations

import numpy as np
import pytest

from polarops import classify
from polarops.classify import (
    aluthge,
    binormal_equivalents,
    centered_order,
    is_binormal,
    is_n_centered_definitional,
    mp_centered_check,
    polar_transfer,
    product_polar,
)
from polarops.core import (
    commutator_norm,
    commutes,
    equality_residual,
    fractional_power_psd,
    rank_margin,
    svd,
)
from polarops.decomp import abs_value, moore_penrose, polar_decompose
from polarops.sampling import (
    random_binormal,
    random_commuting_moduli_pair,
    random_mixed_rank,
    random_nonbinormal,
    random_normal_operator,
    random_operator,
    random_spectrum_operator,
    random_unitary,
    structured_fixtures,
)
from polarops.shifts import ShiftSpec, build_truncated, certify_blockwise

TIGHT = 1e-12
EXPONENT_PAIRS = [(0.5, 0.5), (1.0, 2.0)]

J2 = np.array([[0, 1], [0, 0]], dtype=complex)
UPPER = np.array([[1, 1], [0, 1]], dtype=complex)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestIsBinormal:
    def test_normal_matrix(self):
        flag, norm = is_binormal(np.diag([1.0, 1j]))
        assert flag
        assert norm < TIGHT

    def test_nilpotent_shift(self):
        # T*T = diag(0,1) and TT* = diag(1,0) commute.
        flag, _ = is_binormal(J2)
        assert flag

    def test_upper_triangular_counterexample(self):
        flag, norm = is_binormal(UPPER)
        assert not flag
        assert norm == pytest.approx(np.sqrt(8.0))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            is_binormal(np.zeros((2, 3)))


class TestCenteredOrder:
    def test_normal_reaches_max(self):
        report = centered_order(random_normal_operator(rng_for(0), 4), 6)
        assert report.verified_order == 6
        assert report.binormal
        assert report.oracle_agrees
        assert max(report.commutator_norms) < 1e-9

    def test_nilpotent_shift_fully_centered(self):
        report = centered_order(J2, 5)
        assert report.verified_order == 5
        assert report.oracle_agrees

    def test_non_binormal_stops_at_one(self):
        report = centered_order(UPPER, 4)
        assert report.verified_order == 1
        assert not report.binormal
        assert report.oracle_agrees
        assert report.commutator_norms[0] > 0.1

    def test_binormal_flag_matches_direct_check(self):
        rng = rng_for(1)
        for _ in range(20):
            t = random_mixed_rank(rng, 4)
            report = centered_order(t, 3)
            assert report.binormal == is_binormal(t)[0]

    def test_max_n_one_still_decides_binormality(self):
        # Binormality is the k = 1 commutator decision; max_n = 1 reports no
        # commutator but still makes that decision.
        cases = [
            (np.eye(2), True),
            (random_binormal(rng_for(3), 4), True),
            (UPPER, False),
        ]
        for t, binormal in cases:
            report = centered_order(t, 1)
            assert report.binormal == binormal == is_binormal(t)[0]
            assert report.verified_order == 1 and report.max_order_checked == 1
            assert report.commutator_norms == report.commutator_thresholds == ()
            assert report.binormal == centered_order(t, 2).binormal

    def test_run_break_is_permanent(self):
        # Once a commutator fails, later vanishing ones cannot raise the order.
        spec = ShiftSpec.from_recipe(2)
        report = centered_order(build_truncated(spec), 6)
        assert report.verified_order == 2
        assert report.commutator_norms[0] < 1e-12
        assert report.commutator_norms[1] > 0.1

    def test_rejects_bad_max_n(self):
        with pytest.raises(ValueError):
            centered_order(np.eye(2), 0)

    def test_rank_margin_is_that_of_the_singular_values(self):
        for t in _centered_cases():
            expected = rank_margin(svd(t).singular_values)
            assert centered_order(t, 3).rank_margin == expected

    @pytest.mark.parametrize("max_n", [1, 2, 6, 11])
    def test_commute_decisions_are_the_commutes_loop(self, max_n):
        for t in _centered_cases():
            report = centered_order(t, max_n)
            parts = polar_decompose(t)
            u_pow, decisions = parts.isometry, []
            for _ in range(1, max_n):
                conjugated = u_pow @ parts.modulus @ u_pow.conj().T
                decisions.append(commutes(conjugated, parts.modulus))
                u_pow = u_pow @ parts.isometry
            assert report.commute_decisions() == tuple(decisions)
            leading = (list(decisions) + [False]).index(False)
            assert report.verified_order == 1 + leading


def _centered_cases() -> list[np.ndarray]:
    """Random draws, their tiny-norm copies (where the commutator floor
    decides) and the shifts of orders 2-8."""
    rng = rng_for(20261018)
    draws = [random_mixed_rank(rng, int(d)) for d in rng.integers(2, 7, size=20)]
    shifts = [build_truncated(ShiftSpec.from_recipe(n)) for n in range(2, 9)]
    return draws + [1e-6 * t for t in draws] + shifts


def _budget_runs() -> list:
    """Calls of both centered-order routes whose walks group the powers
    differently at different budgets: the block and dense routes on the
    shifts of orders 2-12, the block route at order 60 (several groups at
    the default budget), and mixed-rank draws, the structured fixtures and
    their tiny-norm copies on the dense route."""
    runs = []
    for n in range(2, 13):
        spec = ShiftSpec.from_recipe(n)
        t = build_truncated(spec)
        runs.append(lambda t=t, m=spec.blocks - 1: certify_blockwise(t, m))
        runs.append(lambda t=t, m=spec.blocks - 1: centered_order(t, m))
    shift60 = build_truncated(ShiftSpec.from_recipe(60))
    runs.append(lambda: certify_blockwise(shift60, 62))
    rng = rng_for(20261019)
    draws = [random_mixed_rank(rng, int(d)) for d in rng.integers(2, 9, size=20)]
    fixtures = [matrix for _, matrix in structured_fixtures(rng)]
    for t in draws + fixtures + [1e-6 * t for t in draws + fixtures]:
        for max_n in (2, 6, 10):
            runs.append(lambda t=t, m=max_n: centered_order(t, m))
    return runs


@pytest.mark.parametrize("budget", [1, 2**62], ids=["alone", "one-group"])
def test_report_does_not_depend_on_the_group_budget(monkeypatch, budget):
    # Budget 1 walks every power alone; 2**62 walks all powers in one group.
    runs = _budget_runs()
    expected = [repr(run()) for run in runs]
    monkeypatch.setattr(classify, "_GROUP_ENTRIES", budget)
    assert [repr(run()) for run in runs] == expected


class TestDefinitionalCheck:
    def test_every_operator_is_one_centered(self):
        rng = rng_for(2)
        for _ in range(10):
            assert is_n_centered_definitional(random_mixed_rank(rng, 4), 1).ok

    def test_unitary_at_high_order(self):
        assert is_n_centered_definitional(random_unitary(rng_for(3), 4), 10).ok

    def test_agrees_with_criterion_order_by_order(self):
        rng = rng_for(4)
        operators = [random_mixed_rank(rng, 4) for _ in range(15)]
        operators.append(build_truncated(ShiftSpec.from_recipe(2)))
        for t in operators:
            report = centered_order(t, 5)
            for n in range(1, 6):
                assert is_n_centered_definitional(t, n).ok == (
                    report.verified_order >= n
                )

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            is_n_centered_definitional(np.eye(2), 0)


class TestProductPolar:
    def test_commuting_diagonal_pair(self):
        t = np.diag([2.0, 3.0]).astype(complex)
        report = product_polar(t, t)
        assert report.booleans() == (True, True, True)
        assert np.allclose(report.candidate_isometry, np.eye(2), atol=TIGHT)

    def test_non_commuting_pair_fails_all_three(self):
        s = np.array([[1, 0], [1, 1]], dtype=complex) @ np.diag([1.0, 2.0])
        report = product_polar(UPPER, s)
        assert report.commutator_norm > 0.01
        assert report.booleans() == (False, False, False)
        assert report.agree()

    def test_constructed_pairs_land_on_polar_side(self):
        rng = rng_for(5)
        for _ in range(15):
            t, s = random_commuting_moduli_pair(rng, 4)
            report = product_polar(t, s)
            assert report.booleans() == (True, True, True)

    def test_three_way_agreement_on_random_pairs(self):
        rng = rng_for(6)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            report = product_polar(random_operator(rng, d), random_operator(rng, d))
            assert report.agree()

    def test_transfer_factor_reproduces_polar_factor_unconditionally(self):
        rng = rng_for(7)
        for _ in range(30):
            report = product_polar(random_operator(rng, 4), random_operator(rng, 4))
            assert report.transfer_residual < 1e-9

    def test_rejects_mismatched_pairs(self):
        with pytest.raises(ValueError):
            product_polar(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            product_polar(np.zeros((2, 3)), np.zeros((3, 2)))


class TestPolarTransfer:
    def test_unitary_pair_is_exact(self):
        rng = rng_for(8)
        report = polar_transfer(random_unitary(rng, 4), random_unitary(rng, 4))
        assert report.ok
        assert report.product_check.worst() < 1e-10
        assert report.moduli_check.worst() < 1e-10

    def test_zero_factor_degenerates_gracefully(self):
        report = polar_transfer(np.zeros((3, 3)), random_operator(rng_for(9), 3))
        assert report.ok

    def test_random_pairs_pass_both_directions(self):
        rng = rng_for(10)
        for _ in range(25):
            t, s = random_mixed_rank(rng, 4), random_mixed_rank(rng, 4)
            assert polar_transfer(t, s).ok


class TestAluthge:
    def test_nilpotent_shift_collapses(self):
        parts = aluthge(J2, 0.5, 0.5)
        assert np.all(np.abs(parts.transform) < TIGHT)
        assert np.all(np.abs(parts.tilde_u) < TIGHT)

    def test_unitary_is_fixed_point(self):
        w = random_unitary(rng_for(12), 4)
        parts = aluthge(w, 0.7, 1.3)
        assert np.allclose(parts.transform, w, atol=1e-10)
        assert np.allclose(parts.tilde_u, w, atol=1e-10)

    def test_permutation_weighted_closed_form(self):
        # T = [[0,2],[1,0]] has |T| = diag(1,2) and factor [[0,1],[1,0]], so
        # the transform is [[0, 2^beta], [2^alpha, 0]].
        t = np.array([[0, 2], [1, 0]], dtype=complex)
        for alpha, beta in [(0.5, 0.5), (1.0, 2.0), (0.25, 3.0)]:
            parts = aluthge(t, alpha, beta)
            expected = np.array([[0, 2.0**beta], [2.0**alpha, 0]], dtype=complex)
            assert np.allclose(parts.transform, expected, atol=TIGHT)

    def test_normal_preserves_spectrum_at_unit_exponent_sum(self):
        rng = rng_for(13)
        for _ in range(10):
            t = random_normal_operator(rng, 5)
            parts = aluthge(t, 0.5, 0.5)
            ev_t = np.sort_complex(np.linalg.eigvals(t))
            ev_a = np.sort_complex(np.linalg.eigvals(parts.transform))
            assert np.max(np.abs(ev_t - ev_a)) < 1e-9

    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(ValueError):
            aluthge(np.eye(2), 0.0, 1.0)
        with pytest.raises(ValueError):
            aluthge(np.eye(2), 1.0, -0.5)


class TestBinormalEquivalents:
    def test_normal_satisfies_all_five(self):
        report = binormal_equivalents(
            random_normal_operator(rng_for(14), 4), EXPONENT_PAIRS
        )
        assert report.statements == (True,) * 5
        assert report.agree()

    def test_binormal_draws_satisfy_all_five(self):
        rng = rng_for(15)
        for _ in range(10):
            report = binormal_equivalents(random_binormal(rng, 4), EXPONENT_PAIRS)
            assert report.statements == (True,) * 5
            for check in report.pair_checks:
                assert check.modulus_form_residual < 1e-9
                assert check.adjoint_form_residual < 1e-9

    def test_non_binormal_falsifies_all_five(self):
        report = binormal_equivalents(UPPER, EXPONENT_PAIRS)
        assert report.statements == (False,) * 5
        assert report.agree()

    def test_non_binormal_draws_falsify_all_five(self):
        rng = rng_for(16)
        for _ in range(10):
            report = binormal_equivalents(random_nonbinormal(rng, 4), EXPONENT_PAIRS)
            assert report.statements == (False,) * 5

    def test_rejects_empty_exponent_sample(self):
        with pytest.raises(ValueError):
            binormal_equivalents(np.eye(2), [])


class TestBinormalCommutatorChains:
    # For binormal T the factor projections commute with powers of both
    # moduli, and conjugating a modulus power by U or U* lands back in
    # the commutant of |T|.

    def binormal_cases(self):
        rng = rng_for(28)
        cases = [random_binormal(rng, 5) for _ in range(8)]
        cases.append(J2)
        cases.append(np.diag([2.0, 0.0]).astype(complex))
        return cases

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_projections_commute_with_modulus_powers(self, alpha):
        for t in self.binormal_cases():
            parts = polar_decompose(t)
            u = parts.isometry
            final = u @ u.conj().T
            initial = u.conj().T @ u
            pow_mod = fractional_power_psd(parts.modulus, alpha)
            pow_adj = fractional_power_psd(abs_value(t.conj().T), alpha)
            assert commutator_norm(pow_mod, final) < 1e-9
            assert commutator_norm(initial, pow_adj) < 1e-9
            assert commutator_norm(initial, final) < 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_conjugated_powers_commute_with_modulus(self, alpha, beta):
        for t in self.binormal_cases():
            parts = polar_decompose(t)
            u = parts.isometry
            pow_a = fractional_power_psd(parts.modulus, alpha)
            pow_b = fractional_power_psd(parts.modulus, beta)
            assert commutator_norm(u @ pow_a @ u.conj().T, pow_b) < 1e-9
            assert commutator_norm(u.conj().T @ pow_a @ u, pow_b) < 1e-9

    def test_chains_fail_for_non_binormal(self):
        # The conjugated chain is not vacuous: a non-binormal operator
        # breaks it at alpha = beta = 1.
        parts = polar_decompose(UPPER)
        u = parts.isometry
        conjugated = u @ parts.modulus @ u.conj().T
        assert commutator_norm(conjugated, parts.modulus) > 1e-3


class TestCenteredStabilization:
    # Once the criterion holds through order d*d on a d-dimensional space,
    # it keeps holding at every larger order we can test.

    def fixtures(self):
        rng = rng_for(29)
        return [
            np.zeros((2, 2), dtype=complex),
            np.eye(3, dtype=complex),
            J2,
            np.diag([2.0, 0.0]).astype(complex),
            random_unitary(rng, 3),
            random_normal_operator(rng, 3),
            build_truncated(ShiftSpec.from_recipe(2)),
        ]

    def test_order_beyond_dimension_squared_is_stable(self):
        for t in self.fixtures():
            d = t.shape[0]
            if centered_order(t, d * d).verified_order == d * d:
                assert centered_order(t, 2 * d * d).verified_order == 2 * d * d


class TestMpCenteredCheck:
    def test_diagonal_with_kernel(self):
        report = mp_centered_check(np.diag([2.0, 0.0]), 5)
        assert report.ok
        assert report.inverse_verified_order >= 5
        assert report.checked_modulus_commutators
        assert max(report.power_inverse_residuals) < 1e-10

    def test_unitary(self):
        report = mp_centered_check(random_unitary(rng_for(20), 4), 4)
        assert report.ok

    def test_shift_preserves_order_exactly(self):
        t = build_truncated(ShiftSpec.from_recipe(3))
        report = mp_centered_check(t, 3)
        assert report.ok
        assert report.inverse_verified_order == 3
        # The operator is exactly 3-centered, so the conditional modulus
        # commutator checks (which need 4-centered) must not run.
        assert not report.checked_modulus_commutators
        inverse_report = centered_order(moore_penrose(t), 4)
        assert inverse_report.verified_order == 3

    def test_finds_the_order_below_max_n(self):
        # UPPER is only 1-centered: the order is found, not required, and
        # the modulus commutators need a 2-centered operator.
        report = mp_centered_check(UPPER, 2)
        assert report.order == 1
        assert report.inverse_verified_order == 1
        assert not report.checked_modulus_commutators
        assert report.modulus_commutator_norms == ()
        assert report.ok

    def test_rejects_bad_max_n(self):
        with pytest.raises(ValueError, match="max_n"):
            mp_centered_check(UPPER, 0)

    def test_held_polar_parts_give_the_same_bits(self):
        # The polar parts of T, sliced from those of a stack of T and T* as
        # the mp-inverse suite holds them, stand in for U and |T|. The
        # unitary and the normal operator reach max_n, so the modulus
        # commutators take U and |T| too.
        rng = rng_for(25)
        operators = [random_mixed_rank(rng, 5) for _ in range(2)]
        operators += [random_unitary(rng, 5), random_normal_operator(rng, 5)]
        t = np.stack(operators)[:, None]
        t[1] *= 1e-3
        first = np.concatenate([t, t.conj().swapaxes(-1, -2)])
        decomp = svd(first)
        held = polar_decompose(first, decomp=decomp)[: len(t)]
        pinv = moore_penrose(t, decomp=decomp[: len(t)])
        expected = mp_centered_check(t, 3)
        assert any(report.checked_modulus_commutators for report in expected)
        # repr tells every two doubles apart, the signs of zeros included.
        assert repr(mp_centered_check(t, 3, parts=held)) == repr(expected)
        assert repr(mp_centered_check(t, 3, parts=held, pinv=pinv)) == repr(expected)
        alone = mp_centered_check(t[2, 0], 3, parts=polar_decompose(t[2, 0]))
        assert repr(alone) == repr(mp_centered_check(t[2, 0], 3))

    def test_every_part_held_takes_no_svd_of_t(self, monkeypatch):
        # With U, |T| and pinv held, nothing is left for an SVD of T: at
        # max_n = 1 no power T^k, k >= 2, is inverted either.
        t = random_mixed_rank(rng_for(27), 5)
        pinv = moore_penrose(t)
        held = {
            "parts": polar_decompose(t),
            "adjoint_parts": polar_decompose(t.conj().T),
            "inverse_parts": polar_decompose(pinv),
            "pinv": pinv,
        }
        expected = mp_centered_check(t, 1)
        calls = []
        original = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = mp_centered_check(t, 1, **held)
        assert calls == []
        assert repr(report) == repr(expected)

    def test_a_failing_adjoint_modulus_commutator_fails_the_check(self):
        # Held polar parts of another operator stand in for those of T*:
        # (U^k)* U^k = diag(1, 0) does not commute with their modulus,
        # while U^k (U^k)* = diag(1, 0) commutes with |T| = diag(2, 0).
        other = polar_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        report = mp_centered_check(np.diag([2.0, 0.0]), 2, adjoint_parts=other)
        assert report.checked_modulus_commutators
        assert max(report.modulus_commutator_norms) < 1e-12
        assert min(report.adjoint_modulus_commutator_norms) > 0.1
        assert not report.ok

    def test_modulus_commutators_of_direct_sums_are_blockwise(self):
        # Stacks of operators of two blocks: the commutators of each power
        # of U are those of the whole direct sum, block j of U^k against
        # block j of |T| only, one norm per power, in the criterion's walk
        # and in the modulus commutators alike.
        rng = rng_for(26)
        normal_sum = np.stack([np.diag([1.0, 0.0]), [[2.0, 1.0], [1.0, 2.0]]])
        normals = np.stack([random_normal_operator(rng, 2) for _ in range(2)])
        t = np.stack([normal_sum, normals, np.stack([UPPER, UPPER])]).astype(complex)
        max_n = 4
        reports = mp_centered_check(t, max_n)
        assert [report.checked_modulus_commutators for report in reports] == [True, True, False]
        assert reports[0].ok and reports[1].ok
        parts = polar_decompose(t)
        adjoint_modulus = polar_decompose(t.conj().swapaxes(-1, -2)).modulus
        u_pow, criterion, expected, adjoint_expected = parts.isometry, [], [], []
        for _ in range(max_n):
            u_pow_h = u_pow.conj().swapaxes(-1, -2)
            criterion.append(commutator_norm(u_pow @ parts.modulus @ u_pow_h, parts.modulus))
            expected.append(commutator_norm(u_pow @ u_pow_h, parts.modulus))
            adjoint_expected.append(commutator_norm(u_pow_h @ u_pow, adjoint_modulus))
            u_pow = u_pow @ parts.isometry
        for i in (0, 1):
            assert reports[i].modulus_commutator_norms == tuple(n[i] for n in expected)
            norms = reports[i].adjoint_modulus_commutator_norms
            assert norms == tuple(n[i] for n in adjoint_expected)
        for i, report in enumerate(centered_order(t, max_n)):
            assert report.verified_order == reports[i].order
            assert report.commutator_norms == tuple(n[i] for n in criterion[:-1])

    def test_order_preserved_both_directions(self):
        rng = rng_for(21)
        for i in range(15):
            t = random_spectrum_operator(rng, 4, rank=4 - (i % 2))
            order = centered_order(t, 5).verified_order
            assert centered_order(moore_penrose(t), 5).verified_order == order

    def test_power_inverse_compatibility_invertible(self):
        # For invertible operators pinv is the inverse and power
        # compatibility holds at every k with no centered hypothesis.
        rng = rng_for(22)
        t = random_spectrum_operator(rng, 4)
        pinv = moore_penrose(t)
        for k in (2, 3, 4):
            assert equality_residual(
                moore_penrose(np.linalg.matrix_power(t, k)),
                np.linalg.matrix_power(pinv, k),
            ) < 1e-9
