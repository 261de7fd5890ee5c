"""Tests for polar decomposition and Moore-Penrose inversion."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarops.core import (
    DEFAULT_TOLERANCES,
    equality_residual,
    fractional_power_psd,
    range_projection,
    svd,
)
from polarops.decomp import (
    PolarParts,
    abs_value,
    moore_penrose,
    mp_polar_parts,
    penrose_check,
    polar_decompose,
    polar_tolerance,
    verify_polar,
)
from polarops.sampling import (
    random_mixed_rank,
    random_operator,
    random_rank_deficient,
    random_spectrum_operator,
    random_unitary,
)

TIGHT = 1e-12


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestAbsValue:
    def test_nilpotent_shift(self):
        out = abs_value(np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=TIGHT)

    def test_unitary_gives_identity(self):
        w = random_unitary(rng_for(0), 4)
        assert np.allclose(abs_value(w), np.eye(4), atol=1e-10)

    def test_rank_one_closed_form(self):
        out = abs_value(np.array([[1, 1], [0, 0]], dtype=complex))
        expected = np.full((2, 2), 1.0 / np.sqrt(2.0))
        assert np.allclose(out, expected, atol=TIGHT)
        # Squaring oracle: |T|^2 = T*T.
        t = np.array([[1, 1], [0, 0]], dtype=complex)
        assert np.allclose(out @ out, t.conj().T @ t, atol=TIGHT)


class TestPolarDecompose:
    @pytest.mark.parametrize("shape", [(5, 5), (6, 3), (3, 6)])
    def test_carries_the_singular_values_it_was_built_from(self, shape):
        t = random_operator(rng_for(sum(shape)), *shape)
        parts = polar_decompose(t)
        assert np.array_equal(parts.singular_values, svd(t).singular_values)

    def test_zero_matrix(self):
        parts = polar_decompose(np.zeros((3, 3)))
        assert parts.rank == 0
        assert np.all(parts.isometry == 0)
        assert np.all(parts.modulus == 0)
        assert verify_polar(np.zeros((3, 3)), parts).ok

    def test_diagonal_with_kernel(self):
        parts = polar_decompose(np.diag([3.0, 0.0]))
        assert np.allclose(parts.isometry, np.diag([1.0, 0.0]), atol=TIGHT)
        assert np.allclose(parts.modulus, np.diag([3.0, 0.0]), atol=TIGHT)
        assert parts.rank == 1

    def test_factor_forced_by_range_condition(self):
        # For [[0,2],[0,0]] the factor vanishing on the kernel is [[0,1],[0,0]],
        # not the unitary completion.
        parts = polar_decompose(np.array([[0, 2], [0, 0]], dtype=complex))
        assert np.allclose(parts.isometry, [[0, 1], [0, 0]], atol=TIGHT)
        assert np.allclose(parts.modulus, np.diag([0.0, 2.0]), atol=TIGHT)

    def test_matches_pinv_route(self):
        # Alternate construction of the factor: U = T @ pinv(|T|).
        rng = rng_for(1)
        for _ in range(20):
            t = random_mixed_rank(rng, 5)
            parts = polar_decompose(t)
            alt = t @ moore_penrose(parts.modulus)
            assert equality_residual(parts.isometry, alt) < 1e-9

    def test_rectangular_shapes(self):
        rng = rng_for(2)
        for rows, cols in [(5, 3), (3, 5), (4, 1), (1, 4)]:
            t = random_operator(rng, rows, cols)
            parts = polar_decompose(t)
            assert parts.isometry.shape == (rows, cols)
            assert parts.modulus.shape == (cols, cols)
            assert verify_polar(t, parts).ok

    def test_adjoint_polar_parts(self):
        # Decomposing T* yields exactly the adjoint factor and |T*|.
        rng = rng_for(21)
        for _ in range(25):
            t = random_mixed_rank(rng, 5)
            parts = polar_decompose(t)
            adj = polar_decompose(t.conj().T)
            assert equality_residual(adj.isometry, parts.isometry.conj().T) < 1e-9
            assert equality_residual(adj.modulus, abs_value(t.conj().T)) < 1e-9

    @pytest.mark.parametrize("alpha", [1.0 / 3.0, 0.5, 2.0])
    def test_modulus_power_conjugation(self, alpha):
        # U carries powers of |T| to powers of |T*|: U|T|^a U* = |T*|^a,
        # and the two-sided form U|T|^a = |T*|^a U holds on all of the space.
        rng = rng_for(22)
        for _ in range(25):
            t = random_mixed_rank(rng, 5)
            parts = polar_decompose(t)
            u = parts.isometry
            pow_mod = fractional_power_psd(parts.modulus, alpha)
            pow_adj = fractional_power_psd(abs_value(t.conj().T), alpha)
            assert equality_residual(u @ pow_mod @ u.conj().T, pow_adj) < 1e-9
            assert equality_residual(u @ pow_mod, pow_adj @ u) < 1e-9


class TestVerifyPolar:
    def test_accepts_canonical_parts(self):
        rng = rng_for(3)
        for _ in range(20):
            t = random_mixed_rank(rng, 4)
            check = verify_polar(t, polar_decompose(t))
            assert check.ok
            assert check.worst() < 1e-10

    def test_rejects_wrong_sign_factor(self):
        parts = PolarParts(isometry=-np.eye(2), modulus=np.eye(2), rank=2)
        check = verify_polar(np.eye(2), parts)
        assert not check.ok
        assert check.residuals["reconstruction"] > 0.1

    def test_rejects_unitary_completion(self):
        # The unitary polar factor [[0,1],[1,0]] reconstructs [[0,1],[0,0]]
        # but violates the range condition U*U = P_{ran T*}.
        t = np.array([[0, 1], [0, 0]], dtype=complex)
        parts = PolarParts(
            isometry=np.array([[0, 1], [1, 0]], dtype=complex),
            modulus=np.diag([0.0, 1.0]),
            rank=1,
        )
        check = verify_polar(t, parts)
        assert not check.ok
        assert check.residuals["reconstruction"] < TIGHT
        assert check.residuals["range_condition"] > 0.1

    def test_adjoint_modulus_and_intertwine(self):
        rng = rng_for(4)
        t = random_operator(rng, 5, 5)
        parts = polar_decompose(t)
        u, p = parts.isometry, parts.modulus
        assert np.allclose(u @ p @ u.conj().T, abs_value(t.conj().T), atol=1e-10)
        assert np.allclose(u @ p, abs_value(t.conj().T) @ u, atol=1e-10)

    def test_rejects_mismatched_shapes(self):
        t = np.zeros((2, 3))
        with pytest.raises(ValueError):
            verify_polar(t, PolarParts(np.zeros((2, 2)), np.zeros((3, 3)), 0))
        with pytest.raises(ValueError):
            verify_polar(t, PolarParts(np.zeros((2, 3)), np.zeros((2, 2)), 0))


def _reference_polar_residuals(
    t, parts, svd_route: bool = False, adjoint_svd: bool = False
) -> dict[str, float]:
    """The ``verify_polar`` residuals of a matrix, written with numpy alone.
    The spectrum and the range projection of ``P`` come from one ``eigh``
    of its Hermitian part, the eigenvectors ordered by |eigenvalue|, largest
    first. With ``Q = U P U*``, adjoint_modulus is the residual of
    ``Q^2 = T T*``, both sides formed from ``T`` and ``Q`` times ``2^-e``,
    ``e`` the exponent of the largest |entry| of ``T``, and intertwine that
    of ``U P = Q U``. With ``svd_route``, the spectrum and projection of
    ``P`` come as the check took them before it factored ``P`` once: the
    projection from an SVD of ``P`` itself, the eigenvalues from
    ``eigvalsh``. With ``adjoint_svd``, adjoint_modulus and intertwine come
    as the check took them before it squared ``Q``: ``Q = |T*|`` and
    ``U P = |T*| U``, with ``|T*|`` from an SVD of ``T*``."""
    t, u, p = (np.asarray(a, dtype=complex) for a in (t, parts.isometry, parts.modulus))

    def fro(a):
        return float(np.linalg.norm(a, "fro"))

    def residual(a, b):
        return fro(a - b) / max(1.0, fro(a), fro(b))

    q = u @ p @ u.conj().T
    if adjoint_svd:
        _, s, right_h = np.linalg.svd(t.conj().T, full_matrices=False)
        x = right_h.conj().T
        adjoint_modulus = (x * s) @ x.conj().T
        adjoint_modulus = 0.5 * (adjoint_modulus + adjoint_modulus.conj().T)
        adjoint = [residual(q, adjoint_modulus), residual(u @ p, adjoint_modulus @ u)]
    else:
        scale = 2.0 ** -math.frexp(float(np.abs(t).max()))[1]
        ts, qs = t * scale, q * scale
        adjoint = [residual(qs @ qs, ts @ ts.conj().T), residual(u @ p, q @ u)]
    hermitian = 0.5 * (p + p.conj().T)
    if svd_route:
        left, s, _ = np.linalg.svd(p, full_matrices=False)
        eigenvalues = np.linalg.eigvalsh(hermitian)
    else:
        eigenvalues, vectors = np.linalg.eigh(hermitian)
        order = np.argsort(-np.abs(eigenvalues), kind="stable")
        left, s = vectors[:, order], np.abs(eigenvalues)[order]
    cutoff = DEFAULT_TOLERANCES.rank_rel_tol * s[0]
    r = int(np.count_nonzero(s > cutoff)) if s[0] > 0 else 0
    projection = left[:, :r] @ left[:, :r].conj().T
    projection = 0.5 * (projection + projection.conj().T)
    return {
        "reconstruction": residual(t, u @ p),
        "modulus_hermitian": fro(p - p.conj().T) / max(1.0, fro(p)),
        "modulus_psd": max(0.0, -float(eigenvalues[0]))
        / max(1.0, float(eigenvalues[-1])),
        "partial_isometry": residual(u @ u.conj().T @ u, u),
        "range_condition": residual(u.conj().T @ u, projection),
        "adjoint_modulus": adjoint[0],
        "intertwine": adjoint[1],
    }


def _direct_sum(stack: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with the matrices of ``stack`` on its
    diagonal."""
    count, rows, cols = stack.shape
    out = np.zeros((count * rows, count * cols), dtype=np.complex128)
    for i, block in enumerate(stack):
        out[i * rows : (i + 1) * rows, i * cols : (i + 1) * cols] = block
    return out


def _mixed_rank_stack(rng, count: int, dim: int) -> np.ndarray:
    """Blocks of mixed rank; the first is scaled below the rank cutoff of
    the whole stack, though not below that of its own singular values."""
    stack = np.stack([random_mixed_rank(rng, dim) for _ in range(count)])
    stack[0] *= 1e-14
    return stack


def _passes(residuals: dict[str, float]) -> bool:
    return all(value <= polar_tolerance(name) for name, value in residuals.items())


def _verdict_cases() -> list[tuple]:
    """``(t, parts)`` pairs, and ``(t, parts, dense t, dense parts)`` for a
    stack: canonical parts of mixed-rank, rank-deficient, rectangular and
    zero operators, the unitary-completion and wrong-sign candidates, a
    modulus a little off Hermitian, and stacks whose first block lies below
    the rank cutoff of the whole stack, with the direct sums they stand
    for."""
    rng = rng_for(23)
    operators = [random_mixed_rank(rng, d) for d in range(2, 7) for _ in range(6)]
    operators += [
        random_rank_deficient(rng, rows, cols, rank)
        for rows, cols, rank in [(6, 6, 3), (8, 8, 1), (7, 4, 2), (4, 7, 3), (9, 9, 8)]
    ]
    operators += [random_operator(rng, 6, 3), random_operator(rng, 3, 6)]
    operators.append(np.zeros((4, 4), dtype=complex))
    cases = [(t, polar_decompose(t)) for t in operators]
    nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    cases.append((nilpotent, PolarParts(swap, np.diag([0.0, 1.0]), 1)))
    cases.append((np.eye(2, dtype=complex), PolarParts(-np.eye(2), np.eye(2), 2)))
    t = random_mixed_rank(rng, 5)
    parts = polar_decompose(t)
    skew = random_operator(rng, 5)
    skew = (skew - skew.conj().T) / np.linalg.norm(skew - skew.conj().T)
    cases.append((t, replace(parts, modulus=parts.modulus + 1e-14 * skew)))
    for dim in (2, 3, 5):
        stack = _mixed_rank_stack(rng, 6, dim)
        block_parts = polar_decompose(stack)
        u, p = map(_direct_sum, (block_parts.isometry, block_parts.modulus))
        cases.append((stack, block_parts, _direct_sum(stack), PolarParts(u, p, 0)))
    return cases


class TestPolarCheck:
    def test_two_dimensional_check_is_the_reference_bitwise(self):
        rng = rng_for(21)
        operators = [random_mixed_rank(rng, 5) for _ in range(20)]
        operators += [random_operator(rng, 6, 3), random_operator(rng, 3, 6)]
        operators.append(np.zeros((3, 3), dtype=complex))
        cases = [(t, polar_decompose(t)) for t in operators]
        wrong = PolarParts(-np.eye(2, dtype=complex), random_operator(rng, 2), 2)
        cases.append((np.eye(2, dtype=complex), wrong))
        for t, parts in cases:
            expected = _reference_polar_residuals(t, parts)
            assert verify_polar(t, parts).residuals == expected

    def test_verdicts_match_the_svd_route(self):
        # The range projection and spectrum of P from one eigh of its
        # Hermitian part, against an SVD of P itself and eigvalsh: the same
        # verdict, and each residual within 1e-13, on the cases of
        # _verdict_cases.
        for t, parts, *dense in _verdict_cases():
            check = verify_polar(t, parts)
            expected = _reference_polar_residuals(*(dense or (t, parts)), svd_route=True)
            assert check.residuals.keys() == expected.keys()
            for name, value in check.residuals.items():
                assert abs(value - expected[name]) <= 1e-13, name
            assert check.ok == _passes(expected)

    def test_verdicts_match_the_adjoint_svd_route(self):
        # adjoint_modulus as Q^2 = T T* and intertwine as U P = Q U, with
        # Q = U P U*, against Q = |T*| and U P = |T*| U with |T*| from an
        # SVD of T*: the same verdict on the cases of _verdict_cases, which
        # hold both verdicts.
        verdicts = []
        for t, parts, *dense in _verdict_cases():
            check = verify_polar(t, parts)
            expected = _reference_polar_residuals(*(dense or (t, parts)), adjoint_svd=True)
            assert check.ok == _passes(expected)
            verdicts.append(check.ok)
        assert set(verdicts) == {True, False}

    def test_a_negated_eigenvalue_fails_modulus_psd_on_both_routes(self):
        # Negate the largest eigenvalue lam of P (eigenvector v) and take
        # U' = U (I - 2 v v*). Then U' P' = T still, U' is a partial
        # isometry with U'* U' = U* U, and Q' = U' P' U'* squares to T T*:
        # every residual passes on the matmul route but modulus_psd, and
        # only that one tells Q' from the PSD root |T*|. The SVD route
        # fails adjoint_modulus as well.
        t = random_operator(rng_for(25), 5)
        parts = polar_decompose(t)
        eigenvalues, vectors = np.linalg.eigh(parts.modulus)
        v = vectors[:, -1:]
        flip = v @ v.conj().T
        negated = PolarParts(
            parts.isometry @ (np.eye(5) - 2 * flip),
            parts.modulus - 2 * eigenvalues[-1] * flip,
            5,
        )
        check = verify_polar(t, negated)
        failing = {name for name, value in check.residuals.items() if not _passes({name: value})}
        assert failing == {"modulus_psd"} and not check.ok
        old = _reference_polar_residuals(t, negated, adjoint_svd=True)
        assert not _passes(old)
        assert old["adjoint_modulus"] > polar_tolerance("adjoint_modulus")

    def test_modulus_off_hermitian_fails_on_both_routes(self):
        # A modulus far enough from Hermitian for its range to differ from
        # that of its Hermitian part fails modulus_hermitian on either route.
        rng = rng_for(24)
        t = random_mixed_rank(rng, 5)
        parts = polar_decompose(t)
        skew = random_operator(rng, 5)
        skew = skew - skew.conj().T
        off = replace(parts, modulus=parts.modulus + 1e-6 * skew)
        check = verify_polar(t, off)
        expected = _reference_polar_residuals(t, off, svd_route=True)
        assert not check.ok
        assert check.residuals["modulus_hermitian"] > polar_tolerance("modulus_hermitian")
        assert expected["modulus_hermitian"] == check.residuals["modulus_hermitian"]

    def test_stack_parts_are_those_of_the_direct_sum(self):
        rng = rng_for(22)
        for dim in (2, 3, 5):
            stack = _mixed_rank_stack(rng, 6, dim)
            parts = polar_decompose(stack)
            dense = polar_decompose(_direct_sum(stack))
            assert parts.rank[0] == 0
            assert int(parts.rank.sum()) == dense.rank
            assert np.allclose(_direct_sum(parts.isometry), dense.isometry, atol=1e-10)
            assert np.allclose(_direct_sum(parts.modulus), dense.modulus, atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_matches_verify_polar_on_the_direct_sum(self, dim):
        rng = rng_for(30 + dim)
        stack = _mixed_rank_stack(rng, 5, dim)
        parts = polar_decompose(stack)
        scaled = parts.isometry.copy()
        scaled[2] *= 1 + 1e-6
        other = _mixed_rank_stack(rng, 5, dim)
        triples = [
            (stack, parts.isometry, parts.modulus, True),
            (stack, scaled, parts.modulus, False),
            (stack, other, other, False),
        ]
        for t, u, p, expected in triples:
            block = verify_polar(t, PolarParts(u, p, 0))
            dense = verify_polar(
                _direct_sum(t), PolarParts(_direct_sum(u), _direct_sum(p), 0)
            )
            assert block.ok == dense.ok == expected
            assert block.residuals.keys() == dense.residuals.keys()
            for name, value in block.residuals.items():
                close = pytest.approx(dense.residuals[name], rel=1e-12, abs=1e-15)
                assert value == close


def _scaling_draws() -> list[np.ndarray]:
    """Mixed-rank square draws of dims 2-6 and rectangular draws, full and
    deficient in rank."""
    rng = rng_for(40)
    draws = [random_mixed_rank(rng, d) for d in range(2, 7) for _ in range(2)]
    draws += [random_rank_deficient(rng, 7, 4, 2), random_rank_deficient(rng, 4, 7, 3)]
    return draws + [random_operator(rng, 6, 3), random_operator(rng, 3, 6)]


class TestPolarCheckUnderScaling:
    # At 1e-310 the entries are subnormal, and 2^-e itself would overflow.
    @pytest.mark.parametrize("exponent", [-310, *range(-300, 151, 50)])
    def test_scaling_changes_no_verdict_and_warns_nothing(self, exponent):
        c = 10.0**exponent
        for t in _scaling_draws():
            expected = verify_polar(t, polar_decompose(t)).ok
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert verify_polar(c * t, polar_decompose(c * t)).ok == expected

    @pytest.mark.parametrize("c", [1e154, 1e160])
    def test_adjoint_modulus_is_finite_where_norms_overflow(self, c):
        # The norms of c T overflow here, but Q^2 = T T* is formed after an
        # exact scaling of T and Q to entries of order one.
        for t in _scaling_draws():
            with np.errstate(over="ignore"):
                check = verify_polar(c * t, polar_decompose(c * t))
            value = check.residuals["adjoint_modulus"]
            assert np.isfinite(value)
            assert value <= polar_tolerance("adjoint_modulus")


class TestMoorePenrose:
    def test_diagonal_with_kernel(self):
        out = moore_penrose(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]), atol=TIGHT)

    def test_invertible_matches_inverse(self):
        t = random_operator(rng_for(5), 4, 4)
        assert np.allclose(moore_penrose(t), np.linalg.inv(t), atol=1e-9)

    def test_rank_one_closed_form(self):
        out = moore_penrose(np.array([[1, 1], [0, 0]], dtype=complex))
        assert np.allclose(out, [[0.5, 0], [0.5, 0]], atol=TIGHT)

    def test_zero_and_rectangular(self):
        assert moore_penrose(np.zeros((2, 4))).shape == (4, 2)
        assert np.all(moore_penrose(np.zeros((2, 4))) == 0)

    def test_matches_numpy_pinv(self):
        rng = rng_for(6)
        for _ in range(20):
            t = random_mixed_rank(rng, 5)
            assert np.allclose(
                moore_penrose(t), np.linalg.pinv(t, rcond=1e-12), atol=1e-9
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 5), cols=st.integers(1, 5))
    def test_penrose_equations_hold(self, seed, rows, cols):
        t = random_operator(rng_for(seed), rows, cols)
        check = penrose_check(t, moore_penrose(t))
        assert check.ok
        assert max(check.residuals) < 1e-10


class TestPenroseCheck:
    def test_rejects_non_inverse(self):
        t = np.diag([2.0, 3.0])
        check = penrose_check(t, np.eye(2))
        assert not check.ok

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            penrose_check(np.zeros((2, 3)), np.zeros((2, 3)))


class TestMpPolarParts:
    def test_diagonal_with_kernel(self):
        parts = mp_polar_parts(np.diag([2.0, 0.0]))
        assert np.allclose(parts.isometry, np.diag([1.0, 0.0]), atol=TIGHT)
        assert np.allclose(parts.modulus, np.diag([0.5, 0.0]), atol=TIGHT)

    def test_unitary(self):
        w = random_unitary(rng_for(7), 4)
        parts = mp_polar_parts(w)
        assert np.allclose(parts.isometry, w.conj().T, atol=1e-10)
        assert np.allclose(parts.modulus, np.eye(4), atol=1e-10)

    def test_passes_contract_on_rank_deficient(self):
        rng = rng_for(8)
        for _ in range(10):
            t = random_mixed_rank(rng, 4)
            check = verify_polar(moore_penrose(t), mp_polar_parts(t))
            assert check.ok

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            mp_polar_parts(np.zeros((2, 3)))

    def test_bitwise_equal_to_the_three_svd_construction(self):
        rng = rng_for(9)
        for t in [random_mixed_rank(rng, 5) for _ in range(5)] + [np.zeros((3, 3))]:
            parts = mp_polar_parts(t)
            direct = polar_decompose(t)
            pinv = moore_penrose(t)
            assert np.array_equal(parts.isometry, direct.isometry.conj().T)
            assert np.array_equal(parts.modulus, abs_value(pinv))
            assert parts.rank == direct.rank
            assert np.array_equal(parts.singular_values, svd(pinv).singular_values)

    def test_held_polar_parts_give_the_same_bits(self):
        # The polar parts of T, sliced from those of a stack of T and T* as
        # the mp-inverse suite holds them, stand in for U and its rank.
        rng = rng_for(10)
        t = np.stack([random_mixed_rank(rng, 5) for _ in range(4)])[:, None]
        t[1] *= 1e-3
        first = np.concatenate([t, t.conj().swapaxes(-1, -2)])
        held = polar_decompose(first)[: len(t)]
        inverse_decomp = svd(moore_penrose(t))
        expected = mp_polar_parts(t, inverse_decomp=inverse_decomp)
        parts = mp_polar_parts(t, inverse_decomp=inverse_decomp, parts=held)
        for name, value in vars(expected).items():
            assert np.array_equal(getattr(parts, name), value), name
        matrix = t[2, 0]
        alone = mp_polar_parts(matrix, parts=polar_decompose(matrix))
        for name, value in vars(mp_polar_parts(matrix)).items():
            assert np.array_equal(getattr(alone, name), value), name


class TestMpModulusIdentities:
    def test_modulus_identities_both_directions(self):
        # pinv(|T|) = |pinv(T)*| and pinv(|T*|) = |pinv(T)|.
        rng = rng_for(9)
        for _ in range(15):
            t = random_mixed_rank(rng, 5)
            pinv = moore_penrose(t)
            assert equality_residual(
                moore_penrose(abs_value(t)), abs_value(pinv.conj().T)
            ) < 1e-9
            assert equality_residual(
                moore_penrose(abs_value(t.conj().T)), abs_value(pinv)
            ) < 1e-9

    def test_gram_product_identity(self):
        # pinv(T T*) = pinv(T*) pinv(T); conditioning doubles through the
        # Gram matrix, so draw from a controlled singular spectrum.
        rng = rng_for(10)
        for i in range(15):
            t = random_spectrum_operator(rng, 4, rank=4 - (i % 2))
            pinv = moore_penrose(t)
            assert equality_residual(
                moore_penrose(t @ t.conj().T), pinv.conj().T @ pinv
            ) < 1e-9

    def test_psd_root_commutes_with_inverse(self):
        # On PSD input, pinv of the square root equals the square root of pinv.
        from polarops.core import fractional_power_psd

        rng = rng_for(11)
        q = random_unitary(rng, 4)
        a = (q * np.array([2.0, 1.0, 0.5, 0.0])) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        left = moore_penrose(fractional_power_psd(a, 0.5))
        right = fractional_power_psd(moore_penrose(a), 0.5)
        assert equality_residual(left, right) < 1e-9

    def test_hermitian_commutant_preserved(self):
        # For Hermitian T commuting with S, the inverse commutes with S too.
        rng = rng_for(12)
        q = random_unitary(rng, 4)
        t = (q * np.array([3.0, 1.0, 0.0, -2.0])) @ q.conj().T
        t = 0.5 * (t + t.conj().T)
        s = (q * np.array([1.0, 5.0, 2.0, 4.0])) @ q.conj().T
        assert np.allclose(t @ s, s @ t, atol=1e-10)
        pinv = moore_penrose(t)
        assert np.allclose(pinv @ s, s @ pinv, atol=1e-10)

    def test_range_projection_products(self):
        # T pinv(T) projects onto ran(T); pinv(T) T projects onto ran(T*).
        rng = rng_for(13)
        t = random_mixed_rank(rng, 5)
        pinv = moore_penrose(t)
        assert equality_residual(t @ pinv, range_projection(t)) < 1e-9
        assert equality_residual(pinv @ t, range_projection(t.conj().T)) < 1e-9
