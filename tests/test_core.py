"""Tests for the dense-matrix kernels and toleranced predicates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarops.core import (
    COMMUTATOR_FLOOR,
    DEFAULT_TOLERANCES,
    _JOINT_ENTRIES,
    ToleranceConfig,
    _joint_norms,
    _lapack,
    _norms,
    _psd_powers,
    approx_equal,
    as_operator,
    commutator,
    commutator_norm,
    commutes,
    equality_residual,
    fractional_power_psd,
    fro_norm,
    herm_eig,
    is_hermitian,
    is_hermitian_psd,
    numerical_rank,
    range_projection,
    rank_margin,
    svd,
)

TIGHT = 1e-12


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.rank_rel_tol == 1e-12
        assert cfg.zero_rel_tol == 1e-9
        assert cfg.equality_rel_tol == 1e-9
        assert cfg == DEFAULT_TOLERANCES

    @pytest.mark.parametrize("bad", [-1e-3, 1.0, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ToleranceConfig(zero_rel_tol=bad)


class TestAsOperator:
    def test_coerces_to_complex128(self):
        out = as_operator([[1, 2], [3, 4]])
        assert out.dtype == np.complex128
        assert out.shape == (2, 2)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2))])
    def test_rejects_wrong_ndim(self, bad):
        with pytest.raises(ValueError):
            as_operator(bad)

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            as_operator(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_operator(np.array([[1.0, np.inf], [0.0, 0.0]]))


def _fro_norm_cases() -> list:
    rng = rng_for(7)
    square = random_complex(rng, 9, 9)
    stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    return [
        square,
        random_complex(rng, 4, 7),
        stack,
        stack[1:4],
        square.T,
        square.conj(),
        square.conj().T,
        stack.conj().swapaxes(-1, -2),
        square[::2, 1::3],
        np.zeros((3, 3), dtype=complex),
        1e-200 * square,
        rng.standard_normal((6, 5)),
        np.arange(-6, 6).reshape(3, 4),
        square.astype(np.complex64).T,
        stack.real.astype(np.float32),
    ]


@pytest.mark.parametrize("a", _fro_norm_cases())
def test_fro_norm_is_bitwise_numpy_norm(a):
    expected = float(np.linalg.norm(a))
    assert type(fro_norm(a)) is float
    assert np.float64(fro_norm(a)).tobytes() == np.float64(expected).tobytes()


def _strided_stacks() -> list:
    """Stacks of operators whose operators are not C-ordered complex128
    arrays: strided (their rows of entries are no contiguous view),
    transposed, conjugate-transposed, real, and of single precision."""
    rng = rng_for(11)
    x = rng.standard_normal((40, 3, 7, 7)) + 1j * rng.standard_normal((40, 3, 7, 7))
    column = random_complex(rng, 6, 6)[:, :1]
    return [
        np.ones((3, 4, 2, 2), dtype=complex)[..., ::2],
        column[None, None],
        x[:, :, ::2, 1::3],
        x.swapaxes(-1, -2),
        x.conj().swapaxes(-1, -2),
        x[:, :1].swapaxes(-1, -2),
        x.transpose(0, 3, 1, 2),
        x.real.copy(),
        x.astype(np.complex64).swapaxes(-1, -2),
        x.real.astype(np.float32),
    ]


@pytest.mark.parametrize("stack", _strided_stacks())
def test_fro_norm_of_a_stack_is_bitwise_each_operators_norm(stack):
    norms = fro_norm(stack)
    assert norms.shape == (len(stack),)
    for norm, operator in zip(norms, stack):
        expected = np.float64(np.linalg.norm(operator)).tobytes()
        assert np.float64(norm).tobytes() == expected
        assert np.float64(fro_norm(operator)).tobytes() == expected


def _layout(x: np.ndarray, kind: int) -> np.ndarray:
    """``x`` as a stack of its shape in one of five memory layouts:
    C-ordered, the conjugate transpose of a C-ordered stack, every other
    row and column of a larger stack, its operator axis reversed, and one
    operator broadcast to every place of the stack."""
    if kind == 1:
        return np.ascontiguousarray(x.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
    if kind == 2:
        wide = np.zeros(x.shape[:-2] + (2 * x.shape[-2], 2 * x.shape[-1]), dtype=x.dtype)
        wide[..., ::2, ::2] = x
        return wide[..., ::2, ::2]
    if kind == 3:
        return np.ascontiguousarray(x[::-1])[::-1]
    if kind == 4:
        return np.broadcast_to(x[:1], x.shape)
    return x


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(
        st.integers(1, 5), st.integers(1, 3), st.integers(1, 40), st.integers(1, 40)
    ),
    kinds=st.lists(st.integers(0, 4), min_size=1, max_size=6),
)
def test_joint_norms_are_bitwise_the_norms_of_each_stack(seed, shape, kinds):
    # Small and large stacks, square and rectangular: the joint pass of
    # the stacks at or below _JOINT_ENTRIES entries, and one pass each
    # above, give each operator bitwise its own norm; so does a stack
    # formed from them (form=, as for a residual's difference).
    rng = rng_for(seed)
    stacks = [
        _layout(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), kind)
        for kind in kinds
    ]
    cases = [(_joint_norms(*stacks), stacks)]
    if len(stacks) > 1:
        formed = _joint_norms(*stacks[:2], form=np.subtract)
        cases.append((formed, [stacks[0] - stacks[1], *stacks[:2]]))
    for joint, normed in cases:
        assert len(joint) == len(normed)
        for norms, x in zip(joint, normed):
            assert norms.shape == shape[:1]
            assert norms.tobytes() == _norms(x).tobytes()
            expected = np.array([np.linalg.norm(operator) for operator in x])
            assert norms.tobytes() == expected.tobytes()


def test_joint_norms_cover_both_sides_of_the_size_rule():
    rng = rng_for(3)
    for size in (_JOINT_ENTRIES, _JOINT_ENTRIES + 1):
        x = rng.standard_normal((1, 1, 1, size)) + 1j * rng.standard_normal((1, 1, 1, size))
        joint = _joint_norms(x, x.conj(), 2 * x)
        # A joint pass returns one array of all the stacks' norms.
        assert isinstance(joint, np.ndarray) == (size <= _JOINT_ENTRIES)
        assert [norms.tobytes() for norms in joint] == [
            _norms(y).tobytes() for y in (x, x.conj(), 2 * x)
        ]


class TestCommutator:
    def test_identity_commutes_with_anything(self):
        b = random_complex(rng_for(0), 4, 4)
        assert fro_norm(commutator(np.eye(4), b)) == 0.0

    def test_diagonal_matrices_commute(self):
        out = commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.all(out == 0)

    def test_products_of_upper_triangular_with_adjoint(self):
        # [T*T, TT*] for T = [[1,1],[0,1]] in closed form.
        t = np.array([[1, 1], [0, 1]], dtype=complex)
        out = commutator(t.conj().T @ t, t @ t.conj().T)
        expected = np.array([[0, -2], [2, 0]], dtype=complex)
        assert np.allclose(out, expected, atol=TIGHT)
        assert commutator_norm(t.conj().T @ t, t @ t.conj().T) == pytest.approx(
            np.sqrt(8.0)
        )

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            commutator(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))

    def test_commutes_floor_for_tiny_operators(self):
        # Scaled-down non-commuting pair: the commutator norm falls under the
        # absolute floor, so the pair counts as commuting.
        a = 1e-8 * np.array([[0, 1], [0, 0]], dtype=complex)
        b = 1e-8 * np.array([[0, 0], [1, 0]], dtype=complex)
        assert commutator_norm(a, b) < COMMUTATOR_FLOOR
        assert commutes(a, b)
        assert not commutes(1e4 * a, 1e4 * b)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 6))
    def test_antisymmetry(self, seed, dim):
        rng = rng_for(seed)
        a = random_complex(rng, dim, dim)
        b = random_complex(rng, dim, dim)
        assert np.allclose(commutator(a, b), -commutator(b, a), atol=TIGHT)


class TestSvdAndRank:
    def test_svd_reconstructs(self):
        t = random_complex(rng_for(1), 5, 3)
        out = svd(t)
        rebuilt = (out.left_vectors * out.singular_values) @ out.right_vectors.conj().T
        assert np.allclose(rebuilt, t, atol=TIGHT)

    def test_numerical_rank_basic(self):
        assert numerical_rank(np.array([3.0, 0.0])) == 1
        assert numerical_rank(np.array([0.0, 0.0])) == 0
        assert numerical_rank(np.array([])) == 0

    def test_numerical_rank_cutoff(self):
        assert numerical_rank(np.array([1.0, 5e-13])) == 1
        assert numerical_rank(np.array([1.0, 5e-12])) == 2

    def test_rank_margin(self):
        assert rank_margin(np.array([2.0, 1.0])) == pytest.approx(0.5)
        assert rank_margin(np.array([0.0])) == np.inf
        assert rank_margin(np.array([1.0, 5e-13])) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["svd", "eigh", "eigvalsh"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.nan)])
    def test_lapack_rejects_entries_that_are_not_finite(self, name, bad):
        # A stack of two operators of two blocks; one entry of one block bad.
        stack = np.tile(np.eye(3, dtype=complex), (2, 2, 1, 1))
        stack[1, 0, 2, 1] = bad
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            _lapack(name, stack)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_rank_bounded_by_min_dim(self, seed, rows, cols):
        t = random_complex(rng_for(seed), rows, cols)
        assert numerical_rank(svd(t).singular_values) <= min(rows, cols)


class TestHermitian:
    def test_is_hermitian(self):
        assert is_hermitian(np.array([[1.0, 1j], [-1j, 2.0]]))
        assert not is_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not is_hermitian(np.zeros((2, 3)))

    def test_is_hermitian_psd(self):
        assert is_hermitian_psd(np.diag([2.0, 0.0]))
        assert not is_hermitian_psd(np.diag([2.0, -1.0]))
        assert not is_hermitian_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_herm_eig_sorted_ascending(self):
        out = herm_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(out.eigenvalues, [1.0, 2.0, 3.0])
        rebuilt = (out.eigenvectors * out.eigenvalues) @ out.eigenvectors.conj().T
        assert np.allclose(rebuilt, np.diag([3.0, 1.0, 2.0]), atol=TIGHT)

    def test_herm_eig_rejects_rectangular(self):
        with pytest.raises(ValueError):
            herm_eig(np.zeros((2, 3)))


class TestFractionalPower:
    def test_square_root_of_diagonal(self):
        out = fractional_power_psd(np.diag([4.0, 9.0]), 0.5)
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=TIGHT)

    def test_identity_power(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        assert np.allclose(fractional_power_psd(a, 1.0), a, atol=TIGHT)

    def test_scalar_power_with_zero_eigenvalue(self):
        out = fractional_power_psd(np.diag([0.0, 2.0]), 0.3)
        assert np.allclose(out, np.diag([0.0, 2.0**0.3]), atol=TIGHT)

    def test_square_root_squares_back(self):
        rng = rng_for(2)
        q = np.linalg.qr(random_complex(rng, 4, 4))[0]
        a = (q * rng.uniform(0.0, 3.0, size=4)) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        root = fractional_power_psd(a, 0.5)
        assert np.allclose(root @ root, a, atol=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fractional_power_psd(np.diag([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            fractional_power_psd(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)
        with pytest.raises(ValueError):
            fractional_power_psd(np.diag([1.0, -1.0]), 0.5)


def _reference_fractional_power(a, alpha):
    """``fractional_power_psd`` as first written, one eigh per power, for
    valid input."""
    a = as_operator(a)
    eig = herm_eig(0.5 * (a + a.conj().T))
    values = eig.eigenvalues.copy()
    lam_max = float(values[-1]) if values.size else 0.0
    values[values <= DEFAULT_TOLERANCES.rank_rel_tol * max(lam_max, 0.0)] = 0.0
    powered = np.where(values > 0.0, values**alpha, 0.0)
    result = (eig.eigenvectors * powered) @ eig.eigenvectors.conj().T
    return 0.5 * (result + result.conj().T)


class TestPsdPowers:
    """``_psd_powers`` factors once for many exponents and must give
    ``fractional_power_psd`` bit for bit, errors included. It is a kernel:
    it takes the stack of operators ``a[None, None]`` of a matrix, and the
    boundary of ``fractional_power_psd`` alone checks finiteness."""

    EXPONENTS = (0.5, 1.0 / 3.0, 1.0, 2.0, 3.0, np.sqrt(2.0) / 2.0)

    def inputs(self):
        rng = rng_for(7)
        out = [np.diag([0.0, 2.0]), np.zeros((3, 3)), np.eye(4)]
        for d in range(2, 9):
            for rank in (d, max(1, d - 2), 1):
                x = random_complex(rng, d, rank)
                out.append(x @ x.conj().T)
        return out

    def test_bitwise_equal_to_fractional_power_psd(self):
        for a in self.inputs():
            power = _psd_powers(a[None, None], DEFAULT_TOLERANCES)
            for alpha in self.EXPONENTS:
                expected = _reference_fractional_power(a, alpha)
                assert np.array_equal(power(alpha)[0, 0], expected)
                assert np.array_equal(fractional_power_psd(a, alpha), expected)

    @pytest.mark.parametrize(
        "a, alpha, match",
        [
            (np.diag([1.0, 2.0]), 0.0, "alpha must be positive"),
            (np.diag([1.0, 2.0]), -0.5, "alpha must be positive"),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5, "Hermitian"),
            (np.zeros((2, 3)), 0.5, "Hermitian"),
            (np.diag([1.0, -1.0]), 0.5, "not PSD"),
            (np.diag([1.0, np.inf]), 0.5, "finite"),
        ],
    )
    def test_raises_the_same_errors(self, a, alpha, match):
        with pytest.raises(ValueError, match=match) as public:
            fractional_power_psd(a, alpha)
        if match == "finite":
            # The input check is the boundary's (core._boundary), not the
            # kernel's; tests/test_boundary.py covers it for every function.
            return
        with pytest.raises(ValueError, match=match) as private:
            _psd_powers(a[None, None], DEFAULT_TOLERANCES)(alpha)
        assert str(private.value) == str(public.value)


class TestRangeProjection:
    def test_zero_matrix(self):
        assert np.all(range_projection(np.zeros((3, 3))) == 0)

    def test_invertible_gives_identity(self):
        t = random_complex(rng_for(3), 4, 4)
        assert np.allclose(range_projection(t), np.eye(4), atol=1e-10)

    def test_shift_range_is_first_axis(self):
        out = range_projection(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=TIGHT)

    def test_projection_properties(self):
        t = random_complex(rng_for(4), 5, 5)
        t[:, 3:] = 0
        p = range_projection(t)
        assert np.allclose(p @ p, p, atol=1e-10)
        assert np.allclose(p, p.conj().T, atol=TIGHT)
        assert np.allclose(p @ t, t, atol=1e-10)


class TestEquality:
    def test_reflexive(self):
        a = random_complex(rng_for(5), 3, 3)
        assert approx_equal(a, a)
        assert equality_residual(a, a) == 0.0

    def test_distinguishes_scaling(self):
        assert not approx_equal(np.eye(3), 2 * np.eye(3))

    def test_below_tolerance_perturbation(self):
        a = random_complex(rng_for(6), 3, 3)
        e = np.ones((3, 3)) / 3.0
        assert approx_equal(a, a + 1e-15 * e)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            equality_residual(np.eye(2), np.eye(3))
