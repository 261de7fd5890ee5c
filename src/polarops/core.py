"""Dense complex-matrix kernels and toleranced predicates.

Everything downstream (polar decompositions, classification, the shift
generators) is built on the handful of primitives in this module: Frobenius
norms with ``max(1, .)`` scaling, a relative singular-value rank cutoff, and
eigendecomposition-based fractional powers of positive semidefinite matrices.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "COMMUTATOR_FLOOR",
    "as_operator",
    "fro_norm",
    "commutator",
    "commutator_norm",
    "commutator_threshold",
    "commutes",
    "SvdResult",
    "svd",
    "HermEigResult",
    "herm_eig",
    "herm_eigvals",
    "numerical_rank",
    "rank_margin",
    "is_hermitian",
    "is_hermitian_psd",
    "fractional_power_psd",
    "range_projection",
    "approx_equal",
    "equality_residual",
]

# Absolute floor for commutator-vanishing tests; keeps the scaled threshold
# meaningful for operators with tiny norms.
COMMUTATOR_FLOOR = 1e-14


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative thresholds used by every numerical predicate.

    ``rank_rel_tol`` decides the singular-value cutoff, ``zero_rel_tol``
    decides when commutators and residuals count as vanishing, and
    ``equality_rel_tol`` decides matrix equality. All must lie in [0, 1).
    """

    rank_rel_tol: float = 1e-12
    zero_rel_tol: float = 1e-9
    equality_rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rank_rel_tol", "zero_rel_tol", "equality_rel_tol"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {value!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


def as_operator(a) -> np.ndarray:
    """Validate and coerce input to a 2-D complex128 array.

    Raises ValueError for non-2-D input, empty axes, or non-finite entries.
    """
    return _checked(a)


def _checked(a, ndims: tuple[int, ...] = (2,), square: bool = False) -> np.ndarray:
    """``as_operator`` of a matrix or of a stack of matrices of one of
    ``ndims`` axes (the stack rule: 3 for a direct sum of blocks, 4 for a
    stack of operators); with ``square``, every matrix must be square. The
    one input check of the public functions."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim not in ndims:
        kinds = " or ".join(f"{n}-D" for n in ndims)
        raise ValueError(f"operator must be {kinds}, got shape {arr.shape}")
    if 0 in arr.shape:
        raise ValueError(f"operator axes must be nonempty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("operator entries must be finite")
    if square and arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square operator, got {arr.shape}")
    return arr


def fro_norm(a):
    """Frobenius norm; for an ``(..., m, n)`` stack of three axes, that of
    its direct sum; for a stack of four, ``(operators, blocks, m, n)``, an
    array of the norms of its operators, each the direct sum of its blocks.
    A complex128 array takes the steps of ``numpy.linalg.norm`` without its
    generic wrapper: the entries in memory order, the dot products of their
    real and imaginary parts, and the square root of the sum, so the result
    is bitwise that of ``norm(a)``. Other dtypes go to ``norm`` itself. A
    stack of operators takes each operator's entries in row-major order and
    forms its two dot products as a ``(1, k) @ (k, 1)`` matmul, which is
    bitwise the dot product of that operator alone."""
    a = np.asarray(a)
    if a.ndim == 4:
        # (operators, 2, 1, k): the real parts, then the imaginary parts.
        x = a.astype(np.complex128, copy=False).reshape(len(a), -1)
        parts = x.view(np.float64).reshape(len(a), -1, 2).swapaxes(1, 2)[:, :, None]
        squares = (parts @ _adjoint(parts))[..., 0, 0]
        return np.sqrt(squares[:, 0] + squares[:, 1])
    if a.dtype != np.complex128:
        return float(np.linalg.norm(a))
    x = a.ravel(order="K")
    return _dot_norm(x.real, x.imag)


def _dot_norm(re: np.ndarray, im: np.ndarray) -> float:
    """The square root of the sum of the dot products of ``re`` and ``im``
    with themselves: the last step of ``fro_norm``."""
    return math.sqrt(re.dot(re) + im.dot(im))


def _span_norms(rows: np.ndarray, sizes: list[int]) -> np.ndarray:
    """``fro_norm`` of consecutive spans of ``sizes`` entries of each row
    of a 2-D complex128 array, as an array ``(rows, spans)``. Each span takes
    the steps of ``fro_norm`` on views of the row's real and imaginary parts,
    which hold its entries in the order and with the strides of the span's
    own, so each norm is bitwise that of the span alone, without a call of
    ``fro_norm`` per span."""
    bounds = list(pairwise(accumulate(sizes, initial=0)))
    return np.array(
        [
            [_dot_norm(re[lo:hi], im[lo:hi]) for lo, hi in bounds]
            for re, im in zip(rows.real, rows.imag)
        ]
    )


def _floor_one(*norms):
    """``max(1, *norms)``; for norms of the operators of a stack (arrays), one
    value per operator."""
    if isinstance(norms[0], np.ndarray):
        top = np.maximum(norms[0], 1.0)
        for norm in norms[1:]:
            top = np.maximum(top, norm)
        return top
    return max(1.0, *norms)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _same_square(a, b, ndims: tuple[int, ...] = (2, 3, 4)):
    """``_checked`` of two square operators, or stacks, of one shape."""
    a, b = _checked(a, ndims), _checked(b, ndims)
    if a.shape[-1] != a.shape[-2] or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"expected square operators, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def commutator(a, b) -> np.ndarray:
    """Return ``a @ b - b @ a`` for square operators of equal dimension, or
    for each pair of matrices of two stacks of one shape."""
    a, b = _same_square(a, b)
    return a @ b - b @ a


def commutator_norm(a, b) -> float:
    return fro_norm(commutator(a, b))


def commutator_threshold(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Largest commutator norm that counts as vanishing. It scales with both
    operand norms and is floored at ``COMMUTATOR_FLOOR`` so that operators
    of tiny norm still count as commuting. Stacks of three axes count as
    direct sums; stacks of operators get one threshold per operator."""
    return _threshold(fro_norm(a), fro_norm(b), cfg)


def _threshold(a_norm, b_norm, cfg: ToleranceConfig):
    """``commutator_threshold`` of operands with the norms ``a_norm`` and
    ``b_norm``, floats or arrays (one threshold per entry)."""
    bound = cfg.zero_rel_tol * a_norm * b_norm
    if isinstance(bound, np.ndarray):
        return np.maximum(bound, COMMUTATOR_FLOOR)
    return max(bound, COMMUTATOR_FLOOR)


def commutes(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Toleranced commutator-vanishing test against :func:`commutator_threshold`;
    for two stacks of operators, one verdict per operator."""
    a, b = _same_square(a, b)
    return fro_norm(a @ b - b @ a) <= commutator_threshold(a, b, cfg)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = left @ diag(s) @ right*`` with orthonormal columns.
    The SVD of a stack holds stacks; indexing it takes the SVDs of the
    matrices (or operators) ``index`` of the stack."""

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    def __getitem__(self, index) -> SvdResult:
        return SvdResult(*(x[index] for x in vars(self).values()))


def _svd(a: np.ndarray) -> SvdResult:
    """``svd`` of a checked array, or of each matrix of an ``(..., m, n)``
    stack, without validation."""
    left, s, right_h = np.linalg.svd(a, full_matrices=False)
    return SvdResult(left, s, _adjoint(right_h))


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a Hermitian array or of each matrix of a
    stack, without validation."""
    return np.linalg.eigvalsh(a)


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization of a checked array, without validation."""
    return np.linalg.qr(a)


def svd(a) -> SvdResult:
    """Thin SVD of a matrix, or of each matrix of a stack."""
    return _svd(_checked(a, (2, 3, 4)))


def _modulus(decomp: SvdResult) -> np.ndarray:
    """``X diag(s) X*`` from the SVD ``t = W diag(s) X*``: the modulus ``|t|``."""
    x = decomp.right_vectors
    result = (x * decomp.singular_values[..., None, :]) @ _adjoint(x)
    return 0.5 * (result + _adjoint(result))


def _isometry(decomp: SvdResult, r) -> np.ndarray:
    """``W_r X_r*`` from the SVD ``t = W diag(s) X*`` of rank ``r`` (one
    rank per matrix of a stack, from ``_rank``): the canonical polar factor
    of ``t``."""
    return _leading_product(decomp.left_vectors, decomp.right_vectors, r)


@dataclass(frozen=True)
class HermEigResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a) -> HermEigResult:
    values, vectors = np.linalg.eigh(_checked(a, square=True))
    return HermEigResult(values, vectors)


def herm_eigvals(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending."""
    return _eigvalsh(_checked(a, square=True))


def numerical_rank(s, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Count singular values above the relative cutoff.

    ``s`` must be nonincreasing and nonnegative. Returns 0 for an all-zero
    spectrum; the cutoff is ``rank_rel_tol * s[0]`` otherwise.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > cfg.rank_rel_tol * s[0]))


def _rank(s: np.ndarray, cfg: ToleranceConfig):
    """``numerical_rank`` of one spectrum. For the spectra of a stack, one
    rank per matrix, each with the cutoff of its operator: ``rank_rel_tol``
    times the largest singular value of the whole stack of three axes, or
    of each operator of a stack of four."""
    if s.ndim == 1:
        return numerical_rank(s, cfg)
    if s.ndim == 2:
        return np.count_nonzero(s > cfg.rank_rel_tol * s.max(), axis=-1)
    top = s.reshape(len(s), -1).max(axis=-1)
    return (s > cfg.rank_rel_tol * top[:, None, None]).sum(axis=-1)


def _leading(vectors: np.ndarray, r) -> np.ndarray:
    """The first ``r`` columns of ``vectors``. For a stack, ``r`` holds one
    rank per matrix: the columns are sliced to the largest rank and zeroed
    past each matrix's own rank inside that slice. Slicing first keeps a
    product over matrices of one shared rank bitwise equal to the
    per-matrix slices; a mask over all columns would change the inner
    dimension of the product, and with it the last bits."""
    if vectors.ndim == 2:
        return vectors[:, :r]
    top = int(r.max())
    keep = np.arange(top) < r[..., None]
    return vectors[..., :top] * keep[..., None, :]


def _leading_product(left: np.ndarray, right: np.ndarray | None, r) -> np.ndarray:
    """``L_r R_r*``, with ``L_r`` the first ``r`` columns of ``left`` and
    ``R_r`` those of ``right`` (``_leading``); with ``right`` None, ``R_r``
    is ``L_r`` itself, masked alike. A stack of operators is split into
    subgroups of one largest rank per operator, and each subgroup is sliced
    to its own rank as ``_leading`` slices one operator, so that a matrix of
    rank ``r`` gets the product it gets alone, bitwise."""
    if left.ndim == 4:
        top = r.max(axis=-1)
        ranks = set(top.tolist())
        if len(ranks) > 1:
            columns = left if right is None else right
            out = np.empty(left.shape[:-1] + columns.shape[-2:-1], dtype=np.complex128)
            for rank in ranks:
                (members,) = np.nonzero(top == rank)
                w = _leading(left[members], r[members])
                x = w if right is None else right[members][..., :rank]
                out[members] = w @ _adjoint(x)
            return out
    w = _leading(left, r)
    x = w if right is None else right[..., : w.shape[-1]]
    return w @ _adjoint(x)


def rank_margin(s, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Rank-decision margin ``s[r-1] / s[0]`` for numerical rank r.

    Returns ``inf`` when the rank is zero (no decision to make). Rank
    decisions are considered reliable when the margin exceeds ten times
    ``rank_rel_tol``.
    """
    s = np.asarray(s, dtype=np.float64)
    r = numerical_rank(s, cfg)
    if r == 0:
        return float("inf")
    return float(s[r - 1] / s[0])


def is_hermitian(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Whether ``a`` equals its adjoint within tolerance; for a stack of
    operators, one verdict per operator."""
    a = _checked(a, (2, 4))
    if a.shape[-1] != a.shape[-2]:
        return np.zeros(len(a), dtype=bool) if a.ndim == 4 else False
    return fro_norm(a - _adjoint(a)) <= cfg.equality_rel_tol * _floor_one(fro_norm(a))


def is_hermitian_psd(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """True iff ``a`` is Hermitian within tolerance with spectrum >= -tol.
    A stack of operators gets one verdict per operator, and only its
    Hermitian operators are factored."""
    a = _checked(a, (2, 4))
    verdicts = np.atleast_1d(is_hermitian(a, cfg))
    stack = a if a.ndim == 4 else a[None, None]
    if verdicts.any():
        h = stack[verdicts]
        values = _eigvalsh(0.5 * (h + _adjoint(h)))
        scale = _floor_one(values[..., -1].max(axis=-1))
        verdicts[verdicts] = values[..., 0].min(axis=-1) >= -cfg.zero_rel_tol * scale
    return verdicts if a.ndim == 4 else bool(verdicts[0])


def fractional_power_psd(
    a, alpha: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Power ``a**alpha`` of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues below the rank cutoff are clamped to zero before powering,
    so small negative round-off cannot blow up and the range of the result
    equals the range of ``a`` for every ``alpha > 0``.

    Raises ValueError for ``alpha <= 0``, non-Hermitian input, or an
    eigenvalue below the negativity tolerance.
    """
    a = as_operator(a)
    _require_positive(alpha)
    return _psd_powers(a, cfg)(alpha)


def _require_positive(alpha: float) -> None:
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")


def _psd_powers(a, cfg: ToleranceConfig):
    """``alpha -> fractional_power_psd(a, alpha)`` from one validation, one
    ``eigh`` and one rank clamp of ``a``; each power is bitwise equal to
    that of ``fractional_power_psd``, which wraps this. A stack of operators
    gets one Hermitian test, negativity tolerance and rank cutoff per
    operator, and raises if any operator fails its test."""
    if np.ndim(a) < 4:
        a = as_operator(a)
    if a.shape[-1] != a.shape[-2] or not np.all(
        fro_norm(a - _adjoint(a)) <= cfg.equality_rel_tol * _floor_one(fro_norm(a))
    ):
        raise ValueError("fractional powers require a Hermitian input")
    values, vectors = np.linalg.eigh(0.5 * (a + _adjoint(a)))
    if a.ndim == 4:
        lam_max = values[..., -1].max(axis=-1)[:, None, None]
        smallest = values[..., 0].min()
    else:
        lam_max, smallest = float(values[-1]), values[0]
    neg_tol = cfg.zero_rel_tol * _floor_one(abs(lam_max))
    if np.any(values[..., :1] < -neg_tol):
        raise ValueError(f"input is not PSD: smallest eigenvalue {smallest:.3e}")
    cutoff = cfg.rank_rel_tol * np.maximum(lam_max, 0.0)
    values[values <= cutoff] = 0.0

    def power(alpha: float) -> np.ndarray:
        _require_positive(alpha)
        powered = np.where(values > 0.0, values**alpha, 0.0)
        result = (vectors * powered[..., None, :]) @ _adjoint(vectors)
        # The exact result is Hermitian; re-symmetrize to kill round-off drift.
        return 0.5 * (result + _adjoint(result))

    return power


def _range_projection(t: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """``range_projection`` of a checked array, of the direct sum of a
    stack, or of each operator of a stack of operators; one projection per
    matrix, with the rank cutoffs of ``_rank``."""
    decomp = _svd(t)
    p = _leading_product(decomp.left_vectors, None, _rank(decomp.singular_values, cfg))
    return 0.5 * (p + _adjoint(p))


def range_projection(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthogonal projection onto the numerical range (column space) of
    ``t``; for a stack, that of ``_range_projection``."""
    return _range_projection(_checked(t, (2, 3, 4)), cfg)


def equality_residual(a, b):
    """Frobenius distance scaled by ``max(1, |a|, |b|)``; for stacks, that
    of ``_residual``."""
    a, b = _checked(a, (2, 3, 4)), _checked(b, (2, 3, 4))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _residual(a, b)


def _residual(a: np.ndarray, b: np.ndarray):
    """``equality_residual`` of checked arrays, or of the direct sums of two
    stacks of the same shape, or of each pair of operators of two stacks of
    operators (one residual each)."""
    if a.ndim == 4:
        # One fro_norm pass over the three stacks, one norm per operator.
        norms = fro_norm(np.concatenate([a - b, a, b])).reshape(3, -1)
        return norms[0] / _floor_one(norms[1], norms[2])
    return fro_norm(a - b) / _floor_one(fro_norm(a), fro_norm(b))


def approx_equal(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True iff ``|a - b|_F <= equality_rel_tol * max(1, |a|_F, |b|_F)``."""
    return equality_residual(a, b) <= cfg.equality_rel_tol
