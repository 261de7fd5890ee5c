"""Dense complex-matrix kernels and toleranced predicates.

Everything downstream (polar decompositions, classification, the shift
generators) is built on the handful of primitives in this module: Frobenius
norms with ``max(1, .)`` scaling, a relative singular-value rank cutoff, and
eigendecomposition-based fractional powers of positive semidefinite matrices.
All functions are pure and safe for concurrent use.

One path: the kernels take stacks of operators ``(..., blocks, m, n)`` only,
each operator the direct sum of its blocks, and reduce over its last three
axes. A public function checks its input (``_checked``), takes it into such
a stack on entry (``_stacked``) and gives the result back on exit
(``_unstacked``); only these three look at how many axes an input has.
"""

from __future__ import annotations

import functools
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


def _checked(
    a, ndims: tuple[int, ...] = (2,), square: bool = False, finite: bool = True
) -> np.ndarray:
    """``as_operator`` of a matrix or of a stack of matrices of one of
    ``ndims`` axes (the stack rule: 3 for a direct sum of blocks, 4 for a
    stack of operators); with ``square``, every matrix must be square. The
    one input check of the public functions. Without ``finite``, the
    caller checks finiteness itself (``_require_finite``)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim not in ndims:
        kinds = " or ".join(f"{n}-D" for n in ndims)
        raise ValueError(f"operator must be {kinds}, got shape {arr.shape}")
    if 0 in arr.shape:
        raise ValueError(f"operator axes must be nonempty, got shape {arr.shape}")
    if finite:
        _require_finite(arr)
    if square and arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square operator, got {arr.shape}")
    return arr


def _require_finite(arr: np.ndarray) -> None:
    """Raise the ``_checked`` error unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise ValueError("operator entries must be finite")


def _stacked(arr: np.ndarray, *held):
    """Entry: a matrix as the stack of operators ``(1, 1, m, n)``, a 3-D
    direct sum as ``(1, blocks, m, n)``, a 4-D stack as itself, more axes
    as one operator (``fro_norm``); the number ``lead`` of axes put in
    front; and the arrays of what a caller holds (``held``) lifted alike."""
    if arr.ndim > 4:
        arr = arr.ravel(order="K")
    lift = (None,) * (4 - arr.ndim)
    return arr[lift], len(lift), *[_lifted(value, lift) for value in held]


def _lifted(value, lift: tuple):
    """``value[lift]`` of an array, a dataclass field by field, anything
    else (None) as it is."""
    if hasattr(value, "__dataclass_fields__"):
        return type(value)(*(_lifted(x, lift) for x in vars(value).values()))
    return value[lift] if hasattr(value, "ndim") else value


def _unstacked(value, lead: int):
    """Exit: ``value`` as it is for a stack of operators (``lead`` 0), else
    its one operator's: the first of a list or of an array of one value per
    operator (a Python scalar), arrays without the ``lead`` axes in front,
    and a dataclass field by field; anything else as it is."""
    ndim = getattr(value, "ndim", None)
    if lead and ndim is not None:
        own = value[(0,) * min(ndim, lead)]
        return own.item() if own.ndim == 0 else own
    if lead and type(value) is list:
        return value[0]
    if lead and hasattr(value, "__dataclass_fields__"):
        return type(value)(*(_unstacked(x, lead) for x in vars(value).values()))
    return value


def fro_norm(a):
    """Frobenius norm; for an ``(..., m, n)`` stack of three axes, that of
    its direct sum; for a stack of four, ``(operators, blocks, m, n)``, an
    array of the norms of its operators. Each norm is bitwise
    ``numpy.linalg.norm`` of its operator alone, whatever its layout, in
    its precision (integer and boolean input as float64)."""
    x, lead = _entries(a)
    return _unstacked(_norms(x), lead)


def _entries(a) -> tuple[np.ndarray, int]:
    """``_stacked`` of unchecked input, integer and boolean input as float64."""
    arr = np.asarray(a)
    return _stacked(arr if arr.dtype.kind in "fc" else arr.astype(float))


def _rows(x: np.ndarray) -> np.ndarray:
    """Each operator's entries in memory order, as ``ravel(order="K")``
    takes them (axes by stride, each in index order), as ``(..., 1, k)``."""
    if not x.flags.c_contiguous:
        # A stable sort of the three axes by decreasing stride.
        for i, j in ((-3, -2), (-2, -1), (-3, -2)):
            if abs(x.strides[i]) < abs(x.strides[j]):
                x = x.swapaxes(i, j)
        x = np.ascontiguousarray(x)
    return x.reshape(x.shape[:-3] + (1, -1))


def _norms(x: np.ndarray) -> np.ndarray:
    """The norm of each operator of a stack, by ``numpy.linalg.norm``'s
    steps: the dots of the real and imaginary parts of its ``_rows``, each a
    ``(1, k) @ (k, 1)`` matmul (bitwise that dot), and the root of the sum."""
    rows = _rows(x)
    re, im = rows.real, rows.imag
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


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


def _dot_norm(re: np.ndarray, im: np.ndarray) -> float:
    """The square root of the sum of the dot products of ``re`` and ``im``
    with themselves: the last steps of ``numpy.linalg.norm``, as ``_norms``
    takes them for a whole operator."""
    return math.sqrt(re.dot(re) + im.dot(im))


def _floor_one(*norms):
    """``max(1, *norms)``, one value per entry of the arrays ``norms``."""
    return functools.reduce(np.maximum, norms, 1.0)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _same_square(a, b, ndims: tuple[int, ...] = (2, 3, 4)):
    """``_stacked`` of two checked square operators, or stacks, of one shape:
    ``(a, lead, b)``."""
    a, b = _checked(a, ndims), _checked(b, ndims)
    if a.shape[-1] != a.shape[-2] or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"expected square operators, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _stacked(a, b)


def commutator(a, b) -> np.ndarray:
    """Return ``a @ b - b @ a`` for square operators of equal dimension, or
    for each pair of matrices of two stacks of one shape."""
    x, lead, y = _same_square(a, b)
    return _unstacked(x @ y - y @ x, lead)


def commutator_norm(a, b) -> float:
    x, lead, y = _same_square(a, b)
    return _unstacked(_norms(x @ y - y @ x), lead)


def commutator_threshold(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Largest commutator norm that counts as vanishing. It scales with both
    operand norms and is floored at ``COMMUTATOR_FLOOR`` so that operators
    of tiny norm still count as commuting. Stacks of three axes count as
    direct sums; stacks of operators get one threshold per operator."""
    (x, lead), (y, other) = _entries(a), _entries(b)
    return _unstacked(_threshold(_norms(x), _norms(y), cfg), min(lead, other))


def _threshold(a_norm, b_norm, cfg: ToleranceConfig):
    """``commutator_threshold`` of operands with the norms ``a_norm`` and
    ``b_norm``, one threshold per entry."""
    return np.maximum(cfg.zero_rel_tol * a_norm * b_norm, COMMUTATOR_FLOOR)


def _commutator_test(a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig):
    """The norm of ``[a, b]`` and whether it vanishes against
    ``commutator_threshold``, for each operator of two stacks."""
    norm = _norms(a @ b - b @ a)
    return norm, norm <= _threshold(_norms(a), _norms(b), cfg)


def commutes(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Toleranced commutator-vanishing test against :func:`commutator_threshold`;
    for two stacks of operators, one verdict per operator."""
    x, lead, y = _same_square(a, b)
    return _unstacked(_commutator_test(x, y, cfg)[1], lead)


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


def _lapack(name: str, a: np.ndarray, **kwargs) -> list[np.ndarray]:
    """``numpy.linalg.<name>``, looked up at call time, of each matrix of
    the stack ``a``, passed as one 3-D stack whatever its leading axes; the
    results shaped back as ``a``. A stack with an entry that is not finite
    (a power that overflowed, say) raises ``numpy.linalg.LinAlgError``
    before LAPACK sees it: its routines may not return on such input."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError(f"{name} of a matrix with entries that are not finite")
    lead = a.shape[:-2]
    out = getattr(np.linalg, name)(a.reshape((-1,) + a.shape[-2:]), **kwargs)
    parts = out if isinstance(out, tuple) else (out,)
    return [x.reshape(lead + x.shape[1:]) for x in parts]


def _svd(a: np.ndarray) -> SvdResult:
    """``svd`` of each matrix of a stack, without validation."""
    left, s, right_h = _lapack("svd", a, full_matrices=False)
    return SvdResult(left, s, _adjoint(right_h))


def svd(a) -> SvdResult:
    """Thin SVD of a matrix, or of each matrix of a stack."""
    x, lead = _stacked(_checked(a, (2, 3, 4)))
    return _unstacked(_svd(x), lead)


def _modulus(decomp: SvdResult) -> np.ndarray:
    """``X diag(s) X*`` from the SVD ``t = W diag(s) X*``: the modulus ``|t|``."""
    x = decomp.right_vectors
    result = (x * decomp.singular_values[..., None, :]) @ _adjoint(x)
    return 0.5 * (result + _adjoint(result))


def _isometry(decomp: SvdResult, r: np.ndarray) -> np.ndarray:
    """``W_r X_r*`` from the SVD ``t = W diag(s) X*`` of a stack, with one
    rank per matrix (from ``_rank``): the canonical polar factor of ``t``."""
    return _leading_product(decomp.left_vectors, decomp.right_vectors, r)


@dataclass(frozen=True)
class HermEigResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a) -> HermEigResult:
    x, lead = _stacked(_checked(a, square=True))
    return _unstacked(HermEigResult(*_lapack("eigh", x)), lead)


def numerical_rank(s, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Count singular values above the relative cutoff.

    ``s`` must be nonincreasing and nonnegative. Returns 0 for an all-zero
    spectrum; the cutoff is ``rank_rel_tol * s[0]`` otherwise.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > cfg.rank_rel_tol * s[0]))


def _rank(s: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """``numerical_rank`` of each spectrum of the matrices of a stack of
    operators ``(..., blocks, k)``, each with the cutoff of its operator:
    ``rank_rel_tol`` times the largest singular value of its direct sum."""
    top = np.maximum.reduce(s, axis=(-2, -1), keepdims=True)
    return np.add.reduce(s > cfg.rank_rel_tol * top, axis=-1)


def _leading_product(left: np.ndarray, right: np.ndarray | None, r) -> np.ndarray:
    """``L_r R_r*``, with ``L_r`` the first ``r`` columns of ``left`` and
    ``R_r`` those of ``right`` (or ``L_r``, for None), ``r`` one rank per
    matrix. Each subgroup of one largest rank per operator is sliced to it,
    and a matrix of lower rank zeroed past its own, so that each matrix
    gets bitwise its product alone (a mask over all columns would not)."""
    top = np.maximum.reduce(r, axis=-1)
    ranks = set(top.tolist())
    if len(ranks) > 1:
        columns = left if right is None else right
        out = np.empty(left.shape[:-1] + columns.shape[-2:-1], dtype=np.complex128)
        for rank in ranks:
            (members,) = np.nonzero(top == rank)
            out[members] = _leading_product(
                left[members], None if right is None else right[members], r[members]
            )
        return out
    (rank,) = ranks
    w = left[..., :rank]
    if np.minimum.reduce(r, axis=None) < rank:
        w = w * (np.arange(rank) < r[..., None])[..., None, :]
    x = w if right is None else right[..., :rank]
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


def _hermitian(x: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """``is_hermitian`` of each operator of a stack of operators."""
    if x.shape[-1] != x.shape[-2]:
        return np.zeros(x.shape[:-3], dtype=bool)
    return _norms(x - _adjoint(x)) <= cfg.equality_rel_tol * _floor_one(_norms(x))


def is_hermitian(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Whether ``a`` equals its adjoint within tolerance; for a stack of
    operators, one verdict per operator."""
    x, lead = _stacked(_checked(a, (2, 4)))
    return _unstacked(_hermitian(x, cfg), lead)


def is_hermitian_psd(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """True iff ``a`` is Hermitian within tolerance with spectrum >= -tol.
    A stack of operators gets one verdict per operator, and only its
    Hermitian operators are factored."""
    x, lead = _stacked(_checked(a, (2, 4)))
    verdicts = _hermitian(x, cfg)
    if verdicts.any():
        h = x[verdicts]
        (values,) = _lapack("eigvalsh", 0.5 * (h + _adjoint(h)))
        scale = _floor_one(values[..., -1].max(axis=-1))
        verdicts[verdicts] = values[..., 0].min(axis=-1) >= -cfg.zero_rel_tol * scale
    return _unstacked(verdicts, lead)


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
    """``alpha -> fractional_power_psd(a, alpha)`` of a matrix, or of each
    operator of a stack, from one validation, ``eigh`` and rank clamp, with
    each operator's own Hermitian test, negativity tolerance and cutoff;
    a stack raises if any operator fails its test."""
    x, lead = _stacked(_checked(a, (2, 4)))
    if not _hermitian(x, cfg).all():
        raise ValueError("fractional powers require a Hermitian input")
    values, vectors = _lapack("eigh", 0.5 * (x + _adjoint(x)))
    lam_max = values[..., -1].max(axis=-1)[..., None, None]
    neg_tol = cfg.zero_rel_tol * _floor_one(abs(lam_max))
    if np.any(values[..., :1] < -neg_tol):
        raise ValueError(f"input is not PSD: smallest eigenvalue {values.min():.3e}")
    cutoff = cfg.rank_rel_tol * np.maximum(lam_max, 0.0)
    values[values <= cutoff] = 0.0

    def power(alpha: float) -> np.ndarray:
        _require_positive(alpha)
        powered = np.where(values > 0.0, values**alpha, 0.0)
        result = (vectors * powered[..., None, :]) @ _adjoint(vectors)
        # The exact result is Hermitian; re-symmetrize to kill round-off drift.
        return _unstacked(0.5 * (result + _adjoint(result)), lead)

    return power


def _range_projection(t: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """``range_projection`` of each matrix of a stack of operators, with
    the rank cutoffs of ``_rank``."""
    decomp = _svd(t)
    p = _leading_product(decomp.left_vectors, None, _rank(decomp.singular_values, cfg))
    return 0.5 * (p + _adjoint(p))


def _hermitian_range_projection(
    values: np.ndarray, vectors: np.ndarray, cfg: ToleranceConfig
) -> np.ndarray:
    """``_range_projection`` of each Hermitian matrix of a stack of
    operators from its ``eigh``: the |eigenvalues| are its singular values,
    so the eigenvectors ordered by |eigenvalue|, largest first, take the
    place of the left singular vectors, with the cutoffs of ``_rank``."""
    magnitudes = np.abs(values)
    order = np.argsort(-magnitudes, axis=-1, kind="stable")
    s = np.take_along_axis(magnitudes, order, axis=-1)
    leading = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    p = _leading_product(leading, None, _rank(s, cfg))
    return 0.5 * (p + _adjoint(p))


def range_projection(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthogonal projection onto the numerical range (column space) of
    ``t``; for a stack, that of ``_range_projection``."""
    x, lead = _stacked(_checked(t, (2, 3, 4)))
    return _unstacked(_range_projection(x, cfg), lead)


def equality_residual(a, b):
    """Frobenius distance scaled by ``max(1, |a|, |b|)``; for stacks, that
    of ``_residual``."""
    a, b = _checked(a, (2, 3, 4)), _checked(b, (2, 3, 4))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    x, lead, y = _stacked(a, b)
    return _unstacked(_residual(x, y), lead)


def _residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``equality_residual`` of each pair of operators of two stacks of
    operators of one shape."""
    return _norms(a - b) / _floor_one(_norms(a), _norms(b))


def approx_equal(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True iff ``|a - b|_F <= equality_rel_tol * max(1, |a|_F, |b|_F)``."""
    return equality_residual(a, b) <= cfg.equality_rel_tol
