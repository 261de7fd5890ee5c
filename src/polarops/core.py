"""Dense complex-matrix kernels and toleranced predicates.

Everything downstream (polar decompositions, classification, the shift
generators) is built on the handful of primitives in this module: Frobenius
norms with ``max(1, .)`` scaling, a relative singular-value rank cutoff, and
eigendecomposition-based fractional powers of positive semidefinite matrices.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"operator must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"operator axes must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("operator entries must be finite")
    return arr


def fro_norm(a) -> float:
    return float(np.linalg.norm(a, "fro"))


def _require_same_square(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError(f"expected square operators, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def commutator(a, b) -> np.ndarray:
    """Return ``a @ b - b @ a`` for square operators of equal dimension."""
    a = as_operator(a)
    b = as_operator(b)
    _require_same_square(a, b)
    return a @ b - b @ a


def commutator_norm(a, b) -> float:
    return fro_norm(commutator(a, b))


def commutator_threshold(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Largest commutator norm that counts as vanishing. It scales with both
    operand norms and is floored at ``COMMUTATOR_FLOOR`` so that operators
    of tiny norm still count as commuting."""
    return max(cfg.zero_rel_tol * fro_norm(a) * fro_norm(b), COMMUTATOR_FLOOR)


def commutes(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Toleranced commutator-vanishing test against :func:`commutator_threshold`."""
    a = as_operator(a)
    b = as_operator(b)
    return commutator_norm(a, b) <= commutator_threshold(a, b, cfg)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = left @ diag(s) @ right*`` with orthonormal columns."""

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray


def svd(a) -> SvdResult:
    a = as_operator(a)
    left, s, right_h = np.linalg.svd(a, full_matrices=False)
    return SvdResult(left, s, right_h.conj().T)


@dataclass(frozen=True)
class HermEigResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a) -> HermEigResult:
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square operator, got {a.shape}")
    values, vectors = np.linalg.eigh(a)
    return HermEigResult(values, vectors)


def numerical_rank(s, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Count singular values above the relative cutoff.

    ``s`` must be nonincreasing and nonnegative. Returns 0 for an all-zero
    spectrum; the cutoff is ``rank_rel_tol * s[0]`` otherwise.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > cfg.rank_rel_tol * s[0]))


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


def is_hermitian(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    a = as_operator(a)
    if a.shape[0] != a.shape[1]:
        return False
    return fro_norm(a - a.conj().T) <= cfg.equality_rel_tol * max(1.0, fro_norm(a))


def is_hermitian_psd(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True iff ``a`` is Hermitian within tolerance with spectrum >= -tol."""
    a = as_operator(a)
    if not is_hermitian(a, cfg):
        return False
    values = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    scale = max(1.0, float(values[-1]) if values.size else 0.0)
    return bool(values[0] >= -cfg.zero_rel_tol * scale)


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
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if not is_hermitian(a, cfg):
        raise ValueError("fractional powers require a Hermitian input")
    eig = herm_eig(0.5 * (a + a.conj().T))
    values = eig.eigenvalues.copy()
    lam_max = float(values[-1]) if values.size else 0.0
    neg_tol = cfg.zero_rel_tol * max(1.0, abs(lam_max))
    if values[0] < -neg_tol:
        raise ValueError(f"input is not PSD: smallest eigenvalue {values[0]:.3e}")
    cutoff = cfg.rank_rel_tol * max(lam_max, 0.0)
    values[values <= cutoff] = 0.0
    powered = np.where(values > 0.0, values**alpha, 0.0)
    result = (eig.eigenvectors * powered) @ eig.eigenvectors.conj().T
    # The exact result is Hermitian; re-symmetrize to kill round-off drift.
    return 0.5 * (result + result.conj().T)


def range_projection(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthogonal projection onto the numerical range (column space) of ``t``."""
    t = as_operator(t)
    decomp = svd(t)
    r = numerical_rank(decomp.singular_values, cfg)
    if r == 0:
        return np.zeros((t.shape[0], t.shape[0]), dtype=np.complex128)
    w = decomp.left_vectors[:, :r]
    p = w @ w.conj().T
    return 0.5 * (p + p.conj().T)


def equality_residual(a, b) -> float:
    """Frobenius distance scaled by ``max(1, |a|, |b|)``."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return fro_norm(a - b) / max(1.0, fro_norm(a), fro_norm(b))


def approx_equal(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """True iff ``|a - b|_F <= equality_rel_tol * max(1, |a|_F, |b|_F)``."""
    return equality_residual(a, b) <= cfg.equality_rel_tol
