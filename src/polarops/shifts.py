"""Block weighted shifts with prescribed centered order.

Builds finite truncations of a block weighted shift driven by a fixed real
orthogonal 3x3 matrix ``V`` and a weight sequence ``g``. With the right
weight recipe the resulting operator is n-centered and not
(n+1)-centered: the commutator ``[U^k |T| (U^k)*, |T|]`` vanishes for
k < n and fails at k = n. The matrix built holds that operator rounded:
``tan(alpha)`` and ``sec(alpha)`` are irrational, and in the stored doubles
``fl(sec)^2 - (1 + fl(tan)^2)`` is 2.29e-16, so no modulus block is
exactly scalar. The matrix is binormal (k = 1), and its commutators for
k >= 2 vanish only to within the tolerance. The angle
behind ``V`` is chosen so that no power of ``V`` slips back into a
commuting configuration: the (3,3) entry of ``V^k`` is nonzero for every
k >= 2, which ``v_power_entries`` exposes in closed form.

Weights are kept as exact small integers so that the differences
``g(m+1) - g(m)`` the classification hinges on are exactly zero where they
must vanish, even in floating point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classify import CenteredReport, blockwise_centered_order
from .core import DEFAULT_TOLERANCES, ToleranceConfig, as_operator
from .decomp import PolarCheck, PolarParts, verify_polar

__all__ = [
    "AngleConstants",
    "ShiftSpec",
    "angle_constants",
    "v_matrix",
    "v_power_entries",
    "g_sequence",
    "block_t",
    "build_truncated",
    "subdiagonal_blocks",
    "predicted_polar_parts",
    "expected_commutator_pattern",
    "pattern_mismatches",
    "certify_blockwise",
    "verify_predicted_structure",
]

BLOCK = 3


@dataclass(frozen=True)
class AngleConstants:
    """The two angles the construction runs on, with derived trig values.

    ``theta`` is pi*sqrt(2)/6, an irrational multiple of pi, so the rotation
    part of ``V`` never returns to the identity; ``alpha`` solves
    sin(alpha) = 2*cos(theta) - 1, which lands in (0, 1) because
    cos(theta) > 1/2.
    """

    theta: float
    alpha: float
    cos_theta: float
    sin_alpha: float
    cos_alpha: float
    sec_alpha: float
    tan_alpha: float


@lru_cache(maxsize=1)
def angle_constants() -> AngleConstants:
    theta = math.pi * math.sqrt(2.0) / 6.0
    cos_theta = math.cos(theta)
    sin_alpha = 2.0 * cos_theta - 1.0
    alpha = math.asin(sin_alpha)
    cos_alpha = math.cos(alpha)
    return AngleConstants(
        theta=theta,
        alpha=alpha,
        cos_theta=cos_theta,
        sin_alpha=sin_alpha,
        cos_alpha=cos_alpha,
        sec_alpha=1.0 / cos_alpha,
        tan_alpha=math.tan(alpha),
    )


def v_matrix() -> np.ndarray:
    """The driving real orthogonal 3x3 matrix.

    Its spectrum is {-1, exp(i*theta), exp(-i*theta)}; determinant -1.
    """
    c = angle_constants()
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [c.cos_alpha, c.sin_alpha, 0.0],
            [c.sin_alpha, -c.cos_alpha, 0.0],
        ],
        dtype=np.complex128,
    )


def v_power_entries(k: int) -> tuple[complex, complex]:
    """Closed-form (1,3) and (3,3) entries of the k-th power of ``V``.

    Derived from the spectral decomposition: with the two rotation
    eigenvalues lam2 = exp(i*theta) and lam3 = exp(-i*theta),

        v13(k) = ((-1)^(k+1)*(lam2+lam3) + lam2^(k-1) + lam3^(k-1)) / d
        v33(k) = ((-1)^(k+2)*(lam2+lam3) + lam2^k + lam3^k) / d

    where d = lam2 + lam3 + 2. Consequences: v33(1) = 0, v33(k) = v13(k+1),
    and v33(k) != 0 for every k >= 2 because theta/pi is irrational.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    c = angle_constants()
    lam2 = complex(math.cos(c.theta), math.sin(c.theta))
    lam3 = lam2.conjugate()
    trace = lam2 + lam3
    denom = trace + 2.0
    sign = -1.0 if k % 2 == 0 else 1.0
    v13 = (sign * trace + lam2 ** (k - 1) + lam3 ** (k - 1)) / denom
    v33 = (-sign * trace + lam2**k + lam3**k) / denom
    return v13, v33


def g_sequence(n: int, m_count: int) -> tuple[float, ...]:
    """Weight recipe that makes the truncated shift n-centered and not
    (n+1)-centered (its rounded matrix, to within the tolerance).

    For n = 2 the weights run 1, 2, 3, 4 and then stay at 1; for n >= 3 they
    are 1, then 2 repeated n times, then 1. Either way the consecutive
    differences are nonzero only where the order-n failure needs them, and
    all values stay within (0, 4].
    """
    if n < 2:
        raise ValueError(f"target order must be at least 2, got {n}")
    if m_count < n + 2:
        raise ValueError(
            f"need at least {n + 2} weights for target order {n}, got {m_count}"
        )
    if n == 2:
        head = [1.0, 2.0, 3.0, 4.0]
    else:
        head = [1.0] + [2.0] * n
    tail = [1.0] * (m_count - len(head))
    return tuple((head + tail)[:m_count])


@dataclass(frozen=True)
class ShiftSpec:
    """Parameters of one truncated block shift: target order ``n``, number of
    3x3 diagonal positions ``blocks``, and the weight sequence ``g`` (one
    weight per block position, each in (0, 4])."""

    n: int
    blocks: int
    g: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"target order must be at least 2, got {self.n}")
        if self.blocks < self.n + 2:
            raise ValueError(
                f"need at least {self.n + 2} blocks for order {self.n}, "
                f"got {self.blocks}"
            )
        if len(self.g) != self.blocks:
            raise ValueError(
                f"weight count {len(self.g)} does not match blocks {self.blocks}"
            )
        if any(not (0.0 < w <= 4.0) for w in self.g):
            raise ValueError("weights must lie in (0, 4]")

    @classmethod
    def from_recipe(cls, n: int, blocks: int | None = None) -> "ShiftSpec":
        """Spec with the guaranteed weight recipe; ``blocks`` defaults to
        n + 3, one position past the minimum needed for the order-n failure
        to survive truncation."""
        if blocks is None:
            blocks = n + 3
        return cls(n=n, blocks=blocks, g=g_sequence(n, blocks))

    @property
    def dimension(self) -> int:
        return BLOCK * self.blocks


def block_t(m: int, g: tuple[float, ...] | list[float]) -> np.ndarray:
    """The m-th 3x3 block of the shift (1-indexed, 1 <= m <= len(g) - 1).

    Built so that its polar decomposition is exactly ``V`` times the diagonal
    modulus diag(sec(alpha)*g(m), sec(alpha)*g(m), sec(alpha)*g(m+1)).
    """
    if not 1 <= m <= len(g) - 1:
        raise ValueError(f"block index {m} out of range 1..{len(g) - 1}")
    c = angle_constants()
    gm = float(g[m - 1])
    gm1 = float(g[m])
    return np.array(
        [
            [0.0, 0.0, c.sec_alpha * gm1],
            [gm, c.tan_alpha * gm, 0.0],
            [c.tan_alpha * gm, -gm, 0.0],
        ],
        dtype=np.complex128,
    )


def _dense(stack, offset: int = 1) -> np.ndarray:
    """The operator on ``len(stack) + 1`` block positions with the 3x3 blocks
    of ``stack`` on its first block subdiagonal, ``stack[m-1]`` at block
    position (m, m-1); with ``offset`` 0, on its diagonal up to a trailing
    zero block instead."""
    blocks = len(stack) + 1
    dense = np.zeros((BLOCK * blocks, BLOCK * blocks), dtype=np.complex128)
    # The blocks are written through a view of the matrix, so that no second
    # matrix-sized array is made.
    grid = dense.reshape(blocks, BLOCK, blocks, BLOCK).swapaxes(1, 2)
    grid[np.arange(offset, blocks - 1 + offset), np.arange(blocks - 1)] = stack
    return dense


def subdiagonal_blocks(t) -> np.ndarray:
    """The blocks of a matrix of 3x3 blocks on its first block subdiagonal,
    where ``build_truncated`` places them, with ``t`` checked once
    (``core.as_operator``). Raises ValueError if ``t`` is not a square
    matrix of 3x3 blocks or has a nonzero entry anywhere else, so that a
    caller certifies what ``t`` holds; the kernels of ``certify_blockwise``
    and ``verify_predicted_structure`` take the blocks it returns. Its own
    kernel takes a checked ``t``, and scans it once, to count its nonzero
    entries."""
    t = as_operator(t)
    if t.shape[0] != t.shape[1] or t.shape[0] % BLOCK:
        raise ValueError(f"need a square matrix of 3x3 blocks, got shape {t.shape}")
    return _subdiagonal_blocks(t)


def _subdiagonal_blocks(t: np.ndarray) -> np.ndarray:
    """``subdiagonal_blocks`` of a checked square matrix of 3x3 blocks."""
    blocks = t.shape[0] // BLOCK
    grid = t.reshape(blocks, BLOCK, blocks, BLOCK).swapaxes(1, 2)
    stack = grid[np.arange(1, blocks), np.arange(blocks - 1)]
    if np.count_nonzero(stack) != np.count_nonzero(t):
        raise ValueError("operator has entries off its first block subdiagonal")
    return stack


subdiagonal_blocks.kernel = _subdiagonal_blocks


def build_truncated(spec: ShiftSpec) -> np.ndarray:
    """Assemble the truncated block shift: blocks T_1..T_{blocks-1} sit on
    the first block subdiagonal of a (3*blocks) x (3*blocks) matrix.

    The final diagonal position carries no outgoing block, so the modulus
    gains one trailing zero 3x3 block relative to the doubly infinite shift;
    commutators against that zero block vanish identically, so the
    truncation does not move the centered order. The blocks hold the
    operator's irrational entries rounded, so the matrix is n-centered only
    to within the tolerance (see the module docstring).
    """
    return _dense([block_t(m, spec.g) for m in range(1, spec.blocks)])


def _predicted_blocks(spec: ShiftSpec) -> tuple[np.ndarray, np.ndarray]:
    """The predicted polar factors of the blocks T_1..T_{blocks-1}: ``V``
    for each, and the moduli diag(sec(alpha)*g(m), sec(alpha)*g(m),
    sec(alpha)*g(m+1)), m = 1..blocks-1."""
    g = np.asarray(spec.g)
    moduli = angle_constants().sec_alpha * np.stack([g[:-1], g[:-1], g[1:]], -1)
    isometries = np.broadcast_to(v_matrix(), (spec.blocks - 1, BLOCK, BLOCK))
    return isometries, moduli[..., None] * np.eye(BLOCK, dtype=np.complex128)


def predicted_polar_parts(spec: ShiftSpec) -> PolarParts:
    """The block-structured polar factors the construction promises: the
    isometry is the same shift with every block replaced by ``V``, and the
    modulus is block diagonal with diag(sec(alpha)*g(m), sec(alpha)*g(m),
    sec(alpha)*g(m+1)) at position m and a zero block at the end. They are
    formed from the weights alone, so no tolerance enters."""
    isometries, moduli = _predicted_blocks(spec)
    return PolarParts(
        isometry=_dense(isometries),
        modulus=_dense(moduli, offset=0),
        rank=BLOCK * (spec.blocks - 1),
    )


def verify_predicted_structure(
    t, spec: ShiftSpec, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PolarCheck:
    """``verify_polar(t, predicted_polar_parts(spec), cfg)`` in 3x3 block
    arithmetic: the triples ``(T_m, V, P_{m-1})``, m = 1..blocks-1, are
    checked as one direct sum, with the dense tolerances.

    In exact arithmetic this is the dense check. Once the guard has passed,
    ``t`` is the direct sum of its block maps T_m (position m-1 to m) up to
    a reordering of positions, which no norm, spectrum or range sees, and
    the predicted factors and every product in the check share that
    structure. The trailing zero block of the predicted modulus adds
    nothing to any residual: it leaves every norm and range projection as
    it is, and its zero eigenvalues change neither ``max(0, -min)`` nor
    ``max(1, max)`` of the spectrum. Raises ValueError if ``t`` is not of
    the spec's dimension or has a nonzero entry off its first block
    subdiagonal.
    """
    t = as_operator(t)
    if t.shape != (spec.dimension,) * 2:
        raise ValueError(f"shape {t.shape} does not match dimension {spec.dimension}")
    return _predicted_structure(_subdiagonal_blocks(t), spec, cfg)


def _predicted_structure(blocks: np.ndarray, spec: ShiftSpec, cfg: ToleranceConfig) -> PolarCheck:
    """``verify_predicted_structure`` of the shift whose blocks T_1..T_{blocks-1}
    are ``blocks`` (``subdiagonal_blocks``), unchecked."""
    isometries, moduli = _predicted_blocks(spec)
    return verify_polar.kernel(blocks[None], isometries[None], moduli[None], cfg)[0]


verify_predicted_structure.kernel = _predicted_structure


def expected_commutator_pattern(spec: ShiftSpec, k: int) -> bool:
    """Predict from the weights alone whether ``[U^k |T| (U^k)*, |T|]``
    vanishes on the truncated shift.

    For k >= 2 the commutator vanishes exactly when
    (g(m+1) - g(m)) * (g(m+k+1) - g(m+k)) = 0 for every block position m
    present after truncation (m = 1..blocks-1-k); positions whose partner
    fell off the end impose no condition. k = 1 always commutes: the third
    column of ``V`` is the first basis vector, which conjugates the (3,3)
    perturbation of each modulus block into a (1,1) perturbation that
    commutes with every diagonal block. The verdict at k <= blocks-2 is
    that of ``_predicted_pattern``; a larger k leaves no position with a
    partner, so the commutator vanishes.
    """
    if k < 2:
        raise ValueError(f"pattern is defined for k >= 2, got {k}")
    return k > spec.blocks - 2 or _predicted_pattern(spec)[k - 1]


def _predicted_pattern(spec: ShiftSpec) -> list[bool]:
    """``expected_commutator_pattern`` for k = 1..blocks-2 (True at k = 1),
    in O(blocks + changes^2) for the positions where ``g`` changes.

    The product ``(g(m+1) - g(m)) * (g(m+k+1) - g(m+k))`` can be nonzero
    only where both differences are, so the pattern fails at k only at
    k = d2 - d1 for two such positions d1 < d2; the product is evaluated on
    those pairs alone, so one that underflows to zero keeps its verdict."""
    g = spec.g
    changes = [m for m in range(1, spec.blocks) if g[m] != g[m - 1]]
    failing = {
        d2 - d1
        for i, d1 in enumerate(changes)
        for d2 in changes[i + 1 :]
        if (g[d1] - g[d1 - 1]) * (g[d2] - g[d2 - 1]) != 0.0
    }
    return [k == 1 or k not in failing for k in range(1, spec.blocks - 1)]


def pattern_mismatches(spec: ShiftSpec, decisions: Sequence[bool]) -> int:
    """Count the powers k = 1..blocks-2 at which ``decisions[k-1]``, whether
    ``[U^k |T| (U^k)*, |T|]`` vanishes, disagrees with the weight pattern."""
    pairs = zip(decisions, _predicted_pattern(spec), strict=True)
    return sum(d != p for d, p in pairs)


def certify_blockwise(
    t, max_n: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> CenteredReport:
    """``classify.centered_order(t, max_n)`` in 3x3 block arithmetic, for
    ``t`` on its first block subdiagonal and 1 <= max_n < blocks: the
    report of ``classify.blockwise_centered_order`` on the stack of its
    blocks, which forms, factors and checks each power once per distinct
    window of consecutive blocks. ``t`` is checked here, once: the stack
    cut from it goes to the walk's kernel unchecked. The written shift has
    4 distinct blocks and a few distinct windows per power, so the work
    grows linearly in n. The walk groups consecutive powers up to a fixed
    number of entries of their distinct windows, so the commutators of many
    powers are one stacked expression and the oracle factors them in one
    stacked SVD: two SVD calls for a shift on its default n + 3 blocks up to
    n = 60, and about one more per hundred powers beyond. Raises ValueError
    if ``t`` has a nonzero entry off its first block subdiagonal.
    """
    t = as_operator(t)
    blocks = t.shape[0] // BLOCK
    if t.shape != (BLOCK * blocks,) * 2 or not 1 <= max_n < blocks:
        raise ValueError(f"need 3x3 blocks and max_n < blocks: {t.shape}, {max_n}")
    return _certified(_subdiagonal_blocks(t), max_n, cfg)


def _certified(blocks: np.ndarray, max_n: int, cfg: ToleranceConfig) -> CenteredReport:
    """``certify_blockwise`` of the operator whose blocks on its first block
    subdiagonal are ``blocks`` (``subdiagonal_blocks``), unchecked, for
    1 <= max_n <= len(blocks)."""
    return blockwise_centered_order.kernel(blocks[None], max_n, cfg)[0]


certify_blockwise.kernel = _certified
