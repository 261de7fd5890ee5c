"""Block weighted shifts with prescribed centered order.

Builds finite truncations of a block weighted shift driven by a fixed real
orthogonal 3x3 matrix ``V`` and a weight sequence ``g``. With the right
weight recipe the resulting operator is exactly n-centered: the commutator
``[U^k |T| (U^k)*, |T|]`` vanishes for k < n and fails at k = n. The angle
behind ``V`` is chosen so that no power of ``V`` slips back into a
commuting configuration: the (3,3) entry of ``V^k`` is nonzero for every
k >= 2, which ``v_power_entries`` exposes in closed form.

Weights are kept as exact small integers so that the differences
``g(m+1) - g(m)`` the classification hinges on are exactly zero where they
must vanish, even in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DEFAULT_TOLERANCES, ToleranceConfig, commutes
from .decomp import PolarParts

__all__ = [
    "AngleConstants",
    "ShiftSpec",
    "angle_constants",
    "v_matrix",
    "v_power_entries",
    "g_sequence",
    "block_t",
    "build_truncated",
    "predicted_polar_parts",
    "expected_commutator_pattern",
    "pattern_mismatches",
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
    """Weight recipe that makes the truncated shift exactly n-centered.

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


def build_truncated(spec: ShiftSpec) -> np.ndarray:
    """Assemble the truncated block shift: blocks T_1..T_{blocks-1} sit on
    the first block subdiagonal of a (3*blocks) x (3*blocks) matrix.

    The final diagonal position carries no outgoing block, so the modulus
    gains one trailing zero 3x3 block relative to the doubly infinite shift;
    commutators against that zero block vanish identically and the centered
    order is unaffected.
    """
    dim = spec.dimension
    out = np.zeros((dim, dim), dtype=np.complex128)
    for m in range(1, spec.blocks):
        row = BLOCK * m
        col = BLOCK * (m - 1)
        out[row : row + BLOCK, col : col + BLOCK] = block_t(m, spec.g)
    return out


def predicted_polar_parts(
    spec: ShiftSpec, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PolarParts:
    """The block-structured polar factors the construction promises: the
    isometry is the same shift with every block replaced by ``V``, and the
    modulus is block diagonal with diag(sec(alpha)*g(m), sec(alpha)*g(m),
    sec(alpha)*g(m+1)) at position m and a zero block at the end."""
    c = angle_constants()
    v = v_matrix()
    dim = spec.dimension
    isometry = np.zeros((dim, dim), dtype=np.complex128)
    modulus = np.zeros((dim, dim), dtype=np.complex128)
    for m in range(1, spec.blocks):
        row = BLOCK * m
        col = BLOCK * (m - 1)
        isometry[row : row + BLOCK, col : col + BLOCK] = v
        gm = float(spec.g[m - 1])
        gm1 = float(spec.g[m])
        modulus[col : col + BLOCK, col : col + BLOCK] = np.diag(
            [c.sec_alpha * gm, c.sec_alpha * gm, c.sec_alpha * gm1]
        )
    return PolarParts(
        isometry=isometry, modulus=modulus, rank=BLOCK * (spec.blocks - 1)
    )


def expected_commutator_pattern(spec: ShiftSpec, k: int) -> bool:
    """Predict from the weights alone whether ``[U^k |T| (U^k)*, |T|]``
    vanishes on the truncated shift.

    For k >= 2 the commutator vanishes exactly when
    (g(m+1) - g(m)) * (g(m+k+1) - g(m+k)) = 0 for every block position m
    present after truncation (m = 1..blocks-1-k); positions whose partner
    fell off the end impose no condition. k = 1 always commutes: the third
    column of ``V`` is the first basis vector, which conjugates the (3,3)
    perturbation of each modulus block into a (1,1) perturbation that
    commutes with every diagonal block.
    """
    if k < 2:
        raise ValueError(f"pattern is defined for k >= 2, got {k}")
    g = spec.g
    for m in range(1, spec.blocks - k):
        if (g[m] - g[m - 1]) * (g[m + k] - g[m + k - 1]) != 0.0:
            return False
    return True


def pattern_mismatches(
    spec: ShiftSpec, parts: PolarParts, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> int:
    """Count the powers k = 1..blocks-2 at which the commutator criterion on
    the polar ``parts`` of the shift disagrees with the weight pattern."""
    mismatches = 0
    u_pow = parts.isometry
    for k in range(1, spec.blocks - 1):
        conjugated = u_pow @ parts.modulus @ u_pow.conj().T
        predicted = True if k == 1 else expected_commutator_pattern(spec, k)
        if commutes(conjugated, parts.modulus, cfg) != predicted:
            mismatches += 1
        u_pow = u_pow @ parts.isometry
    return mismatches
