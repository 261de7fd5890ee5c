"""Polar decomposition and Moore-Penrose inversion of dense complex matrices.

The polar factor produced here is always the partial isometry that vanishes
on the null space, characterized by ``T = U |T|`` together with
``U* U = P`` where ``P`` projects onto the closure of ``ran(T*)``. This is a
stricter contract than the unitary polar factorization: the factor is unique,
and it is the one under which products, powers, and Moore-Penrose inverses
behave well. ``verify_polar`` checks the full contract plus the derived
identities ``|T*| = U |T| U*`` and ``U |T| = |T*| U``, and reports per-identity
residuals. It factors nothing but ``|T|`` (one ``eigh``): ``Q = U |T| U*`` is
``|T*|`` exactly when ``Q`` is PSD (it is when ``|T|`` is) and ``Q^2 = T T*``,
since a PSD matrix has one PSD square root, so both identities are checked
by matmuls, with ``Q`` in place of ``|T*|``.

All operations accept rectangular input except where noted; all are pure.
Every function but ``penrose_check`` follows the stack rule of the README
(a 3-D ``(blocks, m, n)`` stack is the direct sum of its blocks, a 4-D
``(operators, blocks, m, n)`` stack holds independent operators): input is
validated once and taken into a stack of operators (``core._boundary``;
``verify_polar`` and ``penrose_check`` write their entry by hand), so each
operator runs the one stacked path and gets bitwise what it gets alone,
with its own rank cutoff, norms and residuals. ``polar_decompose``,
``moore_penrose`` and ``mp_polar_parts`` take the SVD of ``t`` that a
caller already holds (``decomp``), and ``mp_polar_parts`` its polar parts
(``parts``), so that one factorization serves several of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    SvdResult,
    ToleranceConfig,
    _adjoint,
    _boundary,
    _checked,
    _floor_one,
    _hermitian_range_projection,
    _isometry,
    _lapack,
    _leading_product,
    _modulus,
    _norms,
    _rank,
    _residual,
    _stacked,
    _svd,
    _unstacked,
)

__all__ = [
    "PolarParts",
    "PolarCheck",
    "PenroseCheck",
    "abs_value",
    "polar_decompose",
    "polar_tolerance",
    "verify_polar",
    "moore_penrose",
    "penrose_check",
    "mp_polar_parts",
]


@dataclass(frozen=True)
class PolarParts:
    """Polar factors ``(U, P)`` with ``U`` a partial isometry and ``P`` PSD.

    ``rank`` is the numerical rank used to build the isometry; the same rank
    backs every range projection taken within one decomposition.
    ``singular_values`` are those of the SVD the parts were built from
    (nonincreasing), or None for parts assembled some other way. The parts
    of a stack hold stacks, with one rank per matrix; indexing them takes
    the parts of the operators ``index`` of a stack of operators.
    """

    isometry: np.ndarray
    modulus: np.ndarray
    rank: int
    singular_values: np.ndarray | None = None

    def __getitem__(self, index) -> PolarParts:
        return PolarParts(*(x[index] for x in vars(self).values()))


@dataclass(frozen=True)
class PolarCheck:
    """Outcome of ``verify_polar``: per-identity scaled residuals."""

    ok: bool
    residuals: dict[str, float]

    def worst(self) -> float:
        return max(self.residuals.values())


@dataclass(frozen=True)
class PenroseCheck:
    """Scaled residuals of the four Moore-Penrose equations.

    Order: ``TXT - T``, ``XTX - X``, ``(TX)* - TX``, ``(XT)* - XT``.
    """

    residuals: tuple[float, float, float, float]
    ok: bool


@_boundary((2, 3, 4))
def abs_value(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Hermitian PSD square root of ``t* t``, computed from the SVD of ``t``."""
    return _modulus(_svd(t))


@_boundary((2, 3, 4), held=("decomp",))
def polar_decompose(
    t, cfg: ToleranceConfig = DEFAULT_TOLERANCES, *, decomp: SvdResult | None = None
) -> PolarParts:
    """Canonical polar decomposition ``t = U P`` with ``U* U = P_{ran t*}``.

    From the SVD ``t = W diag(s) X*`` with numerical rank ``r``, the factors
    are ``U = W_r X_r*`` and ``P = X diag(s) X*``. Sign and phase ambiguity of
    degenerate singular vectors cancels in both products, so the output is
    deterministic given the factorization. The parts carry ``s``. ``decomp``
    is the SVD of ``t`` (``core.svd``), when the caller holds it. A stack
    gets one rank per matrix, all with the cutoff of the direct sum, or of
    their operator in a stack of operators.
    """
    decomp = _svd(t) if decomp is None else decomp
    s = decomp.singular_values
    r = _rank(s, cfg)
    return PolarParts(_isometry(decomp, r), _modulus(decomp), r, s)


def polar_tolerance(name: str, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Tolerance for the ``verify_polar`` residual called ``name``:
    ``zero_rel_tol`` for ``modulus_psd``, ``equality_rel_tol`` otherwise."""
    return cfg.zero_rel_tol if name == "modulus_psd" else cfg.equality_rel_tol


def verify_polar(t, parts: PolarParts, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Check that ``parts`` is the polar decomposition of ``t``.

    Verifies, each within tolerance:

    * ``t = U P`` (reconstruction),
    * ``P`` Hermitian with spectrum >= -tol,
    * ``U`` a partial isometry (``U U* U = U``),
    * ``U* U`` equals the range projection of ``P``,
    * ``|t*| = U P U*`` (adjoint_modulus) and ``U P = |t*| U`` (intertwine).

    Returns a PolarCheck carrying one scaled residual per identity, each
    compared against its ``polar_tolerance``; for a stack of operators, a
    list of one check per operator. The norms, the extreme eigenvalues of
    the Hermitian part of ``P`` and the rank cutoff of its range projection
    are taken over the whole of a direct sum.

    ``|t*|`` is not factored: with ``Q = U P U*``, adjoint_modulus is the
    residual of ``Q^2 = t t*`` and intertwine that of ``U P = Q U``. A PSD
    ``P`` (modulus_psd) makes ``Q`` PSD, and ``Q^2 = t t*`` then makes it
    the one PSD square root ``|t*|``. Both sides of ``Q^2 = t t*`` are
    formed from ``t`` and ``Q`` multiplied by ``2^-e``, one exact power of
    two per operator with ``e`` the ``frexp`` exponent of its largest
    |entry|, so the squares stay in range whatever the scale of ``t``.

    ``P`` is factored on its own, once: one ``eigh`` of its Hermitian part
    gives the extreme eigenvalues and the range projection, from the
    eigenvectors whose |eigenvalue| (a singular value of that Hermitian
    part) lies above the rank cutoff of ``core.range_projection``, largest
    first. A ``P`` far enough from Hermitian for its own range to differ
    from that already fails ``modulus_hermitian``.

    The entry checks ``t`` and the shapes of its parts, so it is written
    here and not declared (``core._boundary``); ``verify_polar.kernel``
    takes stacks of operators, as the kernels of the declared functions do:
    ``(t, isometry, modulus, cfg)``.
    """
    t = _checked(t, (2, 3, 4))
    x, lead = _stacked(t)
    u, p = (_checked(a, (4 - lead,)) for a in (parts.isometry, parts.modulus))
    if u.shape != t.shape:
        raise ValueError(f"isometry shape {u.shape} does not match operator {t.shape}")
    if p.shape != (*t.shape[:-2], t.shape[-1], t.shape[-1]):
        raise ValueError(f"modulus shape {p.shape} does not match operator {t.shape}")
    (u, _), (p, _) = _stacked(u), _stacked(p)
    return _unstacked(_polar_checks(x, u, p, cfg), lead)


def _polar_checks(x, u, p, cfg: ToleranceConfig) -> list[PolarCheck]:
    """``verify_polar`` of each operator of a stack of operators ``x``, with
    the stacks ``u`` and ``p`` of its parts: a list of one check per
    operator."""
    # One eigh of the Hermitian part of P gives its spectrum and its range.
    eigenvalues, eigenvectors = _lapack("eigh", 0.5 * (p + _adjoint(p)))
    lowest = eigenvalues[..., 0].min(axis=-1)
    # max(0, -lowest), with +0.0 for a lowest eigenvalue of zero.
    psd = np.where(lowest < 0.0, -lowest, 0.0) / _floor_one(eigenvalues[..., -1].max(-1))
    projection = _hermitian_range_projection(eigenvalues, eigenvectors, cfg)
    uh, up = _adjoint(u), u @ p
    q = up @ uh
    # Q^2 = T T* from T and Q times 2^-e, e the exponent of the largest
    # |entry| of each operator: an exact scaling, under which no square
    # overflows.
    _, e = np.frexp(np.abs(x).max(axis=(1, 2, 3)))
    scale = np.ldexp(1.0, np.minimum(-e, 1023))[:, None, None, None]
    xs, qs = x * scale, q * scale
    residuals = {
        "reconstruction": _residual(x, up),
        "modulus_hermitian": _norms(p - _adjoint(p)) / _floor_one(_norms(p)),
        "modulus_psd": psd,
        "partial_isometry": _residual(u @ uh @ u, u),
        "range_condition": _residual(uh @ u, projection),
        "adjoint_modulus": _residual(qs @ qs, xs @ _adjoint(xs)),
        "intertwine": _residual(up, q @ u),
    }
    tolerances = [polar_tolerance(name, cfg) for name in residuals]
    checks = [
        PolarCheck(
            ok=all(value <= tol for value, tol in zip(values, tolerances)),
            residuals=dict(zip(residuals, values)),
        )
        for values in zip(*(value.tolist() for value in residuals.values()))
    ]
    return checks


verify_polar.kernel = _polar_checks


@_boundary((2, 3, 4), held=("decomp",))
def moore_penrose(
    t, cfg: ToleranceConfig = DEFAULT_TOLERANCES, *, decomp: SvdResult | None = None
) -> np.ndarray:
    """Moore-Penrose inverse via SVD inversion above the rank cutoff:
    ``X_r diag(1/s_r) W_r*``, of a matrix or of each operator of a stack
    of operators (with the rank cutoffs of ``polar_decompose``). Only the
    leading ``r`` columns of ``X`` are divided, and the product is that of
    ``core._leading_product``, so each operator of a stack gets bitwise the
    inverse it gets alone; rank 0 gives the zero matrix. ``decomp`` is the
    SVD of ``t``, when the caller holds it."""
    decomp = _svd(t) if decomp is None else decomp
    s = decomp.singular_values
    r = _rank(s, cfg)
    keep = np.arange(s.shape[-1]) < r[..., None]
    x = decomp.right_vectors
    scaled = np.divide(x, s[..., None, :], out=np.zeros_like(x), where=keep[..., None, :])
    return _leading_product(scaled, decomp.left_vectors, r)


def penrose_check(
    t, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PenroseCheck:
    """Evaluate the four Moore-Penrose equations for a candidate inverse ``x``
    of a matrix ``t``."""
    t, x = _checked(t), _checked(x)
    if x.shape != (t.shape[1], t.shape[0]):
        raise ValueError(f"candidate shape {x.shape} does not match operator {t.shape}")
    t, lead, x = _stacked(t, x)
    tx, xt = t @ x, x @ t
    pairs = ((tx @ t, t), (xt @ x, x), (_adjoint(tx), tx), (_adjoint(xt), xt))
    residuals = tuple(
        _unstacked(_norms(a - b) / _floor_one(_norms(b)), lead) for a, b in pairs
    )
    ok = all(value <= cfg.equality_rel_tol for value in residuals)
    return PenroseCheck(residuals=residuals, ok=ok)


@_boundary((2, 3, 4), square=True, held=("decomp", "inverse_decomp", "parts"))
def mp_polar_parts(
    t,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    *,
    decomp: SvdResult | None = None,
    inverse_decomp: SvdResult | None = None,
    parts: PolarParts | None = None,
) -> PolarParts:
    """Polar decomposition of the Moore-Penrose inverse of a square ``t``,
    or of each operator of a stack.

    If ``t = U |t|`` then the inverse decomposes as ``U* |pinv(t)|``; the
    returned parts pass ``verify_polar`` against ``moore_penrose(t)``.
    ``decomp`` is the SVD of ``t``, ``parts`` its polar parts and
    ``inverse_decomp`` the SVD of ``moore_penrose(t)``, when the caller
    holds them; ``U`` and its rank are taken from ``parts``.
    """
    if decomp is None and (parts is None or inverse_decomp is None):
        decomp = _svd(t)
    if inverse_decomp is None:
        inverse_decomp = _svd(moore_penrose.kernel(t, cfg, decomp=decomp))
    if parts is None:
        parts = polar_decompose.kernel(t, cfg, decomp=decomp)
    return PolarParts(
        _adjoint(parts.isometry),
        _modulus(inverse_decomp),
        parts.rank,
        inverse_decomp.singular_values,
    )
