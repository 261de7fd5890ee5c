"""Polar decomposition and Moore-Penrose inversion of dense complex matrices.

The polar factor produced here is always the partial isometry that vanishes
on the null space, characterized by ``T = U |T|`` together with
``U* U = P`` where ``P`` projects onto the closure of ``ran(T*)``. This is a
stricter contract than the unitary polar factorization: the factor is unique,
and it is the one under which products, powers, and Moore-Penrose inverses
behave well. ``verify_polar`` checks the full contract plus the derived
identities ``|T*| = U |T| U*`` and ``U |T| = |T*| U``, and reports per-identity
residuals.

All operations accept rectangular input except where noted; all are pure.
The private kernels follow the stack rule of :mod:`polarops.core`: a 2-D
array is a matrix, a 3-D ``(blocks, m, n)`` stack stands for the direct sum
of its blocks, and a 4-D ``(operators, blocks, m, n)`` stack holds
independent operators, each such a direct sum, with one rank cutoff, norm
and residual per operator. The public functions validate their 2-D input
and call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    SvdResult,
    ToleranceConfig,
    _adjoint,
    _eigvalsh,
    _floor_one,
    _leading_product,
    _range_projection,
    _rank,
    _residual,
    _svd,
    as_operator,
    fro_norm,
    numerical_rank,
    svd,
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
    "moore_penrose_from_svd",
    "penrose_check",
    "mp_polar_parts",
    "mp_polar_parts_from_svd",
]


@dataclass(frozen=True)
class PolarParts:
    """Polar factors ``(U, P)`` with ``U`` a partial isometry and ``P`` PSD.

    ``rank`` is the numerical rank used to build the isometry; the same rank
    backs every range projection taken within one decomposition.
    ``singular_values`` are those of the SVD the parts were built from
    (nonincreasing), or None for parts assembled some other way.
    """

    isometry: np.ndarray
    modulus: np.ndarray
    rank: int
    singular_values: np.ndarray | None = None


@dataclass(frozen=True)
class PolarCheck:
    """Outcome of ``verify_polar``: per-identity scaled residuals. The check
    of a stack of operators holds arrays, one entry per operator, until
    ``_split_checks`` splits it."""

    ok: bool
    residuals: dict[str, float]

    def worst(self) -> float:
        return max(self.residuals.values())


def _split_checks(check: PolarCheck) -> list[PolarCheck]:
    """The check of each operator of a stack, from the stack's check."""
    names = list(check.residuals)
    columns = zip(*(check.residuals[name].tolist() for name in names))
    return [
        PolarCheck(ok=ok, residuals=dict(zip(names, values)))
        for ok, values in zip(check.ok.tolist(), columns)
    ]


@dataclass(frozen=True)
class PenroseCheck:
    """Scaled residuals of the four Moore-Penrose equations.

    Order: ``TXT - T``, ``XTX - X``, ``(TX)* - TX``, ``(XT)* - XT``.
    """

    residuals: tuple[float, float, float, float]
    ok: bool


def _modulus(decomp: SvdResult) -> np.ndarray:
    """``X diag(s) X*`` from the SVD ``t = W diag(s) X*``: the modulus ``|t|``."""
    x = decomp.right_vectors
    result = (x * decomp.singular_values[..., None, :]) @ _adjoint(x)
    return 0.5 * (result + _adjoint(result))


def abs_value(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Hermitian PSD square root of ``t* t``, computed from the SVD of ``t``."""
    return _modulus(svd(t))


def _isometry(decomp: SvdResult, r) -> np.ndarray:
    """``W_r X_r*`` from the SVD ``t = W diag(s) X*`` of rank ``r`` (one
    rank per matrix of a stack, from ``core._rank``): the canonical polar
    factor of ``t``."""
    return _leading_product(decomp.left_vectors, decomp.right_vectors, r)


def _polar_parts(decomp: SvdResult, cfg: ToleranceConfig) -> PolarParts:
    """``polar_decompose`` of the operator whose SVD is ``decomp``. For a
    stack, ``rank`` holds one rank per matrix, all with the cutoff of the
    direct sum, or of their operator in a stack of operators."""
    s = decomp.singular_values
    r = _rank(s, cfg)
    return PolarParts(_isometry(decomp, r), _modulus(decomp), r, s)


def _split_parts(parts: PolarParts, count: int) -> list[PolarParts]:
    """The parts of each run of ``count`` consecutive operators, from the
    parts of a stack of operators."""
    return [
        PolarParts(
            parts.isometry[start : start + count],
            parts.modulus[start : start + count],
            parts.rank[start : start + count],
            parts.singular_values[start : start + count],
        )
        for start in range(0, len(parts.modulus), count)
    ]


def _join_parts(*parts: PolarParts) -> PolarParts:
    """The parts of the stacks of operators of ``parts``, one after another,
    as the parts of one stack; the inverse of ``_split_parts``."""
    return PolarParts(
        *(np.concatenate(fields) for fields in zip(*(vars(p).values() for p in parts)))
    )


def polar_decompose(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> PolarParts:
    """Canonical polar decomposition ``t = U P`` with ``U* U = P_{ran t*}``.

    From the SVD ``t = W diag(s) X*`` with numerical rank ``r``, the factors
    are ``U = W_r X_r*`` and ``P = X diag(s) X*``. Sign and phase ambiguity of
    degenerate singular vectors cancels in both products, so the output is
    deterministic given the factorization. The parts carry ``s``.
    """
    return _polar_parts(svd(t), cfg)


def polar_tolerance(name: str, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Tolerance for the ``verify_polar`` residual called ``name``:
    ``zero_rel_tol`` for ``modulus_psd``, ``equality_rel_tol`` otherwise."""
    return cfg.zero_rel_tol if name == "modulus_psd" else cfg.equality_rel_tol


def verify_polar(
    t, parts: PolarParts, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PolarCheck:
    """Check that ``parts`` is the polar decomposition of ``t``.

    Verifies, each within tolerance:

    * ``t = U P`` (reconstruction),
    * ``P`` Hermitian with spectrum >= -tol,
    * ``U`` a partial isometry (``U U* U = U``),
    * ``U* U`` equals the range projection of ``P``,
    * ``|t*| = U P U*`` and ``U P = |t*| U``.

    Returns a PolarCheck carrying one scaled residual per identity, each
    compared against its ``polar_tolerance``.
    """
    t = as_operator(t)
    u = as_operator(parts.isometry)
    p = as_operator(parts.modulus)
    if u.shape != t.shape:
        raise ValueError(f"isometry shape {u.shape} does not match operator {t.shape}")
    if p.shape != (t.shape[1], t.shape[1]):
        raise ValueError(f"modulus shape {p.shape} does not match operator {t.shape}")
    return _polar_check(t, u, p, cfg)


def _polar_check(
    t: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    cfg: ToleranceConfig,
    adjoint_modulus: np.ndarray | None = None,
) -> PolarCheck:
    """``verify_polar`` of checked arrays, or of stacks ``t``, ``u``, ``p``
    of matching shapes standing for their direct sums: the norms, the
    extreme eigenvalues of the Hermitian part of ``p`` and the rank cutoff
    of its range projection are taken over the whole stack, or over each
    operator of a stack of operators, whose check holds one residual and
    verdict per operator (see ``_split_checks``). ``adjoint_modulus``, when
    given, is ``abs_value(t*)``, already formed by the caller; otherwise it
    is factored here."""
    herm = 0.5 * (p + _adjoint(p))
    eigenvalues = _eigvalsh(herm)
    if p.ndim == 4:
        lowest = np.maximum(-eigenvalues[..., 0].min(axis=-1), 0.0)
        psd_scale = _floor_one(eigenvalues[..., -1].max(axis=-1))
    else:
        lowest = max(0.0, -float(eigenvalues[..., 0].min()))
        psd_scale = max(1.0, float(eigenvalues[..., -1].max()))
    if adjoint_modulus is None:
        adjoint_modulus = _modulus(_svd(_adjoint(t)))
    up = u @ p

    residuals = {
        "reconstruction": _residual(t, up),
        "modulus_hermitian": fro_norm(p - _adjoint(p)) / _floor_one(fro_norm(p)),
        "modulus_psd": lowest / psd_scale,
        "partial_isometry": _residual(u @ _adjoint(u) @ u, u),
        "range_condition": _residual(_adjoint(u) @ u, _range_projection(p, cfg)),
        "adjoint_modulus": _residual(up @ _adjoint(u), adjoint_modulus),
        "intertwine": _residual(up, adjoint_modulus @ u),
    }
    verdicts = [value <= polar_tolerance(name, cfg) for name, value in residuals.items()]
    ok = np.logical_and.reduce(verdicts) if p.ndim == 4 else all(verdicts)
    return PolarCheck(ok=ok, residuals=residuals)


def _pinv(decomp: SvdResult, cfg: ToleranceConfig) -> np.ndarray:
    """``moore_penrose`` of the operator whose SVD is ``decomp``, or of each
    operator of a stack of operators, with the rank cutoffs of
    ``core._rank``: ``X_r diag(1/s_r) W_r*``. Only the leading ``r``
    columns of ``X`` are divided, and the product is that of
    ``_leading_product``, so each operator of a stack gets bitwise the
    inverse it gets alone; rank 0 gives the zero matrix."""
    s = decomp.singular_values
    r = _rank(s, cfg)
    keep = np.arange(s.shape[-1]) < np.expand_dims(r, -1)
    x = decomp.right_vectors
    scaled = np.divide(x, s[..., None, :], out=np.zeros_like(x), where=keep[..., None, :])
    return _leading_product(scaled, decomp.left_vectors, r)


def moore_penrose(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Moore-Penrose inverse via SVD inversion above the rank cutoff."""
    return moore_penrose_from_svd(svd(t), cfg)


def moore_penrose_from_svd(
    decomp: SvdResult, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """``moore_penrose`` of the matrix whose SVD (``core.svd``) is
    ``decomp``, for a caller that factors the matrix once for this and for
    more."""
    return _pinv(decomp, cfg)


def penrose_check(
    t, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PenroseCheck:
    """Evaluate the four Moore-Penrose equations for a candidate inverse ``x``."""
    t = as_operator(t)
    x = as_operator(x)
    if x.shape != (t.shape[1], t.shape[0]):
        raise ValueError(f"candidate shape {x.shape} does not match operator {t.shape}")
    tx = t @ x
    xt = x @ t
    residuals = (
        fro_norm(t @ x @ t - t) / max(1.0, fro_norm(t)),
        fro_norm(x @ t @ x - x) / max(1.0, fro_norm(x)),
        fro_norm(tx.conj().T - tx) / max(1.0, fro_norm(tx)),
        fro_norm(xt.conj().T - xt) / max(1.0, fro_norm(xt)),
    )
    ok = all(value <= cfg.equality_rel_tol for value in residuals)
    return PenroseCheck(residuals=residuals, ok=ok)


def mp_polar_parts(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> PolarParts:
    """Polar decomposition of the Moore-Penrose inverse of a square ``t``.

    If ``t = U |t|`` then the inverse decomposes as ``U* |pinv(t)|``; the
    returned parts pass ``verify_polar`` against ``moore_penrose(t)``.
    """
    t = as_operator(t)
    if t.shape[0] != t.shape[1]:
        raise ValueError(f"expected a square operator, got {t.shape}")
    decomp = svd(t)
    return mp_polar_parts_from_svd(decomp, _svd(_pinv(decomp, cfg)), cfg)


def mp_polar_parts_from_svd(
    decomp: SvdResult, inverse: SvdResult, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PolarParts:
    """``mp_polar_parts`` from the SVD ``decomp`` (``core.svd``) of a square
    matrix and the SVD ``inverse`` of its inverse
    ``moore_penrose_from_svd(decomp)``, which gives the modulus."""
    r = numerical_rank(decomp.singular_values, cfg)
    return PolarParts(
        isometry=_isometry(decomp, r).conj().T,
        modulus=_modulus(inverse),
        rank=r,
        singular_values=inverse.singular_values,
    )
