"""Classification of dense complex matrices through their polar factors.

Implements the commutator criterion for n-centered operators next to the
brute-force definitional check, the three-way equivalence for polar
decompositions of products, the transfer construction that moves a polar
factor between ``T S`` and ``|T| |S*|``, Aluthge-type transforms with their
binormality equivalences, and the interplay between centered order and the
Moore-Penrose inverse.

Conventions: ``U`` always denotes the canonical polar factor of the operator
at hand (the partial isometry vanishing on the null space), and every
"commutes" decision uses the scaled threshold from
:class:`polarops.core.ToleranceConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, takewhile

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    as_operator,
    commutator_norm,
    commutator_threshold,
    commutes,
    equality_residual,
    fractional_power_psd,
    is_hermitian_psd,
    numerical_rank,
    range_projection,
    svd,
)
from .decomp import (
    PolarCheck,
    PolarParts,
    abs_value,
    moore_penrose,
    polar_decompose,
    verify_polar,
)

__all__ = [
    "CenteredReport",
    "DefinitionalCheck",
    "ProductPolarReport",
    "TransferReport",
    "AluthgeParts",
    "AluthgePairCheck",
    "BinormalEquivalents",
    "PowersEntry",
    "PowersReport",
    "MpCenteredReport",
    "is_binormal",
    "centered_order",
    "is_n_centered_definitional",
    "product_polar",
    "polar_transfer",
    "positive_product_polar",
    "aluthge",
    "binormal_equivalents",
    "powers_report",
    "mp_centered_check",
]


def _require_square(t: np.ndarray) -> np.ndarray:
    if t.shape[0] != t.shape[1]:
        raise ValueError(f"expected a square operator, got {t.shape}")
    return t


@dataclass(frozen=True)
class CenteredReport:
    """Result of the commutator-criterion route for the centered order.

    ``commutator_norms[k-1]`` holds ``fro([U^k |T| (U^k)*, |T|])`` for
    k = 1..max_order_checked-1. ``verified_order`` is 1 plus the length of
    the initial run of vanishing commutators, capped at ``max_order_checked``;
    a later vanishing commutator after a non-vanishing one cannot raise the
    order. ``oracle_agrees`` records, from one pass over the powers, that the
    definitional check holds at ``verified_order`` and, when there is room,
    fails at ``verified_order + 1``.
    """

    dimension: int
    max_order_checked: int
    verified_order: int
    commutator_norms: tuple[float, ...]
    binormal: bool
    oracle_agrees: bool

    def centered_flag(self) -> bool:
        """Proxy for "centered at every order": the run never broke and the
        bound checked is at least dimension squared."""
        return (
            self.verified_order == self.max_order_checked
            and self.max_order_checked >= self.dimension**2
        )


@dataclass(frozen=True)
class DefinitionalCheck:
    """Per-power residuals of the definitional n-centered check.

    For each k = 1..n: ``equation_residuals[k-1]`` is the scaled defect of
    ``T^k = U^k |T^k|`` and ``range_residuals[k-1]`` the defect of
    ``(U^k)* U^k`` against the range projection of ``(T^k)*``. Both vanishing
    means ``U^k |T^k|`` is the polar decomposition of ``T^k``.
    """

    ok: bool
    equation_residuals: tuple[float, ...]
    range_residuals: tuple[float, ...]


@dataclass(frozen=True)
class ProductPolarReport:
    """Three-way product test for ``T S`` plus the transfer-route factor.

    The three booleans (``moduli_commute``, ``equation_holds``, ``is_polar``)
    are equivalent in exact arithmetic: ``[|T|, |S*|] = 0`` iff
    ``T S = U V |T S|`` holds iff that equation is the polar decomposition.
    ``transfer_isometry`` is ``U W V`` with ``W`` the polar factor of
    ``|T| |S*|``; it reproduces the polar factor of ``T S`` for every pair,
    commuting moduli or not, and ``transfer_residual`` measures that.
    """

    commutator_norm: float
    moduli_commute: bool
    candidate_isometry: np.ndarray
    equality_residual: float
    equation_holds: bool
    is_polar: bool
    transfer_isometry: np.ndarray
    transfer_residual: float

    def booleans(self) -> tuple[bool, bool, bool]:
        return (self.moduli_commute, self.equation_holds, self.is_polar)

    def agree(self) -> bool:
        return len(set(self.booleans())) == 1


@dataclass(frozen=True)
class TransferReport:
    """Both directions of the polar-factor transfer between ``T S`` and
    ``|T| |S*|``: the product check uses ``U W1 V`` where ``W1`` comes from
    the moduli product, the moduli check uses ``U* W2 V*`` where ``W2`` comes
    from the product itself."""

    product_check: PolarCheck
    moduli_check: PolarCheck
    ok: bool


@dataclass(frozen=True)
class AluthgeParts:
    """Aluthge-type transform ``|T|^alpha U |T|^beta`` and the associated
    partial isometry ``U* U U`` (the polar factor of the transform whenever
    the operator is binormal)."""

    alpha: float
    beta: float
    transform: np.ndarray
    tilde_u: np.ndarray


@dataclass(frozen=True)
class AluthgePairCheck:
    """Evaluation of the binormality identities at one (alpha, beta)."""

    alpha: float
    beta: float
    equality_residual: float
    equality_holds: bool
    polar_check: PolarCheck
    modulus_form_residual: float
    modulus_form_holds: bool
    adjoint_form_residual: float
    adjoint_form_holds: bool


@dataclass(frozen=True)
class BinormalEquivalents:
    """The five equivalent statements evaluated over a sample of exponents.

    statements = (binormal, square is polar through U^2, transform equation
    holds at every sampled pair, transform polar contract holds at every
    sampled pair, both closed-form moduli identities hold at every sampled
    pair). All five coincide in exact arithmetic.
    """

    binormal: bool
    two_centered: bool
    pair_checks: tuple[AluthgePairCheck, ...]
    statements: tuple[bool, bool, bool, bool, bool]

    def agree(self) -> bool:
        return len(set(self.statements)) == 1


@dataclass(frozen=True)
class PowersEntry:
    """Power-n data for the polar factor ``U``: the products
    ``p_final = U^n (U^n)*`` and ``p_initial = (U^n)* U^n`` (projections
    exactly when ``U^n`` is a partial isometry), the commutators that govern
    whether ``U^{n+1}`` stays a partial isometry, and the residuals of the
    iterated-transform identities."""

    n: int
    p_final: np.ndarray
    p_initial: np.ndarray
    is_partial_isometry: bool
    initial_commutator_norm: float
    initial_commutes: bool
    final_commutator_norm: float
    final_commutes: bool
    tilde_power_residual: float
    tilde_projection_residual: float


@dataclass(frozen=True)
class PowersReport:
    entries: tuple[PowersEntry, ...]

    def entry(self, n: int) -> PowersEntry:
        return self.entries[n - 1]


@dataclass(frozen=True)
class MpCenteredReport:
    """Centered-order interplay with the Moore-Penrose inverse.

    ``power_inverse_residuals[k-1]`` is the scaled defect of
    ``pinv(T^k) = pinv(T)^k``. ``inverse_verified_order`` comes from running
    the commutator criterion on the inverse and must reach ``order``.
    The modulus commutator lists are populated only when the operator is
    (order+1)-centered, in which case both must vanish for k = 1..order.
    """

    order: int
    power_inverse_residuals: tuple[float, ...]
    inverse_verified_order: int
    checked_modulus_commutators: bool
    modulus_commutator_norms: tuple[float, ...]
    adjoint_modulus_commutator_norms: tuple[float, ...]
    ok: bool


def is_binormal(
    t, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[bool, float]:
    """Whether ``[T* T, T T*]`` vanishes, plus the raw commutator norm."""
    t = _require_square(as_operator(t))
    left = t.conj().T @ t
    right = t @ t.conj().T
    return commutes(left, right, cfg), commutator_norm(left, right)


def _definitional_residuals(t: np.ndarray, u: np.ndarray, cfg: ToleranceConfig):
    """Yield the ``(equation, range)`` residuals of ``T^k = U^k |T^k|`` for
    k = 1, 2, ..., with ``u`` the polar factor of ``t``. One SVD of each
    power, its own polar decomposition ``U_k |T^k|``, gives ``|T^k|`` and,
    as ``U_k* U_k``, the range projection of ``(T^k)*``."""
    t_pow, u_pow = t, u
    while True:
        parts = polar_decompose(t_pow, cfg)
        yield (
            equality_residual(t_pow, u_pow @ parts.modulus),
            equality_residual(
                u_pow.conj().T @ u_pow, parts.isometry.conj().T @ parts.isometry
            ),
        )
        t_pow, u_pow = t_pow @ t, u_pow @ u


def _definitional_prefix(residuals, cfg: ToleranceConfig) -> int:
    """Number of leading ``(equation, range)`` residual pairs that both
    vanish; consumes ``residuals`` only up to the first failing power."""
    tol = cfg.equality_rel_tol
    return len(list(takewhile(lambda r: r[0] <= tol and r[1] <= tol, residuals)))


def centered_order(
    t, max_n: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> CenteredReport:
    """Largest verified centered order via the commutator criterion.

    The operator is (k+1)-centered exactly when ``[U^j |T| (U^j)*, |T|]``
    vanishes for j = 1..k, so the verified order is one plus the initial run
    of vanishing commutators. Norms keep being reported past the first
    failure for diagnostics. ``oracle_agrees`` comes from one pass of the
    definitional route with the same ``U``, which factors ``T^k`` for
    k = 1..min(verified + 1, max_n) and stops at the first failing power.
    """
    t = _require_square(as_operator(t))
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    parts = polar_decompose(t, cfg)
    u, p = parts.isometry, parts.modulus

    norms: list[float] = []
    run_intact = True
    verified = 1
    u_pow = u
    for _ in range(1, max_n):
        conjugated = u_pow @ p @ u_pow.conj().T
        norms.append(commutator_norm(conjugated, p))
        if run_intact and norms[-1] <= commutator_threshold(conjugated, p, cfg):
            verified += 1
        else:
            run_intact = False
        u_pow = u_pow @ u

    powers = islice(_definitional_residuals(t, u, cfg), min(verified + 1, max_n))
    agrees = _definitional_prefix(powers, cfg) == verified
    return CenteredReport(
        dimension=t.shape[0],
        max_order_checked=max_n,
        verified_order=verified,
        commutator_norms=tuple(norms),
        binormal=verified >= 2,
        oracle_agrees=agrees,
    )


def is_n_centered_definitional(
    t, n: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> DefinitionalCheck:
    """Brute-force check that ``T^k = U^k |T^k|`` is the polar decomposition
    for every k = 1..n, with ``U`` the polar factor of ``T`` itself. Takes
    n + 1 SVDs: one for ``U`` and one for each power ``T^k``."""
    t = _require_square(as_operator(t))
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    u = polar_decompose(t, cfg).isometry
    residuals = list(islice(_definitional_residuals(t, u, cfg), n))
    equation, ranges = zip(*residuals)
    ok = _definitional_prefix(residuals, cfg) == n
    return DefinitionalCheck(ok=ok, equation_residuals=equation, range_residuals=ranges)


def product_polar(
    t, s, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> ProductPolarReport:
    """Evaluate the product ``T S`` against the candidate factor ``U V``.

    Returns the moduli commutator data, the residual of the equation
    ``T S = U V |T S|``, the full polar-contract verdict for ``(U V, |T S|)``,
    and the unconditional transfer factor ``U W V`` built from the polar
    decomposition of ``|T| |S*|``.
    """
    t = _require_square(as_operator(t))
    s = _require_square(as_operator(s))
    if t.shape != s.shape:
        raise ValueError(f"dimension mismatch: {t.shape} vs {s.shape}")

    t_parts = polar_decompose(t, cfg)
    s_parts = polar_decompose(s, cfg)
    mod_t = t_parts.modulus
    mod_s_adj = abs_value(s.conj().T, cfg)

    product = t @ s
    product_parts = polar_decompose(product, cfg)
    candidate = t_parts.isometry @ s_parts.isometry

    residual = equality_residual(product, candidate @ product_parts.modulus)
    check = verify_polar(
        product,
        PolarParts(
            isometry=candidate,
            modulus=product_parts.modulus,
            rank=product_parts.rank,
        ),
        cfg,
    )

    w = polar_decompose(mod_t @ mod_s_adj, cfg).isometry
    transfer = t_parts.isometry @ w @ s_parts.isometry

    return ProductPolarReport(
        commutator_norm=commutator_norm(mod_t, mod_s_adj),
        moduli_commute=commutes(mod_t, mod_s_adj, cfg),
        candidate_isometry=candidate,
        equality_residual=residual,
        equation_holds=residual <= cfg.equality_rel_tol,
        is_polar=check.ok,
        transfer_isometry=transfer,
        transfer_residual=equality_residual(transfer, product_parts.isometry),
    )


def polar_transfer(
    t, s, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> TransferReport:
    """Move polar factors between ``T S`` and ``|T| |S*|`` in both directions.

    With ``T = U |T|`` and ``S = V |S|``: if ``W1`` is the polar factor of
    ``|T| |S*|`` then ``U W1 V`` is the polar factor of ``T S``; if ``W2`` is
    the polar factor of ``T S`` then ``U* W2 V*`` is the polar factor of
    ``|T| |S*|``. Both candidates are pushed through ``verify_polar``.
    """
    t = _require_square(as_operator(t))
    s = _require_square(as_operator(s))
    if t.shape != s.shape:
        raise ValueError(f"dimension mismatch: {t.shape} vs {s.shape}")

    u = polar_decompose(t, cfg).isometry
    v = polar_decompose(s, cfg).isometry
    product = t @ s
    moduli = abs_value(t, cfg) @ abs_value(s.conj().T, cfg)

    product_parts = polar_decompose(product, cfg)
    moduli_parts = polar_decompose(moduli, cfg)

    product_check = verify_polar(
        product,
        PolarParts(
            isometry=u @ moduli_parts.isometry @ v,
            modulus=product_parts.modulus,
            rank=product_parts.rank,
        ),
        cfg,
    )
    moduli_check = verify_polar(
        moduli,
        PolarParts(
            isometry=u.conj().T @ product_parts.isometry @ v.conj().T,
            modulus=moduli_parts.modulus,
            rank=moduli_parts.rank,
        ),
        cfg,
    )
    return TransferReport(
        product_check=product_check,
        moduli_check=moduli_check,
        ok=product_check.ok and moduli_check.ok,
    )


def positive_product_polar(
    a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PolarParts:
    """Polar decomposition of a product of commuting PSD operators.

    For commuting PSD ``A`` and ``B`` the product is again PSD and its polar
    factor is the product of the two range projections. Raises if the inputs
    are not PSD or do not commute at tolerance.
    """
    a = _require_square(as_operator(a))
    b = _require_square(as_operator(b))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not is_hermitian_psd(a, cfg) or not is_hermitian_psd(b, cfg):
        raise ValueError("inputs must be Hermitian positive semidefinite")
    if not commutes(a, b, cfg):
        raise ValueError("inputs must commute at tolerance")

    product = a @ b
    modulus = 0.5 * (product + product.conj().T)
    parts = PolarParts(
        isometry=range_projection(a, cfg) @ range_projection(b, cfg),
        modulus=modulus,
        rank=numerical_rank(svd(product).singular_values, cfg),
    )
    check = verify_polar(product, parts, cfg)
    if not check.ok:
        raise ValueError(
            f"projection product failed the polar contract: {check.residuals}"
        )
    return parts


def aluthge(
    t, alpha: float, beta: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> AluthgeParts:
    """Aluthge-type transform ``|T|^alpha U |T|^beta`` with its candidate
    polar factor ``U* U U``."""
    t = _require_square(as_operator(t))
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"exponents must be positive, got ({alpha}, {beta})")
    parts = polar_decompose(t, cfg)
    u, p = parts.isometry, parts.modulus
    p_alpha = fractional_power_psd(p, alpha, cfg)
    p_beta = p_alpha if beta == alpha else fractional_power_psd(p, beta, cfg)
    return AluthgeParts(
        alpha=float(alpha),
        beta=float(beta),
        transform=p_alpha @ u @ p_beta,
        tilde_u=u.conj().T @ u @ u,
    )


def binormal_equivalents(
    t,
    alphas_betas: list[tuple[float, float]],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> BinormalEquivalents:
    """Evaluate the five equivalent forms of binormality over a sample of
    exponent pairs.

    The statements: (1) ``[T* T, T T*] = 0``; (2) ``T^2 = U^2 |T^2|`` is the
    polar decomposition; (3) every sampled transform satisfies
    ``T_ab = (U* U U) |T_ab|`` as an equation; (4) those equations are polar
    decompositions; (5) the closed forms ``|T_ab| = U* |T|^a U |T|^b`` and
    ``|T_ab*| = |T|^a |T*|^b`` hold at every sampled pair. In exact
    arithmetic these are equivalent with (3)-(5) quantified over all positive
    exponents; the report evaluates the given finite sample and claims
    nothing beyond it.
    """
    t = _require_square(as_operator(t))
    if not alphas_betas:
        raise ValueError("alphas_betas must contain at least one pair")
    binormal, _ = is_binormal(t, cfg)
    two_centered = is_n_centered_definitional(t, 2, cfg).ok

    parts = polar_decompose(t, cfg)
    u, p = parts.isometry, parts.modulus
    mod_adj = abs_value(t.conj().T, cfg)

    checks: list[AluthgePairCheck] = []
    for alpha, beta in alphas_betas:
        al = aluthge(t, alpha, beta, cfg)
        transform_mod = abs_value(al.transform, cfg)
        eq_res = equality_residual(al.transform, al.tilde_u @ transform_mod)
        polar_check = verify_polar(
            al.transform,
            PolarParts(
                isometry=al.tilde_u,
                modulus=transform_mod,
                rank=numerical_rank(svd(al.transform).singular_values, cfg),
            ),
            cfg,
        )
        p_alpha = fractional_power_psd(p, alpha, cfg)
        p_beta = fractional_power_psd(p, beta, cfg)
        modulus_form = u.conj().T @ p_alpha @ u @ p_beta
        adjoint_form = p_alpha @ fractional_power_psd(mod_adj, beta, cfg)
        mod_res = equality_residual(transform_mod, modulus_form)
        adj_res = equality_residual(
            abs_value(al.transform.conj().T, cfg), adjoint_form
        )
        checks.append(
            AluthgePairCheck(
                alpha=float(alpha),
                beta=float(beta),
                equality_residual=eq_res,
                equality_holds=eq_res <= cfg.equality_rel_tol,
                polar_check=polar_check,
                modulus_form_residual=mod_res,
                modulus_form_holds=mod_res <= cfg.equality_rel_tol,
                adjoint_form_residual=adj_res,
                adjoint_form_holds=adj_res <= cfg.equality_rel_tol,
            )
        )

    statements = (
        binormal,
        two_centered,
        all(c.equality_holds for c in checks),
        all(c.polar_check.ok for c in checks),
        all(c.modulus_form_holds and c.adjoint_form_holds for c in checks),
    )
    return BinormalEquivalents(
        binormal=binormal,
        two_centered=two_centered,
        pair_checks=tuple(checks),
        statements=statements,
    )


def powers_report(
    t, max_n: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> PowersReport:
    """Track powers of the polar factor: the products ``U^n (U^n)*`` and
    ``(U^n)* U^n``, partial-isometry flags, the commutators controlling
    whether the next power stays a partial isometry, and the identities
    ``(U* U U)^n = U* U^{n+1}`` and ``((U* U U)^n)* (U* U U)^n =
    (U^{n+1})* U^{n+1}`` (exact for every partial isometry)."""
    t = _require_square(as_operator(t))
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    u = polar_decompose(t, cfg).isometry
    u_final = u @ u.conj().T
    u_initial = u.conj().T @ u
    tilde = u.conj().T @ u @ u

    entries: list[PowersEntry] = []
    u_pow = u
    tilde_pow = tilde
    for n in range(1, max_n + 1):
        p_final = u_pow @ u_pow.conj().T
        p_initial = u_pow.conj().T @ u_pow
        pi_residual = equality_residual(u_pow @ u_pow.conj().T @ u_pow, u_pow)
        u_next = u_pow @ u
        entries.append(
            PowersEntry(
                n=n,
                p_final=p_final,
                p_initial=p_initial,
                is_partial_isometry=pi_residual <= cfg.equality_rel_tol,
                initial_commutator_norm=commutator_norm(p_initial, u_final),
                initial_commutes=commutes(p_initial, u_final, cfg),
                final_commutator_norm=commutator_norm(p_final, u_initial),
                final_commutes=commutes(p_final, u_initial, cfg),
                tilde_power_residual=equality_residual(
                    tilde_pow, u.conj().T @ u_next
                ),
                tilde_projection_residual=equality_residual(
                    tilde_pow.conj().T @ tilde_pow, u_next.conj().T @ u_next
                ),
            )
        )
        u_pow = u_next
        tilde_pow = tilde_pow @ tilde
    return PowersReport(entries=tuple(entries))


def mp_centered_check(
    t, n: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> MpCenteredReport:
    """Verify that the Moore-Penrose inverse respects the centered structure.

    Requires ``t`` to be n-centered at tolerance (raises otherwise). Checks
    ``pinv(T^k) = pinv(T)^k`` for k = 1..n and that the inverse reaches
    centered order n by the commutator criterion. When the operator is even
    (n+1)-centered, additionally checks that ``U^k (U^k)*`` commutes with
    ``|T|`` and ``(U^k)* U^k`` with ``|T*|`` for k = 1..n.
    """
    t = _require_square(as_operator(t))
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    verified = centered_order(t, n + 1, cfg).verified_order
    if verified < n:
        raise ValueError(
            f"operator is only {verified}-centered at tolerance, need {n}"
        )

    pinv = moore_penrose(t, cfg)
    residuals: list[float] = []
    t_pow = t
    pinv_pow = pinv
    for _ in range(n):
        residuals.append(equality_residual(moore_penrose(t_pow, cfg), pinv_pow))
        t_pow = t_pow @ t
        pinv_pow = pinv_pow @ pinv

    inverse_order = centered_order(pinv, n, cfg).verified_order

    plus_one = verified >= n + 1
    mod_norms: list[float] = []
    adj_norms: list[float] = []
    mod_ok = True
    if plus_one:
        parts = polar_decompose(t, cfg)
        u, p = parts.isometry, parts.modulus
        p_adj = abs_value(t.conj().T, cfg)
        u_pow = u
        for _ in range(n):
            p_final = u_pow @ u_pow.conj().T
            p_initial = u_pow.conj().T @ u_pow
            mod_norms.append(commutator_norm(p_final, p))
            adj_norms.append(commutator_norm(p_initial, p_adj))
            mod_ok = mod_ok and commutes(p_final, p, cfg)
            mod_ok = mod_ok and commutes(p_initial, p_adj, cfg)
            u_pow = u_pow @ u

    ok = (
        all(r <= cfg.equality_rel_tol for r in residuals)
        and inverse_order >= n
        and mod_ok
    )
    return MpCenteredReport(
        order=n,
        power_inverse_residuals=tuple(residuals),
        inverse_verified_order=inverse_order,
        checked_modulus_commutators=plus_one,
        modulus_commutator_norms=tuple(mod_norms),
        adjoint_modulus_commutator_norms=tuple(adj_norms),
        ok=ok,
    )
