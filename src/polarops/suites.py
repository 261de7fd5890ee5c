"""Randomized property suites over seeded operator families.

Each suite draws its operators from a caller-supplied generator, evaluates
one family of identities, and returns a :class:`SuiteResult` holding named
check records. The CLI runner renders these as report lines; the acceptance
tests call them directly with pinned seeds, trial counts, and tolerances.
All suites are deterministic given (seed, dim, trials, cfg).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import (
    _definitional_prefix,
    binormal_equivalents,
    centered_order,
    is_binormal,
    is_n_centered_definitional,
    mp_centered_check,
    polar_transfer,
    product_polar,
)
from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    commutes,
    equality_residual,
    fractional_power_psd,
    is_hermitian_psd,
    range_projection,
)
from .decomp import (
    abs_value,
    moore_penrose,
    mp_polar_parts,
    polar_decompose,
    verify_polar,
)
from .sampling import (
    random_binormal,
    random_commuting_moduli_pair,
    random_commuting_psd_pair,
    random_mixed_rank,
    random_nonbinormal,
    random_operator,
    random_psd_pair,
    random_spectrum_operator,
    structured_fixtures,
)
from .shifts import (
    ShiftSpec,
    build_truncated,
    pattern_mismatches,
    v_matrix,
    v_power_entries,
)

__all__ = [
    "CheckRecord",
    "SuiteResult",
    "SUITES",
    "run_suite",
    "suite_polar_contract",
    "suite_centered_oracle",
    "suite_product_polar",
    "suite_polar_transfer",
    "suite_aluthge_binormal",
    "suite_mp_inverse",
    "suite_shift_family",
    "suite_v_entries",
    "suite_psd_pairs",
]

ALUTHGE_EXPONENTS = ((0.5, 0.5), (1.0, 2.0), (math.sqrt(2.0) / 2.0, 3.0))


@dataclass(frozen=True)
class CheckRecord:
    """One named check: a residual (or count) and its verdict."""

    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    records: tuple[CheckRecord, ...]

    @property
    def ok(self) -> bool:
        return all(record.passed for record in self.records)


def _dims_cycle(rng: np.random.Generator, low: int, high: int, count: int):
    return [int(d) for d in rng.integers(low, high + 1, size=count)]


def suite_polar_contract(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """Polar contract on random operators, square and rectangular, full and
    deficient rank: verify_polar must pass every draw."""
    failures = 0
    worst = 0.0
    for index, d in enumerate(_dims_cycle(rng, 2, dim, trials)):
        if index % 4 == 3:
            rows, cols = d, max(2, d - 1)
            t = random_operator(rng, rows, cols)
        else:
            t = random_mixed_rank(rng, d)
        check = verify_polar(t, polar_decompose(t, cfg), cfg)
        worst = max(worst, check.worst())
        if not check.ok:
            failures += 1
    records = (
        CheckRecord("contract_failures", float(failures), failures == 0),
        CheckRecord("worst_residual", worst, worst <= cfg.equality_rel_tol),
    )
    return SuiteResult("polar-contract", trials, records)


def suite_centered_oracle(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    max_n: int = 6,
) -> SuiteResult:
    """Commutator criterion against the definitional check, order by order,
    on random draws plus every structured fixture."""
    operators = [
        random_mixed_rank(rng, d) for d in _dims_cycle(rng, 2, dim, trials)
    ]
    operators.extend(matrix for _, matrix in structured_fixtures(rng))
    disagreements = 0
    report_flags = 0
    for t in operators:
        report = centered_order(t, max_n, cfg)
        if not report.oracle_agrees:
            report_flags += 1
        # The check at max_n holds at order n exactly when its first n
        # powers pass, so one call gives the verdict for every n.
        check = is_n_centered_definitional(t, max_n, cfg)
        pairs = zip(check.equation_residuals, check.range_residuals)
        passing = _definitional_prefix(pairs, cfg)
        for n in range(1, max_n + 1):
            if (passing >= n) != (report.verified_order >= n):
                disagreements += 1
    records = (
        CheckRecord("order_disagreements", float(disagreements), disagreements == 0),
        CheckRecord("oracle_flag_failures", float(report_flags), report_flags == 0),
    )
    return SuiteResult("centered-oracle", len(operators), records)


def suite_product_polar(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    constructed: int | None = None,
) -> SuiteResult:
    """Three-way product equivalence on independent pairs, plus constructed
    commuting-moduli pairs that must land on the polar side; the transfer
    factor must reproduce the product's polar factor on every pair."""
    if constructed is None:
        constructed = trials // 4
    mismatches = 0
    constructed_failures = 0
    worst_transfer = 0.0
    for d in _dims_cycle(rng, 2, dim, trials):
        report = product_polar(
            random_operator(rng, d), random_operator(rng, d), cfg
        )
        if not report.agree():
            mismatches += 1
        worst_transfer = max(worst_transfer, report.transfer_residual)
    for d in _dims_cycle(rng, 2, dim, constructed):
        t, s = random_commuting_moduli_pair(rng, d)
        report = product_polar(t, s, cfg)
        if not report.agree():
            mismatches += 1
        if not report.is_polar:
            constructed_failures += 1
        worst_transfer = max(worst_transfer, report.transfer_residual)
    records = (
        CheckRecord("three_way_mismatches", float(mismatches), mismatches == 0),
        CheckRecord(
            "constructed_not_polar",
            float(constructed_failures),
            constructed_failures == 0,
        ),
        CheckRecord(
            "worst_transfer_residual",
            worst_transfer,
            worst_transfer <= cfg.equality_rel_tol,
        ),
    )
    return SuiteResult("product-polar", trials + constructed, records)


def suite_polar_transfer(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """Both transfer directions must pass the full polar contract on every
    random pair, deficient draws included."""
    failures = 0
    worst = 0.0
    for index, d in enumerate(_dims_cycle(rng, 2, dim, trials)):
        if index % 3 == 2:
            t, s = random_mixed_rank(rng, d), random_mixed_rank(rng, d)
        else:
            t, s = random_operator(rng, d), random_operator(rng, d)
        report = polar_transfer(t, s, cfg)
        worst = max(worst, report.product_check.worst(), report.moduli_check.worst())
        if not report.ok:
            failures += 1
    records = (
        CheckRecord("transfer_failures", float(failures), failures == 0),
        CheckRecord("worst_residual", worst, worst <= cfg.equality_rel_tol),
    )
    return SuiteResult("polar-transfer", trials, records)


def suite_aluthge_binormal(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """Binormal draws must satisfy all five equivalent statements (closed
    forms included); non-binormal draws must falsify all five at once."""
    half = trials // 2
    binormal_failures = 0
    nonbinormal_failures = 0
    worst_closed_form = 0.0
    pairs = list(ALUTHGE_EXPONENTS)
    for d in _dims_cycle(rng, 2, dim, half):
        report = binormal_equivalents(random_binormal(rng, d), pairs, cfg)
        if not (all(report.statements) and report.agree()):
            binormal_failures += 1
        for check in report.pair_checks:
            worst_closed_form = max(
                worst_closed_form,
                check.modulus_form_residual,
                check.adjoint_form_residual,
            )
    for d in _dims_cycle(rng, 2, dim, half):
        report = binormal_equivalents(random_nonbinormal(rng, d), pairs, cfg)
        if any(report.statements) or not report.agree():
            nonbinormal_failures += 1
    records = (
        CheckRecord(
            "binormal_violations", float(binormal_failures), binormal_failures == 0
        ),
        CheckRecord(
            "nonbinormal_violations",
            float(nonbinormal_failures),
            nonbinormal_failures == 0,
        ),
        CheckRecord(
            "worst_closed_form_residual",
            worst_closed_form,
            worst_closed_form <= cfg.equality_rel_tol,
        ),
    )
    return SuiteResult("aluthge-binormal", 2 * half, records)


def suite_mp_inverse(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    max_n: int = 6,
) -> SuiteResult:
    """Moore-Penrose interplay: modulus identities, the inverse polar
    decomposition through the adjoint factor, power compatibility up to the
    verified order, preservation of the centered order, and preservation of
    binormality."""
    operators = [
        random_spectrum_operator(
            rng, d, rank=(d if i % 3 else max(1, d - 1))
        )
        for i, d in enumerate(_dims_cycle(rng, 2, dim, trials))
    ]
    operators.extend(matrix for _, matrix in structured_fixtures(rng))
    failures = 0
    worst = 0.0
    for t in operators:
        pinv = moore_penrose(t, cfg)
        residuals = [
            equality_residual(
                moore_penrose(abs_value(t, cfg), cfg),
                abs_value(pinv.conj().T, cfg),
            ),
            equality_residual(
                moore_penrose(abs_value(t.conj().T, cfg), cfg),
                abs_value(pinv, cfg),
            ),
        ]
        inverse_polar = verify_polar(pinv, mp_polar_parts(t, cfg), cfg)
        residuals.append(inverse_polar.worst())

        report = centered_order(t, max_n, cfg)
        inverse_report = centered_order(pinv, max_n, cfg)
        mp_report = mp_centered_check(t, report.verified_order, cfg)
        residuals.extend(mp_report.power_inverse_residuals)

        ok = (
            all(r <= cfg.equality_rel_tol for r in residuals)
            and inverse_polar.ok
            and mp_report.ok
            and inverse_report.verified_order == report.verified_order
            and is_binormal(t, cfg)[0] == is_binormal(pinv, cfg)[0]
        )
        worst = max(worst, max(residuals))
        if not ok:
            failures += 1
    records = (
        CheckRecord("mp_failures", float(failures), failures == 0),
        CheckRecord("worst_residual", worst, worst <= cfg.equality_rel_tol),
    )
    return SuiteResult("mp-inverse", len(operators), records)


def suite_shift_family(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    orders: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
) -> SuiteResult:
    """Exactness of the generated shifts: verified order n by both routes and
    weight-pattern agreement with the numeric commutators for every power
    still present after truncation. ``dim`` and ``trials`` are ignored (the
    family is fixed); they are accepted for runner uniformity."""
    del rng, dim, trials
    wrong_orders = 0
    oracle_failures = 0
    mismatches = 0
    for n in orders:
        spec = ShiftSpec.from_recipe(n)
        t = build_truncated(spec)
        report = centered_order(t, n + 1, cfg)
        if report.verified_order != n:
            wrong_orders += 1
        check = is_n_centered_definitional(t, n + 1, cfg)
        pairs = zip(check.equation_residuals, check.range_residuals)
        if not (report.oracle_agrees and _definitional_prefix(pairs, cfg) == n):
            oracle_failures += 1
        mismatches += pattern_mismatches(spec, polar_decompose(t, cfg), cfg)
    records = (
        CheckRecord("wrong_orders", float(wrong_orders), wrong_orders == 0),
        CheckRecord("oracle_failures", float(oracle_failures), oracle_failures == 0),
        CheckRecord("pattern_mismatches", float(mismatches), mismatches == 0),
    )
    return SuiteResult("shift-family", len(orders), records)


def suite_v_entries(
    rng: np.random.Generator | None = None,
    dim: int = 0,
    trials: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    max_k: int = 30,
) -> SuiteResult:
    """Closed-form power entries of the driving matrix against numerically
    computed powers, the vanishing (3,3) entry at k = 1, its non-vanishing
    for k >= 2, and the shift identity v33(k) = v13(k+1)."""
    del rng, dim, trials
    v = v_matrix()
    power = np.eye(3, dtype=np.complex128)
    worst_match = 0.0
    min_v33 = float("inf")
    worst_identity = 0.0
    for k in range(1, max_k + 1):
        power = power @ v
        v13, v33 = v_power_entries(k)
        worst_match = max(
            worst_match, abs(power[0, 2] - v13), abs(power[2, 2] - v33)
        )
        if k >= 2:
            min_v33 = min(min_v33, abs(v33))
        next_v13 = v_power_entries(k + 1)[0]
        worst_identity = max(worst_identity, abs(v33 - next_v13))
    v33_first = abs(v_power_entries(1)[1])
    records = (
        CheckRecord("worst_power_match", worst_match, worst_match <= 1e-9),
        CheckRecord("v33_at_1", v33_first, v33_first <= 1e-15),
        CheckRecord("min_v33_from_2", min_v33, min_v33 > 1e-8),
        CheckRecord("worst_shift_identity", worst_identity, worst_identity <= 1e-12),
    )
    return SuiteResult("v-entries", max_k, records)


def suite_psd_pairs(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """PSD-pair functional-calculus properties: products of commuting pairs
    are PSD and stay commuting under fractional powers and range
    projections; non-commuting pairs yield non-PSD products and fail the
    projection-product reconstruction; range projections are stable under
    ``T T*`` and under positive powers."""
    half = trials // 2
    failures = 0
    exponents = (0.5, 1.0 / 3.0, 2.0)
    for index, d in enumerate(_dims_cycle(rng, 2, dim, half)):
        a, b = random_commuting_psd_pair(rng, d, deficient=index % 3 == 0)
        checks = [is_hermitian_psd(a @ b, cfg)]
        for exponent in exponents:
            checks.append(commutes(fractional_power_psd(a, exponent, cfg), b, cfg))
        proj_a = range_projection(a, cfg)
        proj_b = range_projection(b, cfg)
        checks.append(commutes(a, proj_b, cfg))
        checks.append(commutes(proj_a, proj_b, cfg))
        checks.append(
            equality_residual(
                range_projection(fractional_power_psd(a, 0.5, cfg), cfg), proj_a
            )
            <= cfg.equality_rel_tol
        )
        product = a @ b
        reconstruction = equality_residual(
            proj_a @ proj_b @ abs_value(product, cfg), product
        )
        checks.append(reconstruction <= cfg.equality_rel_tol)
        if not all(checks):
            failures += 1
    for d in _dims_cycle(rng, 2, dim, half):
        a, b = random_psd_pair(rng, d)
        checks = [not is_hermitian_psd(a @ b, cfg)]
        product = a @ b
        reconstruction = equality_residual(
            range_projection(a, cfg)
            @ range_projection(b, cfg)
            @ abs_value(product, cfg),
            product,
        )
        checks.append(reconstruction > cfg.equality_rel_tol)
        t = random_operator(rng, d)
        checks.append(
            equality_residual(
                range_projection(t, cfg), range_projection(t @ t.conj().T, cfg)
            )
            <= cfg.equality_rel_tol
        )
        if not all(checks):
            failures += 1
    records = (
        CheckRecord("psd_pair_failures", float(failures), failures == 0),
    )
    return SuiteResult("psd-pairs", 2 * half, records)


SUITES = {
    "polar-contract": suite_polar_contract,
    "centered-oracle": suite_centered_oracle,
    "product-polar": suite_product_polar,
    "polar-transfer": suite_polar_transfer,
    "aluthge-binormal": suite_aluthge_binormal,
    "mp-inverse": suite_mp_inverse,
    "shift-family": suite_shift_family,
    "v-entries": suite_v_entries,
    "psd-pairs": suite_psd_pairs,
}


def run_suite(
    name: str,
    seed: int,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> list[SuiteResult]:
    """Run one named suite, or all of them, each on a fresh generator seeded
    from ``seed`` so results do not depend on suite order."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        known = ", ".join(sorted([*SUITES, "all"]))
        raise ValueError(f"unknown suite {name!r}; known: {known}")
    results = []
    for index, suite_name in enumerate(names):
        rng = np.random.default_rng(seed + 1000 * index)
        results.append(SUITES[suite_name](rng, dim, trials, cfg))
    return results
