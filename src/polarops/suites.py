"""Randomized property suites over seeded operator families.

Each suite draws its operators from a caller-supplied generator, evaluates
one family of identities, and returns a :class:`SuiteResult` holding named
check records. The CLI runner renders these as report lines; the acceptance
tests call them directly with pinned seeds, trial counts, and tolerances.
All suites are deterministic given (seed, dim, trials, cfg).

The seven random suites (``polar-contract``, ``centered-oracle``,
``product-polar``, ``polar-transfer``, ``aluthge-binormal``, ``mp-inverse``
and ``psd-pairs``) draw every trial's operators first, in the order of a
per-trial loop (no evaluation consumes the generator), evaluate each group
of draws of one shape as one stack of operators (``_by_shape``) through the
public functions, which take stacks, and fold the per-trial verdicts and
worst residuals back in trial order; each trial's values are bitwise those
it gets alone. ``centered-oracle`` walks the powers of a whole group at
once (``classify.centered_order`` on a stack of operators), and
``mp-inverse`` those of a group and of its inverses in one walk of the
criterion (``classify.mp_centered_check`` on a stack of operators).
``shift-family`` and ``v-entries`` check fixed families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .classify import (
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
    _adjoint,
    _psd_powers,
    commutes,
    equality_residual,
    is_hermitian_psd,
    range_projection,
    svd,
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


def _share(trials: int, parts: int) -> int:
    """``trials // parts`` draws, but at least one whenever ``trials`` is
    positive, so that no part of a suite passes on an empty set."""
    return max(1, trials // parts) if trials > 0 else 0


def _by_shape(draws: list[tuple[np.ndarray, ...]], evaluate) -> list:
    """``evaluate(*stacks)`` once per group of draws of one shape, each
    operand stacked as operators of one matrix, ``(draws, 1, m, n)``; the
    results, one per draw, in draw order."""
    groups: dict[tuple, list[int]] = {}
    for index, operands in enumerate(draws):
        groups.setdefault(tuple(x.shape for x in operands), []).append(index)
    results: list = [None] * len(draws)
    for members in groups.values():
        stacks = [np.stack(column)[:, None] for column in zip(*(draws[i] for i in members))]
        for index, result in zip(members, evaluate(*stacks)):
            results[index] = result
    return results


def suite_polar_contract(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """Polar contract on random operators, square and rectangular, full and
    deficient rank: verify_polar must pass every draw."""
    draws = []
    for index, d in enumerate(_dims_cycle(rng, 2, dim, trials)):
        if index % 4 == 3:
            rows, cols = d, max(2, d - 1)
            draws.append((random_operator(rng, rows, cols),))
        else:
            draws.append((random_mixed_rank(rng, d),))

    checks = _by_shape(draws, lambda t: verify_polar(t, polar_decompose(t, cfg), cfg))
    failures = sum(not check.ok for check in checks)
    worst = max([0.0, *(check.worst() for check in checks)])
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

    reports = _by_shape([(t,) for t in operators], lambda t: centered_order(t, max_n, cfg))
    disagreements = 0
    report_flags = 0
    tol = cfg.equality_rel_tol
    for t, report in zip(operators, reports):
        # The report's oracle agrees exactly when the definitional check
        # passes up to the verified order and no further; only a flagged
        # operator needs the check over all max_n powers. The routes then
        # disagree at the orders between the two.
        if not report.oracle_agrees:
            report_flags += 1
            check = is_n_centered_definitional(t, max_n, cfg)
            pairs = zip(check.equation_residuals, check.range_residuals)
            holds = (a <= tol and b <= tol for a, b in pairs)
            passing = len(list(takewhile(bool, holds)))
            disagreements += abs(passing - report.verified_order)
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
        constructed = _share(trials, 4)
    draws = [
        (random_operator(rng, d), random_operator(rng, d))
        for d in _dims_cycle(rng, 2, dim, trials)
    ]
    draws += [
        random_commuting_moduli_pair(rng, d)
        for d in _dims_cycle(rng, 2, dim, constructed)
    ]
    reports = _by_shape(draws, lambda t, s: product_polar(t, s, cfg))
    mismatches = sum(not report.agree() for report in reports)
    constructed_failures = sum(
        not report.is_polar for report in reports[len(reports) - constructed :]
    )
    worst_transfer = max([0.0, *(report.transfer_residual for report in reports)])
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
    draws = []
    for index, d in enumerate(_dims_cycle(rng, 2, dim, trials)):
        if index % 3 == 2:
            draws.append((random_mixed_rank(rng, d), random_mixed_rank(rng, d)))
        else:
            draws.append((random_operator(rng, d), random_operator(rng, d)))
    reports = _by_shape(draws, lambda t, s: polar_transfer(t, s, cfg))
    failures = sum(not report.ok for report in reports)
    worst = max(
        [
            0.0,
            *(
                max(report.product_check.worst(), report.moduli_check.worst())
                for report in reports
            ),
        ]
    )
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
    half = _share(trials, 2)
    draws = [(random_binormal(rng, d),) for d in _dims_cycle(rng, 2, dim, half)]
    draws += [(random_nonbinormal(rng, d),) for d in _dims_cycle(rng, 2, dim, half)]
    pairs = list(ALUTHGE_EXPONENTS)
    reports = _by_shape(draws, lambda t: binormal_equivalents(t, pairs, cfg))
    binormal_failures = sum(
        not (all(report.statements) and report.agree()) for report in reports[:half]
    )
    nonbinormal_failures = sum(
        any(report.statements) or not report.agree() for report in reports[half:]
    )
    worst_closed_form = max(
        [
            0.0,
            *(
                max(check.modulus_form_residual, check.adjoint_form_residual)
                for report in reports[:half]
                for check in report.pair_checks
            ),
        ]
    )
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

    def evaluate(t: np.ndarray) -> list[tuple[bool, list[float]]]:
        # One stacked SVD of T and T* (pinv, U, |T|, |T*|), one of pinv,
        # pinv*, |T| and |T*| (pinv's polar parts, |pinv*| and the inverses
        # of the moduli); mp_polar_parts takes pinv's polar factor as U*,
        # from the polar parts of T.
        count = len(t)
        first = np.concatenate([t, _adjoint(t)])
        decomp = svd(first)
        factors = polar_decompose(first, cfg, decomp=decomp)
        pinv = moore_penrose(t, cfg, decomp=decomp[:count])
        second = np.concatenate([pinv, _adjoint(pinv), factors.modulus])
        inverse = svd(second)
        inverse_factors = polar_decompose(second, cfg, decomp=inverse)
        inverse_parts = inverse_factors[:count]
        inverse_adjoint_parts = inverse_factors[count : 2 * count]
        modulus_residuals = equality_residual(
            moore_penrose(second[2 * count :], cfg, decomp=inverse[2 * count :]),
            np.concatenate([inverse_adjoint_parts.modulus, inverse_parts.modulus]),
        ).tolist()
        inverse_polar = verify_polar(
            pinv,
            mp_polar_parts(t, cfg, inverse_decomp=inverse[:count], parts=factors[:count]),
            cfg,
        )
        binormal = [flag for flag, _ in is_binormal(np.concatenate([t, pinv]), cfg)]
        mp_reports = mp_centered_check(
            t,
            max_n,
            cfg,
            decomp=decomp[:count],
            parts=factors[:count],
            adjoint_parts=factors[count:],
            inverse_parts=inverse_parts,
        )
        results = []
        for i, mp_report in enumerate(mp_reports):
            residuals = [
                modulus_residuals[i],
                modulus_residuals[count + i],
                inverse_polar[i].worst(),
                *mp_report.power_inverse_residuals,
            ]
            ok = (
                all(r <= cfg.equality_rel_tol for r in residuals)
                and inverse_polar[i].ok
                and mp_report.ok
                and mp_report.inverse_verified_order == mp_report.order
                and binormal[i] == binormal[count + i]
            )
            results.append((ok, residuals))
        return results

    failures = 0
    worst = 0.0
    for ok, residuals in _by_shape([(t,) for t in operators], evaluate):
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
        # Every power present after truncation: k = 1..blocks-2.
        report = centered_order(t, spec.blocks - 1, cfg)
        if report.verified_order != n:
            wrong_orders += 1
        if not (report.oracle_agrees and report.verified_order == n):
            oracle_failures += 1
        mismatches += pattern_mismatches(spec, report.commute_decisions())
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
    half = _share(trials, 2)
    tol = cfg.equality_rel_tol
    commuting = [
        random_commuting_psd_pair(rng, d, deficient=index % 3 == 0)
        for index, d in enumerate(_dims_cycle(rng, 2, dim, half))
    ]
    other = [
        (*random_psd_pair(rng, d), random_operator(rng, d))
        for d in _dims_cycle(rng, 2, dim, half)
    ]

    def commuting_checks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        product = a @ b
        power = _psd_powers(a, cfg)
        projections = range_projection(np.concatenate([a, b, power(0.5)]), cfg)
        proj_a, proj_b, proj_root = np.split(projections, 3)
        checks = [is_hermitian_psd(product, cfg)]
        checks += [commutes(power(exponent), b, cfg) for exponent in (0.5, 1 / 3, 2.0)]
        checks += [commutes(a, proj_b, cfg), commutes(proj_a, proj_b, cfg)]
        checks.append(equality_residual(proj_root, proj_a) <= tol)
        reconstruction = proj_a @ proj_b @ abs_value(product, cfg)
        checks.append(equality_residual(reconstruction, product) <= tol)
        return np.logical_and.reduce(checks)

    def other_checks(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
        product = a @ b
        projections = range_projection(np.concatenate([a, b, t, t @ _adjoint(t)]), cfg)
        proj_a, proj_b, proj_t, proj_gram = np.split(projections, 4)
        reconstruction = proj_a @ proj_b @ abs_value(product, cfg)
        checks = [
            ~is_hermitian_psd(product, cfg),
            equality_residual(reconstruction, product) > tol,
            equality_residual(proj_t, proj_gram) <= tol,
        ]
        return np.logical_and.reduce(checks)

    passed = _by_shape(commuting, commuting_checks) + _by_shape(other, other_checks)
    failures = sum(not ok for ok in passed)
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
