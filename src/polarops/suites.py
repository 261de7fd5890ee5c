"""Randomized property suites over seeded operator families.

Each suite draws its operators from a caller-supplied generator, evaluates
one family of identities, and returns a :class:`SuiteResult` holding named
check records. The CLI runner renders these as report lines; the acceptance
tests call them directly with pinned seeds, trial counts, and tolerances.
Every suite takes the runner's four arguments ``(rng, dim, trials, cfg)``
and nothing else, and is deterministic given (seed, dim, trials, cfg); its
fixed settings are the module constants ``MAX_ORDER``, ``SHIFT_ORDERS``,
``V_POWERS`` and ``ALUTHGE_EXPONENTS``, which the acceptance tests pin.

Each record is built by the constructor of its rule (``CheckRecord``): a
count of failing trials passes at zero (``CheckRecord.count``); one value
passes up to its bound (``CheckRecord.bounded``); a worst residual is
``numpy.max([0.0, *values])`` of the trials' residuals, NaN if any is,
and passes up to its bound (``CheckRecord.worst``); a NaN fails both.
v-entries' ``min_v33_from_2``, the one lower bound, is the only record
built by the dataclass itself.

The seven random suites (``polar-contract``, ``centered-oracle``,
``product-polar``, ``polar-transfer``, ``aluthge-binormal``,
``mp-inverse`` and ``psd-pairs``) draw every trial's operators first, in
the order of a per-trial loop (no evaluation consumes the generator;
``centered-oracle``, the constructed pairs of ``product-polar``,
``mp-inverse`` and the commuting pairs of ``psd-pairs`` take their draws
from the stacked draws of ``sampling``, which read the generator in that
order and factor each shape's draws in one stacked call; the non-commuting
pairs of ``psd-pairs`` are drawn one at a time, since a pair may be
redrawn), evaluate each group of draws of one shape as one complex stack
of operators (``_by_shape``, over ``core._grouped``), and fold the
per-trial verdicts and worst residuals back in trial order; each trial's
values are bitwise those it gets alone. The suites' boundary is
``run_suite``: their draws are finite by construction, so each evaluation
calls the kernels of the public functions (``polar_decompose.kernel``,
``verify_polar.kernel``, ``centered_order.kernel``, ...) on the stacks it
builds and checks no operand again (``core._lapack`` still refuses a
non-finite matrix); so does ``shift-family``, on each shift as a stack of
one operator. ``centered-oracle`` walks the powers of a whole group at
once (``centered_order`` on a stack of operators), and ``mp-inverse``
those of a group and of its inverses in one walk of the criterion
(``classify.mp_centered_check`` on a stack of operators). ``psd-pairs``
tests the five commutators of a group of commuting pairs in one
``core._commutator_test`` and takes the residuals of each group in one
``core._residual``. ``shift-family`` and ``v-entries`` check fixed
families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    _commutator_test,
    _grouped,
    _psd_powers,
    _residual,
    is_hermitian_psd,
    range_projection,
    svd,
)
from .decomp import (
    abs_value,
    moore_penrose,
    polar_decompose,
    verify_polar,
)
from .sampling import (
    random_binormals,
    random_commuting_moduli_pairs,
    random_commuting_psd_pairs,
    random_mixed_rank,
    random_mixed_ranks,
    random_nonbinormal,
    random_operator,
    random_psd_pair,
    random_spectrum_operators,
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
# The highest order n at which centered-oracle and mp-inverse decide
# n-centeredness: they walk the powers U^1..U^MAX_ORDER.
MAX_ORDER = 6
# The orders n of the recipe shifts that shift-family certifies.
SHIFT_ORDERS = (2, 3, 4, 5, 6, 7, 8)
# The powers V^1..V^V_POWERS whose entries v-entries checks.
V_POWERS = 30
# v-entries' bounds on the closed form, properties of V, not tolerances.
# v33(1) = 0, so its formula may leave round-off only.
_V33_AT_1 = 1e-15
# v33(k) != 0 for k >= 2 (theta/pi is irrational), well clear of round-off.
_MIN_V33_FROM_2 = 1e-8
# v33(k) = v13(k+1): two formulas in the same unit-size terms.
_SHIFT_IDENTITY = 1e-12


@dataclass(frozen=True)
class CheckRecord:
    """One named check: a residual (or count) and its verdict. A record is
    built by the constructor of its rule: ``count``, ``bounded`` or
    ``worst``."""

    name: str
    residual: float
    passed: bool

    @classmethod
    def count(cls, name: str, count) -> CheckRecord:
        """A count of failures, which passes at zero."""
        return cls(name, float(count), count == 0)

    @classmethod
    def bounded(cls, name: str, value: float, bound: float) -> CheckRecord:
        """One value, which passes up to ``bound``; a NaN fails."""
        return cls(name, float(value), value <= bound)

    @classmethod
    def worst(cls, name: str, values, bound: float) -> CheckRecord:
        """The worst of ``values``, ``numpy.max([0.0, *values])`` (0 for
        none), which passes up to ``bound``; a NaN among them is the worst,
        so it fails."""
        return cls.bounded(name, float(np.max([0.0, *values])), bound)


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
    """``core._grouped`` of the draws, each operand stacked as operators of
    one matrix, ``(draws, 1, m, n)``."""
    return _grouped(draws, lambda *stacks: evaluate(*(x[:, None] for x in stacks)))


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

    def evaluate(t: np.ndarray) -> list:
        parts = polar_decompose.kernel(t, cfg)
        return verify_polar.kernel(t, parts.isometry, parts.modulus, cfg)

    checks = _by_shape(draws, evaluate)
    records = (
        CheckRecord.count("contract_failures", sum(not check.ok for check in checks)),
        CheckRecord.worst(
            "worst_residual", (check.worst() for check in checks), cfg.equality_rel_tol
        ),
    )
    return SuiteResult("polar-contract", trials, records)


def suite_centered_oracle(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """Commutator criterion against the definitional check, order by order,
    on random draws plus every structured fixture, up to ``MAX_ORDER``."""
    operators = random_mixed_ranks(rng, _dims_cycle(rng, 2, dim, trials))
    operators.extend(matrix for _, matrix in structured_fixtures(rng))

    reports = _by_shape([(t,) for t in operators], lambda t: centered_order.kernel(t, MAX_ORDER, cfg))
    disagreements = 0
    report_flags = 0
    for t, report in zip(operators, reports):
        # The report's oracle agrees exactly when the definitional check
        # passes up to the verified order and no further; only a flagged
        # operator needs the check over all MAX_ORDER powers. The routes then
        # disagree at the orders between the two.
        if not report.oracle_agrees:
            report_flags += 1
            check = is_n_centered_definitional.kernel(t[None, None], MAX_ORDER, cfg)
            disagreements += abs(check.passing_powers(cfg) - report.verified_order)
    records = (
        CheckRecord.count("order_disagreements", disagreements),
        CheckRecord.count("oracle_flag_failures", report_flags),
    )
    return SuiteResult("centered-oracle", len(operators), records)


def suite_product_polar(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """Three-way product equivalence on independent pairs, plus a quarter as
    many constructed commuting-moduli pairs that must land on the polar
    side; the transfer factor must reproduce the product's polar factor on
    every pair."""
    constructed = _share(trials, 4)
    draws = [
        (random_operator(rng, d), random_operator(rng, d))
        for d in _dims_cycle(rng, 2, dim, trials)
    ]
    draws += random_commuting_moduli_pairs(rng, _dims_cycle(rng, 2, dim, constructed))
    reports = _by_shape(draws, lambda t, s: product_polar.kernel(t, s, cfg))
    constructed_reports = reports[len(reports) - constructed :]
    records = (
        CheckRecord.count("three_way_mismatches", sum(not r.agree() for r in reports)),
        CheckRecord.count(
            "constructed_not_polar", sum(not r.is_polar for r in constructed_reports)
        ),
        CheckRecord.worst(
            "worst_transfer_residual",
            (report.transfer_residual for report in reports),
            cfg.equality_rel_tol,
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
    reports = _by_shape(draws, lambda t, s: polar_transfer.kernel(t, s, cfg))
    records = (
        CheckRecord.count("transfer_failures", sum(not report.ok for report in reports)),
        CheckRecord.worst(
            "worst_residual",
            (max(r.product_check.worst(), r.moduli_check.worst()) for r in reports),
            cfg.equality_rel_tol,
        ),
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
    draws = [(t,) for t in random_binormals(rng, _dims_cycle(rng, 2, dim, half))]
    draws += [(random_nonbinormal(rng, d),) for d in _dims_cycle(rng, 2, dim, half)]
    pairs = list(ALUTHGE_EXPONENTS)
    reports = _by_shape(draws, lambda t: binormal_equivalents.kernel(t, pairs, cfg))
    records = (
        CheckRecord.count(
            "binormal_violations",
            sum(not (all(r.statements) and r.agree()) for r in reports[:half]),
        ),
        CheckRecord.count(
            "nonbinormal_violations",
            sum(any(r.statements) or not r.agree() for r in reports[half:]),
        ),
        CheckRecord.worst(
            "worst_closed_form_residual",
            (
                max(check.modulus_form_residual, check.adjoint_form_residual)
                for report in reports[:half]
                for check in report.pair_checks
            ),
            cfg.equality_rel_tol,
        ),
    )
    return SuiteResult("aluthge-binormal", 2 * half, records)


def suite_mp_inverse(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """Moore-Penrose interplay: modulus identities, the inverse polar
    decomposition through the adjoint factor, power compatibility up to the
    verified order, preservation of the centered order, and preservation of
    binormality, each up to ``MAX_ORDER``."""
    dims = _dims_cycle(rng, 2, dim, trials)
    ranks = [d if i % 3 else max(1, d - 1) for i, d in enumerate(dims)]
    operators = random_spectrum_operators(rng, dims, ranks)
    operators.extend(matrix for _, matrix in structured_fixtures(rng))

    def evaluate(t: np.ndarray) -> list[tuple[bool, list[float]]]:
        # One stacked SVD of T and T* (pinv, U, |T|, |T*|), one of pinv,
        # pinv*, |T| and |T*| (the polar parts of pinv and pinv* only, and
        # the inverses of the moduli). pinv's polar parts are U* and |pinv|,
        # as decomp.mp_polar_parts takes them from these factorizations.
        count = len(t)
        first = np.concatenate([t, _adjoint(t)])
        decomp = svd.kernel(first)
        factors = polar_decompose.kernel(first, cfg, decomp=decomp)
        pinv = moore_penrose.kernel(t, cfg, decomp=decomp[:count])
        second = np.concatenate([pinv, _adjoint(pinv), factors.modulus])
        inverse = svd.kernel(second)
        both = slice(2 * count)
        inverse_factors = polar_decompose.kernel(second[both], cfg, decomp=inverse[both])
        inverse_parts, inverse_adjoint_parts = inverse_factors[:count], inverse_factors[count:]
        modulus_residuals = _residual(
            moore_penrose.kernel(second[2 * count :], cfg, decomp=inverse[2 * count :]),
            np.concatenate([inverse_adjoint_parts.modulus, inverse_parts.modulus]),
        ).tolist()
        inverse_u = _adjoint(factors.isometry[:count])
        inverse_polar = verify_polar.kernel(pinv, inverse_u, inverse_parts.modulus, cfg)
        binormal = [flag for flag, _ in is_binormal.kernel(np.concatenate([t, pinv]), cfg)]
        mp_reports = mp_centered_check.kernel(
            t,
            MAX_ORDER,
            cfg,
            parts=factors[:count],
            adjoint_parts=factors[count:],
            inverse_parts=inverse_parts,
            pinv=pinv,
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

    results = _by_shape([(t,) for t in operators], evaluate)
    records = (
        CheckRecord.count("mp_failures", sum(not ok for ok, _ in results)),
        CheckRecord.worst(
            "worst_residual", (max(residuals) for _, residuals in results), cfg.equality_rel_tol
        ),
    )
    return SuiteResult("mp-inverse", len(operators), records)


def suite_shift_family(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """Exactness of the generated shifts of orders ``SHIFT_ORDERS``: verified
    order n by both routes and weight-pattern agreement with the numeric
    commutators for every power still present after truncation. ``rng``,
    ``dim`` and ``trials`` are ignored (the family is fixed); they are
    accepted for runner uniformity."""
    del rng, dim, trials
    wrong_orders = 0
    oracle_failures = 0
    mismatches = 0
    for n in SHIFT_ORDERS:
        spec = ShiftSpec.from_recipe(n)
        t = build_truncated(spec)
        # Every power present after truncation: k = 1..blocks-2.
        report = centered_order.kernel(t[None, None], spec.blocks - 1, cfg)[0]
        if report.verified_order != n:
            wrong_orders += 1
        if not (report.oracle_agrees and report.verified_order == n):
            oracle_failures += 1
        mismatches += pattern_mismatches(spec, report.commute_decisions())
    records = (
        CheckRecord.count("wrong_orders", wrong_orders),
        CheckRecord.count("oracle_failures", oracle_failures),
        CheckRecord.count("pattern_mismatches", mismatches),
    )
    return SuiteResult("shift-family", len(SHIFT_ORDERS), records)


def suite_v_entries(
    rng: np.random.Generator,
    dim: int,
    trials: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SuiteResult:
    """Closed-form power entries of the driving matrix against numerically
    computed powers k = 1..``V_POWERS``, the vanishing (3,3) entry at
    k = 1, its non-vanishing for k >= 2, and the shift identity
    v33(k) = v13(k+1). The computed powers match within
    ``cfg.equality_rel_tol``, the tolerance the report prints; the other
    three bounds are fixed properties of ``V``. ``rng``, ``dim`` and
    ``trials`` are ignored (the family is fixed); they are accepted for
    runner uniformity."""
    del rng, dim, trials
    v = v_matrix()
    power = np.eye(3, dtype=np.complex128)
    # (v13(k), v33(k)) for k = 1..V_POWERS + 1.
    entries = [v_power_entries(k) for k in range(1, V_POWERS + 2)]
    matches = []
    for v13, v33 in entries[:V_POWERS]:
        power = power @ v
        matches += [abs(power[0, 2] - v13), abs(power[2, 2] - v33)]
    min_v33 = min([float("inf"), *(abs(v33) for _, v33 in entries[1:V_POWERS])])
    records = (
        CheckRecord.worst("worst_power_match", matches, cfg.equality_rel_tol),
        CheckRecord.bounded("v33_at_1", abs(entries[0][1]), _V33_AT_1),
        # The one lower bound, a rule of its own.
        CheckRecord("min_v33_from_2", min_v33, min_v33 > _MIN_V33_FROM_2),
        CheckRecord.worst(
            "worst_shift_identity",
            (abs(v33 - next_v13) for (_, v33), (next_v13, _) in zip(entries, entries[1:])),
            _SHIFT_IDENTITY,
        ),
    )
    return SuiteResult("v-entries", V_POWERS, records)


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
    dims = _dims_cycle(rng, 2, dim, half)
    commuting = random_commuting_psd_pairs(rng, dims, [i % 3 == 0 for i in range(half)])
    # Each non-commuting pair is followed by the draw of T, as one trial.
    other = [
        (*random_psd_pair(rng, d), random_operator(rng, d))
        for d in _dims_cycle(rng, 2, dim, half)
    ]

    def commuting_checks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        product = a @ b
        power = _psd_powers(a, cfg)
        root = power(0.5)
        projections = range_projection.kernel(np.concatenate([a, b, root]), cfg)
        proj_a, proj_b, proj_root = np.split(projections, 3)
        # [A^(1/2), B], [A^(1/3), B], [A^2, B], [A, P_B] and [P_A, P_B].
        commute = _commutator_test(
            np.concatenate([root, power(1 / 3), power(2.0), a, proj_a]),
            np.concatenate([b, b, b, proj_b, proj_b]),
            cfg,
        )[1]
        reconstruction = proj_a @ proj_b @ abs_value.kernel(product)
        residuals = _residual(
            np.concatenate([proj_root, reconstruction]), np.concatenate([proj_a, product])
        )
        return (
            is_hermitian_psd.kernel(product, cfg)
            & commute.reshape(5, -1).all(axis=0)
            & (residuals.reshape(2, -1) <= tol).all(axis=0)
        )

    def other_checks(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
        product = a @ b
        gram = t @ _adjoint(t)
        projections = range_projection.kernel(np.concatenate([a, b, t, gram]), cfg)
        proj_a, proj_b, proj_t, proj_gram = np.split(projections, 4)
        reconstruction = proj_a @ proj_b @ abs_value.kernel(product)
        unlike, like = _residual(
            np.concatenate([reconstruction, proj_t]), np.concatenate([product, proj_gram])
        ).reshape(2, -1)
        return ~is_hermitian_psd.kernel(product, cfg) & (unlike > tol) & (like <= tol)

    passed = _by_shape(commuting, commuting_checks) + _by_shape(other, other_checks)
    records = (CheckRecord.count("psd_pair_failures", sum(not ok for ok in passed)),)
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
