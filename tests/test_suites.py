"""Tests for the randomized property-suite runner."""

from __future__ import annotations

import functools
import inspect
import subprocess
import sys
from itertools import accumulate, islice, repeat, takewhile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polarops.sampling as sampling
import polarops.suites as suites
from polarops.classify import (
    AluthgePairCheck,
    BinormalEquivalents,
    MpCenteredReport,
    ProductPolarReport,
    TransferReport,
    _GROUP_ENTRIES,
    _centered_walk,
    aluthge,
    binormal_equivalents,
    centered_order,
    is_binormal,
    is_n_centered_definitional,
    mp_centered_check,
    polar_transfer,
    product_polar,
)
from polarops.core import (
    DEFAULT_TOLERANCES,
    _psd_powers,
    commutator_norm,
    commutes,
    equality_residual,
    fractional_power_psd,
    fro_norm,
    is_hermitian_psd,
    ToleranceConfig,
    range_projection,
    svd,
)
from polarops.decomp import (
    PolarParts,
    abs_value,
    moore_penrose,
    mp_polar_parts,
    polar_decompose,
    verify_polar,
)
from polarops.sampling import (
    random_binormal,
    random_binormals,
    random_commuting_moduli_pair,
    random_commuting_moduli_pairs,
    random_commuting_psd_pair,
    random_commuting_psd_pairs,
    random_mixed_rank,
    random_mixed_ranks,
    random_nonbinormal,
    random_operator,
    random_psd_pair,
    random_rank_deficient,
    random_spectrum_operator,
    random_spectrum_operators,
    structured_fixtures,
)
from polarops.shifts import ShiftSpec
from polarops.suites import (
    ALUTHGE_EXPONENTS,
    SUITES,
    CheckRecord,
    SuiteResult,
    _by_shape,
    _dims_cycle,
    _share,
    run_suite,
    suite_shift_family,
    suite_v_entries,
)


def test_known_suite_names():
    assert set(SUITES) == {
        "polar-contract",
        "centered-oracle",
        "product-polar",
        "polar-transfer",
        "aluthge-binormal",
        "mp-inverse",
        "shift-family",
        "v-entries",
        "psd-pairs",
    }


def test_single_suite_runs_clean():
    results = run_suite("polar-contract", seed=3, dim=4, trials=25)
    assert len(results) == 1
    assert results[0].name == "polar-contract"
    assert results[0].ok


def test_all_runs_every_suite():
    results = run_suite("all", seed=3, dim=4, trials=10)
    assert [r.name for r in results] == list(SUITES)
    assert all(r.ok for r in results)


def test_deterministic_given_seed():
    first = run_suite("product-polar", seed=11, dim=4, trials=20)
    second = run_suite("product-polar", seed=11, dim=4, trials=20)
    assert first == second


def test_different_seeds_change_residuals():
    first = run_suite("polar-contract", seed=1, dim=4, trials=20)[0]
    second = run_suite("polar-contract", seed=2, dim=4, trials=20)[0]
    worst = {r.name: r.residual for r in first.records}["worst_residual"]
    other = {r.name: r.residual for r in second.records}["worst_residual"]
    assert worst != other


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite", seed=0, dim=4, trials=5)


def test_fixed_family_suites_ignore_runner_knobs():
    rng = np.random.default_rng(0)
    small = suite_shift_family(rng, dim=2, trials=1)
    assert small.trials == 7
    assert small.ok
    entries = suite_v_entries(rng, dim=2, trials=1)
    assert entries.trials == 30
    assert entries.ok


def test_v_entries_matches_the_powers_within_the_equality_tolerance():
    # The report prints equality_rel_tol, so worst_power_match is decided by
    # it; the other three bounds are properties of V and stay fixed.
    result = suite_v_entries(
        np.random.default_rng(0), 0, 0, ToleranceConfig(equality_rel_tol=1e-30)
    )
    assert [(r.name, bool(r.passed)) for r in result.records] == [
        ("worst_power_match", False),
        ("v33_at_1", True),
        ("min_v33_from_2", True),
        ("worst_shift_identity", True),
    ]


def test_every_suite_takes_the_runners_four_arguments():
    # run_suite passes (rng, dim, trials, cfg) and nothing else, so a suite
    # has no other setting: its fixed ones are module constants.
    for name, suite in SUITES.items():
        parameters = inspect.signature(suite).parameters.values()
        assert [(p.name, p.default) for p in parameters] == [
            ("rng", inspect.Parameter.empty),
            ("dim", inspect.Parameter.empty),
            ("trials", inspect.Parameter.empty),
            ("cfg", DEFAULT_TOLERANCES),
        ], name


# The four suites that share factorizations within a trial, as they were
# written before they did: every value comes from public calls, each of
# which factors its input itself. The suites must reproduce every record of
# these references exactly, not just within roundoff.


def _reference_binormal_equivalents(t, pairs, cfg=DEFAULT_TOLERANCES):
    binormal, _ = is_binormal(t, cfg)
    two_centered = is_n_centered_definitional(t, 2, cfg).ok
    parts = polar_decompose(t, cfg)
    u, p = parts.isometry, parts.modulus
    mod_adj = abs_value(t.conj().T)
    checks = []
    for alpha, beta in pairs:
        al = aluthge(t, alpha, beta, cfg)
        transform_parts = polar_decompose(al.transform, cfg)
        transform_mod = transform_parts.modulus
        eq_res = equality_residual(al.transform, al.tilde_u @ transform_mod)
        polar_check = verify_polar(
            al.transform,
            PolarParts(al.tilde_u, transform_mod, transform_parts.rank),
            cfg,
        )
        p_alpha = fractional_power_psd(p, alpha, cfg)
        p_beta = fractional_power_psd(p, beta, cfg)
        modulus_form = u.conj().T @ p_alpha @ u @ p_beta
        adjoint_form = p_alpha @ fractional_power_psd(mod_adj, beta, cfg)
        mod_res = equality_residual(transform_mod, modulus_form)
        adj_res = equality_residual(abs_value(al.transform.conj().T), adjoint_form)
        tol = cfg.equality_rel_tol
        checks.append(
            AluthgePairCheck(
                alpha=float(alpha),
                beta=float(beta),
                equality_residual=eq_res,
                equality_holds=eq_res <= tol,
                polar_check=polar_check,
                modulus_form_residual=mod_res,
                modulus_form_holds=mod_res <= tol,
                adjoint_form_residual=adj_res,
                adjoint_form_holds=adj_res <= tol,
            )
        )
    statements = (
        binormal,
        two_centered,
        all(c.equality_holds for c in checks),
        all(c.polar_check.ok for c in checks),
        all(c.modulus_form_holds and c.adjoint_form_holds for c in checks),
    )
    return BinormalEquivalents(binormal, two_centered, tuple(checks), statements)


def _reference_mp_centered_check(t, max_n, cfg=DEFAULT_TOLERANCES, pinv=None):
    """``mp_centered_check(t, max_n)`` from public calls on matrices;
    ``pinv`` is ``moore_penrose(t, cfg)``, when the caller has it."""
    verified = centered_order(t, max_n + 1, cfg).verified_order
    n = min(verified, max_n)
    if pinv is None:
        pinv = moore_penrose(t, cfg)
    residuals, t_pow, pinv_pow = [], t, pinv
    for k in range(n):
        # The inverse of T^1 is pinv itself, the same call.
        inverse = pinv if k == 0 else moore_penrose(t_pow, cfg)
        residuals.append(equality_residual(inverse, pinv_pow))
        t_pow, pinv_pow = t_pow @ t, pinv_pow @ pinv
    inverse_order = centered_order(pinv, max_n, cfg).verified_order
    plus_one = verified >= n + 1
    mod_norms, adj_norms, mod_ok = [], [], True
    if plus_one:
        parts = polar_decompose(t, cfg)
        u, p = parts.isometry, parts.modulus
        p_adj = abs_value(t.conj().T)
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


def _reference_centered_oracle(rng, dim, trials, cfg=DEFAULT_TOLERANCES, max_n=6):
    operators = [random_mixed_rank(rng, d) for d in _dims_cycle(rng, 2, dim, trials)]
    operators.extend(matrix for _, matrix in structured_fixtures(rng))
    disagreements = report_flags = 0
    for t in operators:
        report = centered_order(t, max_n, cfg)
        report_flags += not report.oracle_agrees
        check = is_n_centered_definitional(t, max_n, cfg)
        tol = cfg.equality_rel_tol
        pairs = zip(check.equation_residuals, check.range_residuals)
        passing = len(list(takewhile(lambda r: r[0] <= tol and r[1] <= tol, pairs)))
        for n in range(1, max_n + 1):
            disagreements += (passing >= n) != (report.verified_order >= n)
    records = (
        CheckRecord("order_disagreements", float(disagreements), disagreements == 0),
        CheckRecord("oracle_flag_failures", float(report_flags), report_flags == 0),
    )
    return SuiteResult("centered-oracle", len(operators), records)


def _reference_aluthge_binormal(rng, dim, trials, cfg=DEFAULT_TOLERANCES):
    half = _share(trials, 2)
    binormal_failures = nonbinormal_failures = 0
    worst = 0.0
    pairs = list(ALUTHGE_EXPONENTS)
    for d in _dims_cycle(rng, 2, dim, half):
        report = _reference_binormal_equivalents(random_binormal(rng, d), pairs, cfg)
        binormal_failures += not (all(report.statements) and report.agree())
        for check in report.pair_checks:
            worst = max(worst, check.modulus_form_residual, check.adjoint_form_residual)
    for d in _dims_cycle(rng, 2, dim, half):
        report = _reference_binormal_equivalents(random_nonbinormal(rng, d), pairs, cfg)
        nonbinormal_failures += any(report.statements) or not report.agree()
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
            "worst_closed_form_residual", worst, worst <= cfg.equality_rel_tol
        ),
    )
    return SuiteResult("aluthge-binormal", 2 * half, records)


def _reference_mp_operator(t, cfg, max_n, seen):
    """The verdict and worst residual of one operator of the mp-inverse
    reference. ``seen`` holds those of the operators evaluated before, by
    their exact bytes: every value comes from public calls, which are pure,
    so an operator drawn again takes the values of the identical calls made
    before. The fixtures of ``structured_fixtures`` that do not depend on
    the generator recur in every run of the suite."""
    key = (t.shape, t.tobytes(), cfg, max_n)
    if key in seen:
        return seen[key]
    pinv = moore_penrose(t, cfg)
    inverse_parts = mp_polar_parts(t, cfg)
    residuals = [
        equality_residual(
            moore_penrose(abs_value(t), cfg), abs_value(pinv.conj().T)
        ),
        equality_residual(
            moore_penrose(abs_value(t.conj().T), cfg), inverse_parts.modulus
        ),
    ]
    inverse_polar = verify_polar(pinv, inverse_parts, cfg)
    residuals.append(inverse_polar.worst())
    mp_report = _reference_mp_centered_check(t, max_n, cfg, pinv)
    residuals.extend(mp_report.power_inverse_residuals)
    ok = (
        all(r <= cfg.equality_rel_tol for r in residuals)
        and inverse_polar.ok
        and mp_report.ok
        and mp_report.inverse_verified_order == mp_report.order
        and is_binormal(t, cfg)[0] == is_binormal(pinv, cfg)[0]
    )
    seen[key] = ok, max(residuals)
    return seen[key]


def _reference_mp_inverse(rng, dim, trials, cfg=DEFAULT_TOLERANCES, max_n=6, seen=None):
    seen = {} if seen is None else seen
    operators = [
        random_spectrum_operator(rng, d, rank=(d if i % 3 else max(1, d - 1)))
        for i, d in enumerate(_dims_cycle(rng, 2, dim, trials))
    ]
    operators.extend(matrix for _, matrix in structured_fixtures(rng))
    failures = 0
    worst = 0.0
    for t in operators:
        ok, residual = _reference_mp_operator(t, cfg, max_n, seen)
        worst = max(worst, residual)
        failures += not ok
    records = (
        CheckRecord("mp_failures", float(failures), failures == 0),
        CheckRecord("worst_residual", worst, worst <= cfg.equality_rel_tol),
    )
    return SuiteResult("mp-inverse", len(operators), records)


def _reference_psd_pairs(rng, dim, trials, cfg=DEFAULT_TOLERANCES):
    half = trials // 2
    failures = 0
    tol = cfg.equality_rel_tol
    for index, d in enumerate(_dims_cycle(rng, 2, dim, half)):
        a, b = random_commuting_psd_pair(rng, d, deficient=index % 3 == 0)
        checks = [is_hermitian_psd(a @ b, cfg)]
        for exponent in (0.5, 1.0 / 3.0, 2.0):
            checks.append(commutes(fractional_power_psd(a, exponent, cfg), b, cfg))
        proj_a, proj_b = range_projection(a, cfg), range_projection(b, cfg)
        checks.append(commutes(a, proj_b, cfg))
        checks.append(commutes(proj_a, proj_b, cfg))
        root = fractional_power_psd(a, 0.5, cfg)
        checks.append(equality_residual(range_projection(root, cfg), proj_a) <= tol)
        product = a @ b
        checks.append(
            equality_residual(proj_a @ proj_b @ abs_value(product), product) <= tol
        )
        failures += not all(checks)
    for d in _dims_cycle(rng, 2, dim, half):
        a, b = random_psd_pair(rng, d)
        product = a @ b
        checks = [not is_hermitian_psd(product, cfg)]
        projections = range_projection(a, cfg) @ range_projection(b, cfg)
        reconstruction = equality_residual(
            projections @ abs_value(product), product
        )
        checks.append(reconstruction > tol)
        t = random_operator(rng, d)
        checks.append(
            equality_residual(
                range_projection(t, cfg), range_projection(t @ t.conj().T, cfg)
            )
            <= tol
        )
        failures += not all(checks)
    records = (CheckRecord("psd_pair_failures", float(failures), failures == 0),)
    return SuiteResult("psd-pairs", 2 * half, records)


REFERENCES = {
    "centered-oracle": _reference_centered_oracle,
    "aluthge-binormal": _reference_aluthge_binormal,
    "mp-inverse": _reference_mp_inverse,
    "psd-pairs": _reference_psd_pairs,
}


# The draw of each suite that evaluates its operators in shape groups
# through the stacked centered-order walk, and the draw its reference makes
# per trial: each suite draws all its operators in one stacked draw.
STACKED_WALK_DRAWS = {
    "centered-oracle": ("random_mixed_ranks", "random_mixed_rank"),
    "mp-inverse": ("random_spectrum_operators", "random_spectrum_operator"),
}


def _scaled(draw, scale: float):
    """``draw`` with each operator it returns, or each of the list of
    operators of a stacked draw, multiplied by ``scale``."""

    def scaled(*args, **kwargs):
        drawn = draw(*args, **kwargs)
        return [scale * t for t in drawn] if type(drawn) is list else scale * drawn

    return scaled


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("dim", [2, 4, 6, 8, 12])
def test_suite_matches_its_public_call_reference(monkeypatch, name, dim):
    reference = REFERENCES[name]
    if name == "mp-inverse":
        # One record of the operators evaluated, for the whole test.
        reference = functools.partial(reference, seen={})

    def results(seeds=(dim, 100 + dim), trial_counts=(12,)) -> list[SuiteResult]:
        out = []
        for seed in seeds:
            for trials in trial_counts:
                expected = reference(np.random.default_rng(seed), dim, trials)
                assert SUITES[name](np.random.default_rng(seed), dim, trials) == expected
                out.append(expected)
        return out

    results()
    if name not in STACKED_WALK_DRAWS:
        return
    # Shape groups of one operator and of many, several per group.
    results(range(10), (1, 3, 20, 100))
    suite_draw, reference_draw = STACKED_WALK_DRAWS[name]
    for scale in (1e-6, 1e-12):
        # Tiny draws: the absolute commutator floor makes the criterion
        # overshoot, so orders, oracle flags and verdicts all change.
        monkeypatch.setattr(suites, suite_draw, _scaled(getattr(suites, suite_draw), scale))
        monkeypatch.setitem(
            globals(), reference_draw, _scaled(globals()[reference_draw], scale)
        )
        results(range(5), (1, 3, 20))
        if name == "centered-oracle" and scale == 1e-6:
            # The floor stops the criterion at order 1 while the
            # definitional check passes further, so reports are flagged and
            # the routes disagree order by order.
            for result in results():
                assert not any(record.passed for record in result.records)
        monkeypatch.undo()


# The samplers with a stacked form as first written, one draw at a time:
# the references of the stacked draws.


def _unitary_alone(rng, dim) -> np.ndarray:
    """A unitary from the QR of a ``random_operator``, with the phases of
    the diagonal of R."""
    q, r = np.linalg.qr(random_operator(rng, dim))
    phases = np.diag(r).copy()
    return q * (phases / np.abs(phases))


def _spectrum_operator_alone(rng, dim, rank=None):
    """``random_spectrum_operator``: the spectrum in [0.05, 1], then two
    unitaries."""
    rank = dim if rank is None else rank
    values = np.exp(rng.uniform(np.log(0.05), np.log(1.0), size=rank))
    values = np.concatenate([values, np.zeros(dim - rank)])
    return (_unitary_alone(rng, dim) * values) @ _unitary_alone(rng, dim).conj().T


def _rank_deficient_alone(rng, rows, cols, rank):
    """``random_rank_deficient`` of a rank from 1 to min(rows, cols)."""
    left = random_operator(rng, rows, rank)
    right = random_operator(rng, cols, rank)
    ql = np.linalg.qr(left)[0]
    qr = np.linalg.qr(right)[0]
    values = rng.uniform(0.5, 2.0, size=rank)
    return (ql * values) @ qr.conj().T


def _mixed_rank_alone(rng, dim):
    """``random_mixed_rank``."""
    if dim >= 2 and rng.uniform() < 0.35:
        rank = int(rng.integers(1, dim))
        return _rank_deficient_alone(rng, dim, dim, rank)
    return random_operator(rng, dim)


def _psd_alone(rng, dim):
    """``random_psd`` of full rank."""
    q = _unitary_alone(rng, dim)
    values = np.concatenate([rng.uniform(0.2, 3.0, size=dim), np.zeros(0)])
    out = (q * values) @ q.conj().T
    return 0.5 * (out + out.conj().T)


def _commuting_psd_pair_alone(rng, dim, deficient=False):
    """``random_commuting_psd_pair``."""
    q = _unitary_alone(rng, dim)

    def spectrum() -> np.ndarray:
        values = rng.uniform(0.2, 3.0, size=dim)
        if deficient and dim >= 2:
            zeros = rng.integers(1, dim)
            values[rng.permutation(dim)[:zeros]] = 0.0
        return values

    def build() -> np.ndarray:
        out = (q * spectrum()) @ q.conj().T
        return 0.5 * (out + out.conj().T)

    return build(), build()


def _psd_pair_alone(rng, dim, min_scaled_commutator=1e-3):
    """``random_psd_pair``, its redraws tested by the public norms."""
    for _ in range(64):
        a = _psd_alone(rng, dim)
        b = _psd_alone(rng, dim)
        if commutator_norm(a, b) > min_scaled_commutator * fro_norm(a) * fro_norm(b):
            return a, b
    raise RuntimeError("could not draw a non-commuting PSD pair")


def _commuting_moduli_pair_alone(rng, dim):
    """``random_commuting_moduli_pair``."""
    t = random_operator(rng, dim)
    x = svd(t).right_vectors
    values = rng.uniform(0.2, 2.0, size=dim)
    if dim >= 2 and rng.uniform() < 0.3:
        values[rng.permutation(dim)[: rng.integers(1, dim)]] = 0.0
    s = (x * values) @ x.conj().T @ _unitary_alone(rng, dim)
    return t, s


def _binormal_alone(rng, dim):
    """``random_binormal``: a permutation-times-diagonal, normal or unitary
    base, conjugated by a unitary."""
    family = int(rng.integers(0, 3))
    if family == 0:
        perm = rng.permutation(dim)
        weights = rng.uniform(0.2, 2.0, size=dim)
        base = np.zeros((dim, dim), dtype=np.complex128)
        base[perm, np.arange(dim)] = weights
    elif family == 1:
        q = _unitary_alone(rng, dim)
        eigenvalues = random_operator(rng, dim, 1).reshape(-1)
        base = (q * eigenvalues) @ q.conj().T
    else:
        base = _unitary_alone(rng, dim)
    q = _unitary_alone(rng, dim)
    return q @ base @ q.conj().T


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13, 20, 25])
@pytest.mark.parametrize("interleaved", [False, True])
def test_stacked_spectrum_draw_is_bitwise_the_draws_alone(count, interleaved):
    # Dims 2-12, random or repeated in turn, full and deficient ranks, 1-25
    # operators: the stacked draw reads the generator as the draws one at a
    # time do, and each operator is bitwise its draw alone, by the first
    # implementation and by the one-operator call (full rank as None).
    choice = np.random.default_rng(count)
    if interleaved:
        dims = [2 + (i * 5) % 11 for i in range(count)]
    else:
        dims = [int(d) for d in choice.integers(2, 13, size=count)]
    ranks = [d if i % 2 else int(choice.integers(1, d + 1)) for i, d in enumerate(dims)]
    stacked_rng, alone_rng, single_rng = (np.random.default_rng(count) for _ in range(3))
    stacked = random_spectrum_operators(stacked_rng, dims, ranks)
    alone = [_spectrum_operator_alone(alone_rng, d, rank=r) for d, r in zip(dims, ranks)]
    single = [
        random_spectrum_operator(single_rng, d, rank=None if r == d else r)
        for d, r in zip(dims, ranks)
    ]
    assert [t.shape for t in stacked] == [(d, d) for d in dims]
    for a, b, c in zip(stacked, alone, single):
        assert a.dtype == np.complex128
        assert a.tobytes() == b.tobytes() == c.tobytes()
    assert stacked_rng.bit_generator.state == alone_rng.bit_generator.state
    assert single_rng.bit_generator.state == alone_rng.bit_generator.state


# Per sampler: its stacked draw of (rng, dims, flags), its reference and its
# one-element call, each of (rng, dim, flag). psd-pairs draws T after each
# pair, as suite_psd_pairs does; the PSD pair has no stacked draw, so its
# "stacked" entry draws the pairs one at a time. The flags mark the
# deficient commuting pairs.
STACKED_DRAWS = {
    "mixed-rank": (
        lambda rng, dims, flags: random_mixed_ranks(rng, dims),
        lambda rng, d, flag: _mixed_rank_alone(rng, d),
        lambda rng, d, flag: random_mixed_rank(rng, d),
    ),
    "commuting-psd-pair": (
        random_commuting_psd_pairs,
        _commuting_psd_pair_alone,
        random_commuting_psd_pair,
    ),
    "psd-pair-then-operator": (
        lambda rng, dims, flags: [
            (*random_psd_pair(rng, d), random_operator(rng, d)) for d in dims
        ],
        lambda rng, d, flag: (*_psd_pair_alone(rng, d), random_operator(rng, d)),
        lambda rng, d, flag: (*random_psd_pair(rng, d), random_operator(rng, d)),
    ),
    "commuting-moduli-pair": (
        lambda rng, dims, flags: random_commuting_moduli_pairs(rng, dims),
        lambda rng, d, flag: _commuting_moduli_pair_alone(rng, d),
        lambda rng, d, flag: random_commuting_moduli_pair(rng, d),
    ),
    "binormal": (
        lambda rng, dims, flags: random_binormals(rng, dims),
        lambda rng, d, flag: _binormal_alone(rng, d),
        lambda rng, d, flag: random_binormal(rng, d),
    ),
}


def _arrays(draws) -> list[np.ndarray]:
    """The arrays of a list of draws, each an array or a tuple of arrays."""
    return [x for draw in draws for x in (draw if type(draw) is tuple else (draw,))]


def _assert_bitwise_equal(drawn, expected) -> None:
    assert len(drawn) == len(expected)
    for a, b in zip(_arrays(drawn), _arrays(expected), strict=True):
        assert a.dtype == b.dtype == np.complex128
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("sampler", sorted(STACKED_DRAWS))
@pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 8, 13, 20, 25])
@pytest.mark.parametrize("interleaved", [False, True])
def test_stacked_draws_are_bitwise_the_draws_alone(sampler, count, interleaved):
    # Dims 2-12, random or repeated in turn, deficient and full draws, 0-25
    # operators: the stacked draw reads the generator as the draws one at a
    # time do, and each draw is bitwise its draw alone, by the first
    # implementation and by the one-element call.
    stacked, alone, single = STACKED_DRAWS[sampler]
    choice = np.random.default_rng(100 + count)
    if interleaved:
        dims = [2 + (i * 5) % 11 for i in range(count)]
    else:
        dims = [int(d) for d in choice.integers(2, 13, size=count)]
    flags = [bool(flag) for flag in choice.integers(0, 2, size=count)]
    rngs = [np.random.default_rng(count + 7 * interleaved) for _ in range(3)]
    drawn = stacked(rngs[0], dims, flags)
    _assert_bitwise_equal(drawn, [alone(rngs[1], d, f) for d, f in zip(dims, flags)])
    _assert_bitwise_equal(drawn, [single(rngs[2], d, f) for d, f in zip(dims, flags)])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert rngs[2].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("bound", [0.05, 0.1, 0.2])
def test_stacked_psd_pairs_redraw_as_the_draws_alone(monkeypatch, bound):
    # A larger bound than the sampler's 1e-3 makes more pairs commute too
    # closely, so some are drawn again, at any place of the sequence; the
    # stream stays that of the reference draws.
    drawn_alone = []
    psd_alone = _psd_alone

    def counted(rng, dim):
        drawn_alone.append(dim)
        return psd_alone(rng, dim)

    monkeypatch.setattr(sys.modules[__name__], "_psd_alone", counted)
    monkeypatch.setattr(sampling, "_PSD_PAIR_COMMUTATOR", bound)
    dims = [2, 3, 2, 2, 4, 3, 2, 5, 2, 2, 3, 2] * 2
    rng, reference_rng = np.random.default_rng(1), np.random.default_rng(1)
    drawn = [(*random_psd_pair(rng, d), random_operator(rng, d)) for d in dims]
    expected = [
        (*_psd_pair_alone(reference_rng, d, bound), random_operator(reference_rng, d))
        for d in dims
    ]
    _assert_bitwise_equal(drawn, expected)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    # Redraws happened.
    assert len(drawn_alone) > 2 * len(dims)


def test_stacked_psd_pairs_give_up_after_64_draws(monkeypatch):
    # No pair can pass a bound of 2 (||[A, B]|| <= 2 ||A|| ||B||): the
    # pair is drawn 64 times, and the generator is left after its last
    # draw, as the reference leaves it.
    monkeypatch.setattr(sampling, "_PSD_PAIR_COMMUTATOR", 2.0)
    for dim in (3, 2):
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        with pytest.raises(RuntimeError, match="non-commuting PSD pair"):
            random_psd_pair(rng, dim)
        with pytest.raises(RuntimeError, match="non-commuting PSD pair"):
            _psd_pair_alone(reference_rng, dim, 2.0)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def _nonbinormal_alone(rng, dim, min_scaled_commutator=1e-2):
    """``random_nonbinormal`` as first written, its redraws tested by the
    public norms."""
    if dim < 2:
        raise ValueError("non-binormal operators need dimension >= 2")
    for _ in range(64):
        t = random_operator(rng, dim)
        left = t.conj().T @ t
        right = t @ t.conj().T
        if commutator_norm(left, right) > min_scaled_commutator * fro_norm(
            left
        ) * fro_norm(right):
            return t
    raise RuntimeError("could not draw a non-binormal operator")


@pytest.mark.parametrize("bound", [1e-2, 0.2])
def test_nonbinormal_draw_is_bitwise_its_reference(monkeypatch, bound):
    # Dims 2-12, 20 draws each: the one core._norms pass decides as the
    # public norms do, so each draw and the generator's state are bitwise
    # the reference's. At a bound of 0.2 about half the dim-12 draws
    # commute too closely and are drawn again.
    attempts = []
    draw = random_operator

    def counted(rng, dim):
        attempts.append(dim)
        return draw(rng, dim)

    monkeypatch.setattr(sys.modules[__name__], "random_operator", counted)
    monkeypatch.setattr(sampling, "_NONBINORMAL_COMMUTATOR", bound)
    rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    dims = [dim for dim in range(2, 13) for _ in range(20)]
    for dim in dims:
        t = random_nonbinormal(rng, dim)
        assert t.tobytes() == _nonbinormal_alone(reference_rng, dim, bound).tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert (len(attempts) > len(dims)) == (bound == 0.2)


def test_nonbinormal_draw_gives_up_after_64_draws(monkeypatch):
    # No draw can pass a bound of 2 (||[A, B]|| <= 2 ||A|| ||B||): the
    # generator is left after the 64th draw, as the reference leaves it.
    monkeypatch.setattr(sampling, "_NONBINORMAL_COMMUTATOR", 2.0)
    rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(RuntimeError, match="non-binormal operator"):
        random_nonbinormal(rng, 4)
    with pytest.raises(RuntimeError, match="non-binormal operator"):
        _nonbinormal_alone(reference_rng, 4, 2.0)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_stacked_spectrum_draw_refuses_a_rank_out_of_range():
    rng = np.random.default_rng(0)
    for rank in (0, 4):
        with pytest.raises(ValueError, match="invalid for dimension 3"):
            random_spectrum_operators(rng, [2, 3], [2, rank])
    assert random_spectrum_operators(rng, [], []) == []


def test_fixture_shifts_are_built_once_and_read_only(monkeypatch):
    # The two shifts of structured_fixtures draw nothing: they are built on
    # the first call of a process, not at import, and every call hands out
    # the same read-only arrays, bitwise the shifts built anew.
    code = "import polarops.suites, polarops.sampling as s; print(s._fixture_shifts.cache_info())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert "currsize=0" in proc.stdout, proc.stderr
    built = []
    build = sampling.build_truncated

    def counted(spec):
        built.append(spec.n)
        return build(spec)

    monkeypatch.setattr(sampling, "build_truncated", counted)
    sampling._fixture_shifts.cache_clear()
    first, second = (dict(structured_fixtures(np.random.default_rng(seed))) for seed in (0, 1))
    assert built == [2, 3]
    for n in (2, 3):
        shift = first[f"shift-order-{n}"]
        assert second[f"shift-order-{n}"] is shift
        assert not shift.flags.writeable
        assert shift.tobytes() == build(ShiftSpec.from_recipe(n)).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            shift[0, 0] = 1.0


def _equivalence_operators() -> list[np.ndarray]:
    rng = np.random.default_rng(31)
    operators = [matrix for _, matrix in structured_fixtures(rng)]
    for d in range(2, 9):
        operators += [
            random_binormal(rng, d),
            random_nonbinormal(rng, d),
            random_mixed_rank(rng, d),
            random_spectrum_operator(rng, d, rank=max(1, d - 1)),
        ]
    return operators


def test_binormal_equivalents_matches_its_reference():
    pairs = [*ALUTHGE_EXPONENTS, (2.0, 0.25)]
    for t in _equivalence_operators():
        expected = _reference_binormal_equivalents(t, pairs)
        assert binormal_equivalents(t, pairs) == expected


def test_mp_centered_check_matches_its_reference_at_every_order():
    operators = _equivalence_operators()
    for t in operators:
        # The factorizations a caller may hand over, as the suite does.
        held = {
            "parts": polar_decompose(t),
            "adjoint_parts": polar_decompose(t.conj().T),
            "inverse_parts": polar_decompose(moore_penrose(t)),
            "pinv": moore_penrose(t),
        }
        for max_n in range(1, 8):
            expected = _reference_mp_centered_check(t, max_n)
            assert mp_centered_check(t, max_n) == expected
            assert mp_centered_check(t, max_n, **held) == expected
    # A stack of operators of one shape at one max_n, each at the order
    # found for it.
    draws = [(t,) for t in operators]
    groups = _by_shape(draws, lambda t: mp_centered_check(t, 6))
    orders = [report.order for report in groups]
    assert len(set(orders)) > 1
    for (t,), report in zip(draws, groups):
        assert report == _reference_mp_centered_check(t, 6)


# The four suites that evaluate their trials by shape group, as they were
# written before they did: one trial at a time, every value from public
# per-operator calls on a matrix. Each batched suite must reproduce every
# record of its reference exactly.


def _reference_product_polar(t, s, cfg=DEFAULT_TOLERANCES):
    t_parts = polar_decompose(t, cfg)
    s_parts = polar_decompose(s, cfg)
    mod_t = t_parts.modulus
    mod_s_adj = abs_value(s.conj().T)
    product = t @ s
    product_parts = polar_decompose(product, cfg)
    candidate = t_parts.isometry @ s_parts.isometry
    residual = equality_residual(product, candidate @ product_parts.modulus)
    check = verify_polar(
        product, PolarParts(candidate, product_parts.modulus, product_parts.rank), cfg
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


def _reference_polar_transfer(t, s, cfg=DEFAULT_TOLERANCES):
    t_parts = polar_decompose(t, cfg)
    u = t_parts.isometry
    v = polar_decompose(s, cfg).isometry
    product = t @ s
    moduli = t_parts.modulus @ abs_value(s.conj().T)
    product_parts = polar_decompose(product, cfg)
    moduli_parts = polar_decompose(moduli, cfg)
    product_check = verify_polar(
        product,
        PolarParts(
            u @ moduli_parts.isometry @ v, product_parts.modulus, product_parts.rank
        ),
        cfg,
    )
    moduli_check = verify_polar(
        moduli,
        PolarParts(
            u.conj().T @ product_parts.isometry @ v.conj().T,
            moduli_parts.modulus,
            moduli_parts.rank,
        ),
        cfg,
    )
    return TransferReport(product_check, moduli_check, product_check.ok and moduli_check.ok)


def _product_fields(report: ProductPolarReport) -> tuple:
    """The fields of a report, arrays as their bytes, for exact comparison."""
    return tuple(
        (value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for value in vars(report).values()
    )


def _reference_polar_contract(rng, dim, trials, cfg=DEFAULT_TOLERANCES):
    failures = 0
    worst = 0.0
    for index, d in enumerate(_dims_cycle(rng, 2, dim, trials)):
        if index % 4 == 3:
            t = random_operator(rng, d, max(2, d - 1))
        else:
            t = random_mixed_rank(rng, d)
        check = verify_polar(t, polar_decompose(t, cfg), cfg)
        worst = max(worst, check.worst())
        failures += not check.ok
    records = (
        CheckRecord("contract_failures", float(failures), failures == 0),
        CheckRecord("worst_residual", worst, worst <= cfg.equality_rel_tol),
    )
    return SuiteResult("polar-contract", trials, records)


def _reference_product_polar_suite(rng, dim, trials, cfg=DEFAULT_TOLERANCES):
    constructed = _share(trials, 4)
    mismatches = constructed_failures = 0
    worst = 0.0
    for d in _dims_cycle(rng, 2, dim, trials):
        report = _reference_product_polar(
            random_operator(rng, d), random_operator(rng, d), cfg
        )
        mismatches += not report.agree()
        worst = max(worst, report.transfer_residual)
    for d in _dims_cycle(rng, 2, dim, constructed):
        report = _reference_product_polar(*random_commuting_moduli_pair(rng, d), cfg)
        mismatches += not report.agree()
        constructed_failures += not report.is_polar
        worst = max(worst, report.transfer_residual)
    tol = cfg.equality_rel_tol
    records = (
        CheckRecord("three_way_mismatches", float(mismatches), mismatches == 0),
        CheckRecord(
            "constructed_not_polar",
            float(constructed_failures),
            constructed_failures == 0,
        ),
        CheckRecord("worst_transfer_residual", worst, worst <= tol),
    )
    return SuiteResult("product-polar", trials + constructed, records)


def _reference_polar_transfer_suite(rng, dim, trials, cfg=DEFAULT_TOLERANCES):
    failures = 0
    worst = 0.0
    for index, d in enumerate(_dims_cycle(rng, 2, dim, trials)):
        if index % 3 == 2:
            t, s = random_mixed_rank(rng, d), random_mixed_rank(rng, d)
        else:
            t, s = random_operator(rng, d), random_operator(rng, d)
        report = _reference_polar_transfer(t, s, cfg)
        worst = max(worst, report.product_check.worst(), report.moduli_check.worst())
        failures += not report.ok
    records = (
        CheckRecord("transfer_failures", float(failures), failures == 0),
        CheckRecord("worst_residual", worst, worst <= cfg.equality_rel_tol),
    )
    return SuiteResult("polar-transfer", trials, records)


PER_TRIAL_REFERENCES = {
    "polar-contract": _reference_polar_contract,
    "product-polar": _reference_product_polar_suite,
    "polar-transfer": _reference_polar_transfer_suite,
    "aluthge-binormal": _reference_aluthge_binormal,
}


@pytest.mark.parametrize("name", sorted(PER_TRIAL_REFERENCES))
@pytest.mark.parametrize("dim", [2, 6, 12])
def test_batched_suite_matches_its_per_trial_reference(name, dim):
    for seed in range(5):
        for trials in (1, 3, 20, 100):
            expected = PER_TRIAL_REFERENCES[name](np.random.default_rng(seed), dim, trials)
            assert SUITES[name](np.random.default_rng(seed), dim, trials) == expected


def _draw(rng, kind: int, d: int, rank: int) -> np.ndarray:
    """Kind 0: a (d, d - 1) draw; 1: a square draw; 2: a square binormal
    draw. The first two have rank ``rank`` capped at the smaller side, so
    zero and full rank both occur."""
    if kind == 2:
        return random_binormal(rng, d)
    cols = d - 1 if kind == 0 else d
    return random_rank_deficient(rng, d, cols, min(rank, cols))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(2, 12), min_size=1, max_size=3),
    specs=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 12)),
        min_size=1,
        max_size=10,
    ),
)
def test_operator_stacks_match_per_operator_calls(seed, dims, specs):
    # Each draw takes one of a few dims and one of three kinds: shape groups
    # of several operators of mixed rank, and groups of one, both occur.
    cfg = DEFAULT_TOLERANCES
    rng = np.random.default_rng(seed)
    operators = [
        _draw(rng, kind, dims[index % len(dims)], rank) for kind, index, rank in specs
    ]

    def polar(t):
        parts = polar_decompose(t, cfg)
        return zip(
            parts.isometry,
            parts.modulus,
            parts.rank.tolist(),
            verify_polar(t, parts, cfg),
            range_projection(t, cfg),
            fro_norm(t).tolist(),
        )

    for t, (u, p, rank, check, projection, norm) in zip(
        operators, _by_shape([(t,) for t in operators], polar)
    ):
        parts = polar_decompose(t, cfg)
        assert np.array_equal(u[0], parts.isometry) and np.array_equal(p[0], parts.modulus)
        assert rank == [parts.rank]
        assert check == verify_polar(t, parts, cfg)
        assert np.array_equal(projection[0], range_projection(t, cfg))
        assert norm == fro_norm(t)

    square = [t for t in operators if t.shape[0] == t.shape[1]]
    if not square:
        return
    pairs = [(t, random_mixed_rank(rng, len(t))) for t in square]
    products = _by_shape(pairs, lambda t, s: product_polar(t, s, cfg))
    transfers = _by_shape(pairs, lambda t, s: polar_transfer(t, s, cfg))
    for (t, s), product, transfer in zip(pairs, products, transfers):
        expected = _reference_product_polar(t, s, cfg)
        assert _product_fields(product) == _product_fields(expected)
        assert _product_fields(product_polar(t, s, cfg)) == _product_fields(expected)
        assert transfer == _reference_polar_transfer(t, s, cfg) == polar_transfer(t, s, cfg)

    exponents = [*ALUTHGE_EXPONENTS, (2.0, 0.25)]

    def binormal(t):
        powers = _psd_powers(polar_decompose(t, cfg).modulus, cfg)
        return zip(
            is_binormal(t, cfg),
            binormal_equivalents(t, exponents, cfg),
            powers(0.5),
            powers(3.0),
        )

    for t, (flag_and_norm, report, root, cube) in zip(
        square, _by_shape([(t,) for t in square], binormal)
    ):
        assert flag_and_norm == is_binormal(t, cfg)
        assert report == _reference_binormal_equivalents(t, exponents, cfg)
        assert report == binormal_equivalents(t, exponents, cfg)
        modulus = abs_value(t)
        assert np.array_equal(root[0], fractional_power_psd(modulus, 0.5, cfg))
        assert np.array_equal(cube[0], fractional_power_psd(modulus, 3.0, cfg))


def _walk_operator(rng, kind: int, d: int, rank: int, fixtures) -> np.ndarray:
    """Kind 0: a square draw of rank ``rank`` capped at d; 1: a binormal
    draw; 2: a structured fixture; 3: the zero operator; 4 and 5: draws
    scaled by 1e-6 and 1e-12, whose commutators fall below the absolute
    floor."""
    if kind == 0:
        return random_rank_deficient(rng, d, d, min(rank, d))
    if kind == 1:
        return random_binormal(rng, d)
    if kind == 2:
        return fixtures[rank % len(fixtures)]
    if kind == 3:
        return np.zeros((d, d), dtype=np.complex128)
    return (1e-6 if kind == 4 else 1e-12) * random_mixed_rank(rng, d)


def _stacked_walk(operators, max_n, cfg=DEFAULT_TOLERANCES):
    """The report of each operator from one stacked walk per shape group."""

    return _by_shape([(t,) for t in operators], lambda t: centered_order(t, max_n, cfg))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(2, 24), min_size=1, max_size=3),
    specs=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 12)),
        min_size=1,
        max_size=12,
    ),
    max_n=st.one_of(st.integers(1, 9), st.integers(10, 40)),
)
# A binormal draw checks a second group of powers, a tiny draw stops after
# its first: the second group must not check the tiny draw again.
@example(seed=0, dims=[21], specs=[(1, 0, 0), (4, 0, 0)], max_n=10)
def test_stacked_walk_matches_the_walk_of_each_operator(seed, dims, specs, max_n):
    # Groups mix operators whose runs of vanishing commutators, and whose
    # oracles, stop at different powers, so one walk serves operators that
    # check different numbers of powers. The walks of dims above 12 and of
    # the shift fixtures span several groups of powers once max_n is large
    # enough, and the shifts' commutators vanish again once U^k is zero.
    rng = np.random.default_rng(seed)
    fixtures = [matrix for _, matrix in structured_fixtures(rng)]
    operators = [
        _walk_operator(rng, kind, dims[index % len(dims)], rank, fixtures)
        for kind, index, rank in specs
    ]
    factored = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        factored.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return original(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "svd", counted):
        reports = _stacked_walk(operators, max_n)
    # Each operator's T is factored once, for its U and its oracle's check
    # of T; past it, the oracle factors the powers 2 <= k <= min(verified +
    # 1, max_n) of each group of powers until the group that holds its
    # first failing power.
    tol = DEFAULT_TOLERANCES.equality_rel_tol
    expected = 0
    for t, report in zip(operators, reports):
        assert report == centered_order(t, max_n)
        check = is_n_centered_definitional(t, max_n)
        pairs = zip(check.equation_residuals, check.range_residuals)
        run = len(list(takewhile(lambda r: r[0] <= tol and r[1] <= tol, pairs)))
        per_group = max(1, _GROUP_ENTRIES // t.size)
        groups = -(-(run + 1) // per_group)
        expected += min(report.verified_order + 1, max_n, groups * per_group)
    assert sum(factored) == expected


def test_stacked_walk_falls_back_to_one_operator_at_a_time(monkeypatch):
    # One shape group whose operators stop at different powers: generic
    # draws (1-centered), binormal draws (2-centered), a normal matrix
    # (every power passes) and tiny draws whose criterion overshoots while
    # their oracle fails early.
    rng = np.random.default_rng(7)
    operators = [random_mixed_rank(rng, 5) for _ in range(2)]
    operators += [random_binormal(rng, 5) for _ in range(2)]
    operators += [np.diag([1.0, 1j, -2.0, 0.5, 0.0]).astype(np.complex128)]
    operators += [1e-12 * random_mixed_rank(np.random.default_rng(11), 5)]
    operators += [1e-6 * random_mixed_rank(rng, 5)]
    max_n = 6
    expected = [centered_order(t, max_n) for t in operators]
    stack = np.stack(operators)[:, None]
    parts = polar_decompose(stack)

    # Alone, each operator's oracle checks T^1..T^c, c = min(verified + 1,
    # max_n), and stops after its first failing power; the one pass of the
    # group falls back to the operators in order.
    tol = DEFAULT_TOLERANCES.equality_rel_tol
    factored_alone = []
    for t, report in zip(operators, expected):
        check = is_n_centered_definitional(t, max_n)
        pairs = zip(check.equation_residuals, check.range_residuals)
        run = len(list(takewhile(lambda r: r[0] <= tol and r[1] <= tol, pairs)))
        checked = min(report.verified_order + 1, max_n)
        factored_alone.append((checked, t, min(run + 1, checked)))
    assert len({checked for checked, _, _ in factored_alone}) > 1
    powers = []
    for _, t, count in factored_alone:
        powers += islice(accumulate(repeat(t), lambda power, _: power @ t), count)

    factored = []
    original = np.linalg.svd

    def single(a, *args, **kwargs):
        # A stack of more than one matrix fails, as when one of them does.
        if np.ndim(a) > 2 and np.prod(np.shape(a)[:-2]) > 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        factored.append(np.reshape(a, np.shape(a)[-2:]))
        return original(a, *args, **kwargs)

    # The walk below centered_order, with the parts held, so that the SVD
    # of T for U is not counted.
    monkeypatch.setattr(np.linalg, "svd", single)
    assert _centered_walk(stack, max_n, DEFAULT_TOLERANCES, parts) == expected
    assert len(factored) == len(powers)
    assert all(np.array_equal(a, power) for a, power in zip(factored, powers))
