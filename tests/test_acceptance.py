"""Release acceptance gate: every criterion below runs at its pinned scale,
seed, and tolerance, one test function (one pass/fail line under pytest -v)
per criterion. These parameters are contractual; do not shrink them to make
a failure go away."""

from __future__ import annotations

import math
import time

import numpy as np

from polarops.core import ToleranceConfig
from polarops.suites import (
    ALUTHGE_EXPONENTS,
    MAX_ORDER,
    SHIFT_ORDERS,
    V_POWERS,
    SuiteResult,
    suite_aluthge_binormal,
    suite_centered_oracle,
    suite_mp_inverse,
    suite_polar_contract,
    suite_polar_transfer,
    suite_product_polar,
    suite_psd_pairs,
    suite_shift_family,
    suite_v_entries,
)

SEED = 20240819
RELAXED = ToleranceConfig(equality_rel_tol=1e-8)


def rng_for(offset: int) -> np.random.Generator:
    return np.random.default_rng(SEED + offset)


def assert_clean(result: SuiteResult) -> None:
    summary = ", ".join(
        f"{r.name}={r.residual:.3e}:{'pass' if r.passed else 'FAIL'}"
        for r in result.records
    )
    assert result.ok, f"{result.name} [{result.trials} trials]: {summary}"


def test_polar_contract_on_500_seeded_operators():
    # 500 random operators, dims 2..8, square and rectangular, full and
    # deficient rank; every residual within 1e-9 scaled; under 10 seconds.
    start = time.perf_counter()
    result = suite_polar_contract(rng_for(1), dim=8, trials=500)
    elapsed = time.perf_counter() - start
    assert_clean(result)
    assert result.trials == 500
    assert elapsed < 10.0, f"polar contract took {elapsed:.1f}s"


def test_centered_order_criterion_matches_definitional_oracle():
    # Orders 1..6 on 200 random operators plus all structured fixtures:
    # the commutator criterion and the brute-force check never disagree.
    assert MAX_ORDER == 6
    result = suite_centered_oracle(rng_for(2), dim=6, trials=200)
    assert_clean(result)
    assert result.trials >= 200


def test_product_three_way_equivalence():
    # 200 independent random pairs plus 50 constructed commuting-moduli
    # pairs: the three booleans coincide on every pair, and every
    # constructed pair reports a valid polar decomposition.
    result = suite_product_polar(rng_for(3), dim=6, trials=200)
    assert_clean(result)
    assert result.trials == 250


def test_polar_factor_transfer_both_directions():
    # On 100 random pairs the factor built from the moduli product verifies
    # the product's polar contract and vice versa, residuals within 1e-8.
    result = suite_polar_transfer(rng_for(4), dim=6, trials=100, cfg=RELAXED)
    assert_clean(result)
    assert result.trials == 100


def test_aluthge_transform_binormal_equivalents():
    # 50 binormal draws: the polar-factor equation and both closed-form
    # modulus identities hold at every sampled exponent pair within 1e-8.
    # 50 non-binormal draws: all five equivalent statements are false.
    assert ALUTHGE_EXPONENTS == ((0.5, 0.5), (1.0, 2.0), (math.sqrt(2.0) / 2.0, 3.0))
    result = suite_aluthge_binormal(rng_for(5), dim=6, trials=100, cfg=RELAXED)
    assert_clean(result)
    assert result.trials == 100


def test_moore_penrose_interplay():
    # 200 random draws plus all structured fixtures (generated shifts
    # included): modulus identities, the inverse polar decomposition,
    # power compatibility up to the verified order, preservation of the
    # centered order and of binormality, residuals within 1e-8.
    assert MAX_ORDER == 6
    result = suite_mp_inverse(rng_for(6), dim=6, trials=200, cfg=RELAXED)
    assert_clean(result)
    assert result.trials >= 200


def test_shift_family_has_exact_centered_orders():
    # For each target n in 2..8 at the default truncation depth n+3: the
    # generated operator is n-centered and not (n+1)-centered by both
    # routes, and the weight pattern predicts every numeric commutator.
    assert SHIFT_ORDERS == (2, 3, 4, 5, 6, 7, 8)
    start = time.perf_counter()
    result = suite_shift_family(rng_for(7), dim=0, trials=0)
    elapsed = time.perf_counter() - start
    assert_clean(result)
    assert result.trials == 7
    assert elapsed < 30.0, f"shift family took {elapsed:.1f}s"


def test_driving_matrix_power_entries_closed_form():
    # Closed-form (1,3)/(3,3) entries match numeric powers within 1e-9 for
    # k <= 30; the (3,3) entry vanishes at k = 1, stays above 1e-8 for
    # k >= 2, and the shift identity holds within 1e-12.
    assert V_POWERS == 30
    result = suite_v_entries(rng_for(8), dim=0, trials=0)
    assert_clean(result)
    assert result.trials == 30


def test_psd_pair_functional_calculus_properties():
    # 200 commuting and non-commuting PSD pairs: products, fractional
    # powers, and range projections keep the expected positivity and
    # commutation behavior, with zero failures.
    result = suite_psd_pairs(rng_for(9), dim=6, trials=200)
    assert_clean(result)
    assert result.trials == 200
