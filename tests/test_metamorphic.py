"""Metamorphic tests: verdicts that the mathematics says do not change.

Unitary similarity ``T -> W T W*`` keeps the centered order, binormality and
the agreement of the definitional check (``U`` goes to ``W U W*``, ``|T|`` to
``W |T| W*``, and every commutator and polar decomposition with them), and it
keeps the polar and Moore-Penrose contracts; the adjoint keeps binormality
(``[T* T, T T*] = 0`` is the same equation for ``T*``). The operators are
``random_mixed_rank`` and ``random_binormal`` draws of dims 2-6, the recipe
shifts of orders 2-6 and every matrix of ``structured_fixtures``; Hypothesis
draws the seeds of the operator and of ``W``, derandomized, so each run
checks the same examples.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from polarops.classify import centered_order, is_binormal
from polarops.decomp import moore_penrose, penrose_check, polar_decompose, verify_polar
from polarops.sampling import (
    random_binormal,
    random_mixed_rank,
    random_unitary,
    structured_fixtures,
)
from polarops.shifts import ShiftSpec, build_truncated

FIXTURES = [name for name, _ in structured_fixtures(np.random.default_rng(0))]
KINDS = ["mixed-rank", "binormal", *(f"recipe-shift-{n}" for n in range(2, 7)), *FIXTURES]

# The nilpotent fixtures' order-6 report holds for N itself, whose powers
# vanish exactly, but not for W N W*: (W N W*)^2 is about 1.2e-16 of pure
# rounding, the oracle's relative rank cutoff gives that power rank 1, and
# the definitional check's range residuals read about (0, 1, 1), so
# oracle_agrees turns False; the criterion's order of 6 is right. A verdict
# that is invariant in exact arithmetic is not yet so in floating point.
NILPOTENT_UNDER_SIMILARITY = pytest.mark.xfail(
    strict=True,
    reason="(W N W*)^k of a nilpotent N is rounding, not 0: the oracle gives it "
    "rank 1 and disagrees with the criterion's order 6",
)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(2, 6)
# The same examples on every run; no shrinking, since a smaller seed is no
# simpler an operator.
EXAMPLES = settings(
    max_examples=12, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate]
)


def _operator(kind: str, seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "mixed-rank":
        return random_mixed_rank(rng, dim)
    if kind == "binormal":
        return random_binormal(rng, dim)
    if kind.startswith("recipe-shift-"):
        return build_truncated(ShiftSpec.from_recipe(int(kind.rsplit("-", 1)[1])))
    return dict(structured_fixtures(rng))[kind]


def _similar(t: np.ndarray, seed: int) -> np.ndarray:
    w = random_unitary(np.random.default_rng(seed), t.shape[0])
    return w @ t @ w.conj().T


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(kind, marks=NILPOTENT_UNDER_SIMILARITY)
        if kind.startswith("nilpotent-")
        else kind
        for kind in KINDS
    ],
)
@EXAMPLES
@given(seed=seeds, dim=dims, w_seed=seeds)
def test_centered_report_is_invariant_under_unitary_similarity(kind, seed, dim, w_seed):
    t = _operator(kind, seed, dim)
    before = centered_order(t, 6)
    after = centered_order(_similar(t, w_seed), 6)
    assert (after.verified_order, after.binormal, after.oracle_agrees) == (
        before.verified_order,
        before.binormal,
        before.oracle_agrees,
    )


@pytest.mark.parametrize("kind", KINDS)
@EXAMPLES
@given(seed=seeds, dim=dims, w_seed=seeds)
def test_polar_and_penrose_contracts_hold_under_unitary_similarity(kind, seed, dim, w_seed):
    t = _similar(_operator(kind, seed, dim), w_seed)
    assert verify_polar(t, polar_decompose(t)).ok
    assert penrose_check(t, moore_penrose(t)).ok


@pytest.mark.parametrize("kind", KINDS)
@EXAMPLES
@given(seed=seeds, dim=dims)
def test_binormality_is_invariant_under_the_adjoint(kind, seed, dim):
    t = _operator(kind, seed, dim)
    assert is_binormal(t.conj().T)[0] == is_binormal(t)[0]
