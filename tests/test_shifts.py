"""Tests for the truncated block shifts of centered order n."""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple
from itertools import islice, takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarops import classify
from polarops.classify import (
    _GROUP_ENTRIES,
    CenteredReport,
    _block_labels,
    _power_groups,
    _powers,
    blockwise_centered_order,
    centered_order,
    is_n_centered_definitional,
)
from polarops.core import (
    DEFAULT_TOLERANCES,
    _adjoint,
    _threshold,
    as_operator,
    commutes,
    fro_norm,
    rank_margin,
    svd,
)
from polarops.decomp import polar_decompose, verify_polar
from polarops.sampling import random_operator
from polarops.shifts import (
    BLOCK,
    ShiftSpec,
    _dense,
    _predicted_pattern,
    _subdiagonal_blocks,
    angle_constants,
    block_t,
    build_truncated,
    certify_blockwise,
    expected_commutator_pattern,
    g_sequence,
    pattern_mismatches,
    predicted_polar_parts,
    subdiagonal_blocks,
    v_matrix,
    v_power_entries,
    verify_predicted_structure,
)
from polarops.windows import Windows

TIGHT = 1e-12


class TestAngleConstants:
    def test_pinned_values(self):
        c = angle_constants()
        assert c.theta == pytest.approx(0.7404805, abs=1e-6)
        assert c.cos_theta > 0.5
        assert 0.0 < c.sin_alpha < 1.0

    def test_trig_consistency(self):
        c = angle_constants()
        assert c.sin_alpha**2 + c.cos_alpha**2 == pytest.approx(1.0, abs=1e-15)
        assert c.sec_alpha * c.cos_alpha == pytest.approx(1.0, abs=1e-15)
        assert c.tan_alpha == pytest.approx(c.sin_alpha / c.cos_alpha, abs=1e-15)
        assert np.sin(c.alpha) == pytest.approx(c.sin_alpha, abs=1e-15)


class TestVMatrix:
    def test_unitary(self):
        v = v_matrix()
        assert np.allclose(v @ v.conj().T, np.eye(3), atol=1e-15)

    def test_determinant(self):
        assert np.linalg.det(v_matrix()) == pytest.approx(-1.0, abs=1e-12)

    def test_spectrum(self):
        c = angle_constants()
        expected = np.sort_complex(
            np.array([-1.0, np.exp(1j * c.theta), np.exp(-1j * c.theta)])
        )
        actual = np.sort_complex(np.linalg.eigvals(v_matrix()))
        assert np.max(np.abs(actual - expected)) < 1e-12


class TestVPowerEntries:
    def test_matches_numeric_powers(self):
        v = v_matrix()
        power = np.eye(3, dtype=complex)
        for k in range(1, 31):
            power = power @ v
            v13, v33 = v_power_entries(k)
            assert abs(power[0, 2] - v13) < 1e-10
            assert abs(power[2, 2] - v33) < 1e-10

    def test_first_power_corner_vanishes_exactly(self):
        assert v_power_entries(1)[1] == 0

    def test_shift_identity_is_exact(self):
        for k in range(1, 31):
            assert v_power_entries(k)[1] == v_power_entries(k + 1)[0]

    def test_corner_stays_away_from_zero_beyond_one(self):
        for k in range(2, 31):
            assert abs(v_power_entries(k)[1]) > 1e-8

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            v_power_entries(0)


class TestGSequence:
    def test_order_two_recipe(self):
        assert g_sequence(2, 6) == (1.0, 2.0, 3.0, 4.0, 1.0, 1.0)

    def test_order_three_recipe(self):
        assert g_sequence(3, 6) == (1.0, 2.0, 2.0, 2.0, 1.0, 1.0)

    def test_order_five_recipe(self):
        assert g_sequence(5, 8) == (1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0)

    def test_values_in_range(self):
        for n in range(2, 9):
            assert all(0.0 < w <= 4.0 for w in g_sequence(n, n + 5))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            g_sequence(1, 6)
        with pytest.raises(ValueError):
            g_sequence(3, 4)


class TestShiftSpec:
    def test_from_recipe_defaults(self):
        spec = ShiftSpec.from_recipe(2)
        assert spec.blocks == 5
        assert spec.dimension == 15
        assert spec.g == g_sequence(2, 5)

    def test_explicit_blocks(self):
        spec = ShiftSpec.from_recipe(4, blocks=7)
        assert spec.blocks == 7
        assert spec.dimension == 21

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ShiftSpec(n=1, blocks=5, g=(1.0,) * 5)
        with pytest.raises(ValueError):
            ShiftSpec(n=3, blocks=4, g=(1.0,) * 4)
        with pytest.raises(ValueError):
            ShiftSpec(n=2, blocks=5, g=(1.0,) * 4)
        with pytest.raises(ValueError):
            ShiftSpec(n=2, blocks=5, g=(1.0, 2.0, 3.0, 5.0, 1.0))
        with pytest.raises(ValueError):
            ShiftSpec(n=2, blocks=5, g=(0.0, 1.0, 1.0, 1.0, 1.0))


class TestBlockT:
    def test_polar_parts_are_v_and_diagonal(self):
        g = g_sequence(2, 5)
        for m in range(1, 5):
            block = block_t(m, g)
            parts = polar_decompose(block)
            assert np.allclose(parts.isometry, v_matrix(), atol=1e-10)
            c = angle_constants()
            expected = np.diag(
                [c.sec_alpha * g[m - 1], c.sec_alpha * g[m - 1], c.sec_alpha * g[m]]
            )
            assert np.allclose(parts.modulus, expected, atol=1e-10)
            assert verify_polar(block, parts).ok

    def test_gram_matrix_is_diagonal(self):
        block = block_t(1, g_sequence(3, 6))
        gram = block.conj().T @ block
        assert np.allclose(gram, np.diag(np.diag(gram)), atol=TIGHT)

    def test_modulus_splits_into_scalar_plus_corner(self):
        # diag(s*g(m), s*g(m), s*g(m+1)) = s*g(m)*I + diag(0, 0, s*(g(m+1)-g(m)))
        # exactly in floats for the recipe weights.
        c = angle_constants()
        for g in (g_sequence(2, 6), g_sequence(3, 6)):
            for m in range(1, len(g)):
                gm, gm1 = g[m - 1], g[m]
                scalar = c.sec_alpha * gm * np.eye(3)
                corner = np.diag([0.0, 0.0, c.sec_alpha * (gm1 - gm)])
                split = scalar + corner
                direct = np.diag(
                    [c.sec_alpha * gm, c.sec_alpha * gm, c.sec_alpha * gm1]
                )
                assert np.array_equal(split, direct)

    def test_rejects_out_of_range_index(self):
        g = g_sequence(2, 5)
        with pytest.raises(ValueError):
            block_t(0, g)
        with pytest.raises(ValueError):
            block_t(5, g)


class TestBuildTruncated:
    def test_shape_and_block_placement(self):
        spec = ShiftSpec.from_recipe(2)
        t = build_truncated(spec)
        assert t.shape == (15, 15)
        for m in range(1, spec.blocks):
            row, col = BLOCK * m, BLOCK * (m - 1)
            assert np.array_equal(
                t[row : row + BLOCK, col : col + BLOCK], block_t(m, spec.g)
            )
        # Everything off the first block subdiagonal is zero.
        mask = np.ones_like(t, dtype=bool)
        for m in range(1, spec.blocks):
            mask[BLOCK * m : BLOCK * (m + 1), BLOCK * (m - 1) : BLOCK * m] = False
        assert np.all(t[mask] == 0)

    def test_predicted_polar_parts_pass_contract(self):
        for n in (2, 3, 4):
            spec = ShiftSpec.from_recipe(n)
            t = build_truncated(spec)
            predicted = predicted_polar_parts(spec)
            check = verify_polar(t, predicted)
            assert check.ok
            assert check.worst() < 1e-12
            computed = polar_decompose(t)
            assert computed.rank == predicted.rank

    def test_exact_centered_order(self):
        for n in (2, 3, 4, 5):
            t = build_truncated(ShiftSpec.from_recipe(n))
            report = centered_order(t, n + 2)
            assert report.verified_order == n
            assert report.oracle_agrees
            assert is_n_centered_definitional(t, n).ok
            assert not is_n_centered_definitional(t, n + 1).ok

    def test_truncation_depth_does_not_change_order(self):
        for blocks in (5, 6, 8):
            t = build_truncated(ShiftSpec.from_recipe(3, blocks=blocks))
            assert centered_order(t, 5).verified_order == 3

    def test_constant_weights_center_at_every_order(self):
        spec = ShiftSpec(n=2, blocks=6, g=(1.0,) * 6)
        report = centered_order(build_truncated(spec), 8)
        assert report.verified_order == 8


class TestSubdiagonalBlocks:
    def test_cuts_the_blocks_build_truncated_placed(self):
        spec = ShiftSpec.from_recipe(5)
        stack = subdiagonal_blocks(build_truncated(spec))
        expected = [block_t(m, spec.g) for m in range(1, spec.blocks)]
        assert np.array_equal(stack, expected)
        assert np.array_equal(_dense(stack), build_truncated(spec))

    @pytest.mark.parametrize("row, col", [(0, 0), (0, 3), (7, 1), (14, 5)])
    def test_refuses_entries_off_the_subdiagonal(self, row, col):
        t = build_truncated(ShiftSpec.from_recipe(3))
        t[row, col] = 1e-3
        with pytest.raises(ValueError, match="off its first block subdiagonal"):
            subdiagonal_blocks(t)

    def test_refuses_other_shapes_and_non_finite_entries(self):
        t = build_truncated(ShiftSpec.from_recipe(3))
        for shape in (t[:-1, :-1], t[:-3]):
            with pytest.raises(ValueError, match="square matrix of 3x3 blocks"):
                subdiagonal_blocks(shape)
        t[4, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            subdiagonal_blocks(t)


class TestExpectedCommutatorPattern:
    def test_order_three_recipe_pattern(self):
        spec = ShiftSpec.from_recipe(3, blocks=6)
        assert expected_commutator_pattern(spec, 2)
        assert not expected_commutator_pattern(spec, 3)

    def test_constant_weights_always_commute(self):
        spec = ShiftSpec(n=2, blocks=6, g=(1.0,) * 6)
        for k in range(2, 6):
            assert expected_commutator_pattern(spec, k)

    def test_matches_numeric_commutators(self):
        for n in (2, 3, 4):
            spec = ShiftSpec.from_recipe(n)
            parts = polar_decompose(build_truncated(spec))
            u_pow = parts.isometry
            for k in range(1, spec.blocks - 1):
                conjugated = u_pow @ parts.modulus @ u_pow.conj().T
                predicted = True if k == 1 else expected_commutator_pattern(spec, k)
                assert commutes(conjugated, parts.modulus) == predicted
                u_pow = u_pow @ parts.isometry

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            expected_commutator_pattern(ShiftSpec.from_recipe(2), 1)


def _dense_decisions(t: np.ndarray, count: int) -> list[bool]:
    """Dense commute decisions of ``[U^k |T| (U^k)*, |T|]`` for k = 1..count."""
    parts = polar_decompose(t)
    u_pow, decisions = parts.isometry, []
    for _ in range(count):
        conjugated = u_pow @ parts.modulus @ u_pow.conj().T
        decisions.append(commutes(conjugated, parts.modulus))
        u_pow = u_pow @ parts.isometry
    return decisions


class TestCertifyBlockwise:
    @pytest.mark.parametrize(
        "n, blocks", [(n, n + extra) for n in range(2, 13) for extra in (2, 3, 7)]
    )
    def test_matches_the_dense_route(self, n, blocks):
        spec = ShiftSpec.from_recipe(n, blocks)
        t = build_truncated(spec)
        block = certify_blockwise(t, blocks - 1)
        dense = centered_order(t, blocks - 1)
        assert block.verified_order == dense.verified_order == n
        assert block.oracle_agrees == dense.oracle_agrees
        assert (block.dimension, block.max_order_checked, block.binormal) == (
            dense.dimension,
            dense.max_order_checked,
            dense.binormal,
        )
        assert len(block.commutator_norms) == len(dense.commutator_norms) == blocks - 2
        assert block.commutator_norms[n - 1] == pytest.approx(
            dense.commutator_norms[n - 1], rel=1e-12, abs=0.0
        )
        assert block.commutator_thresholds == pytest.approx(
            dense.commutator_thresholds, rel=1e-12, abs=0.0
        )
        # k < n passing on both routes means the vanishing norms lie below
        # their thresholds.
        decisions = _dense_decisions(t, blocks - 2)
        assert list(block.commute_decisions()) == decisions
        assert list(dense.commute_decisions()) == decisions
        assert all(decisions[: n - 1]) and not decisions[n - 1]
        assert max(block.commutator_norms[: n - 1]) < 1e-12
        assert pattern_mismatches(spec, block.commute_decisions()) == 0
        # The block spectra are the dense one up to roundoff.
        assert block.rank_margin == pytest.approx(
            rank_margin(svd(t).singular_values), rel=1e-12, abs=0.0
        )

    def test_constant_weights_center_at_every_checked_order(self):
        t = build_truncated(ShiftSpec(n=2, blocks=9, g=(1.0,) * 9))
        report = certify_blockwise(t, 8)
        assert report.verified_order == 8
        assert report.oracle_agrees == centered_order(t, 8).oracle_agrees
        assert all(report.commute_decisions())

    def test_large_order_without_overflow(self):
        # The entries of T^k grow like 2^k; unscaled, the oracle's sums of
        # squares overflow near k = 450 and its check fails.
        spec = ShiftSpec.from_recipe(500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify_blockwise(build_truncated(spec), spec.blocks - 1)
        assert report.verified_order == 500
        assert report.oracle_agrees

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_max_n_one_matches_the_dense_route(self, n):
        t = build_truncated(ShiftSpec.from_recipe(n))
        block, dense = certify_blockwise(t, 1), centered_order(t, 1)
        assert block.binormal and dense.binormal
        assert block.verified_order == dense.verified_order == 1
        assert block.commutator_norms == dense.commutator_norms == ()
        assert block.oracle_agrees == dense.oracle_agrees

    @pytest.mark.parametrize("row, col", [(0, 0), (0, 3), (7, 1), (14, 5), (20, 20)])
    def test_rejects_entries_off_the_subdiagonal(self, row, col):
        t = build_truncated(ShiftSpec.from_recipe(4))
        t[row, col] = 1e-3
        with pytest.raises(ValueError, match="off its first block subdiagonal"):
            certify_blockwise(t, 5)

    def test_rejects_bad_shapes_and_orders(self):
        t = build_truncated(ShiftSpec.from_recipe(4))
        for shape_or_order in ((t[:-1, :-1], 5), (t[:-3], 5), (t, 0), (t, 7)):
            with pytest.raises(ValueError, match="3x3 blocks"):
                certify_blockwise(*shape_or_order)

    def test_block_entry_walks_at_most_one_power_per_block(self):
        # The stack of 6 blocks of the order-4 shift has powers T^1..T^6:
        # the block entry checks up to max_n = 6, the last order
        # certify_blockwise takes, and refuses 0 and 7.
        t = build_truncated(ShiftSpec.from_recipe(4))
        stack = _subdiagonal_blocks(t)
        assert blockwise_centered_order(stack, 6) == certify_blockwise(t, 6)
        for max_n in (0, 7):
            with pytest.raises(ValueError, match=f"max_n must lie in 1..6, got {max_n}"):
                blockwise_centered_order(stack, max_n)


_POOL_KINDS = ("zero", "sparse", "dense", "rank-one", "negative-zeros", "conjugate")


def _pool(rng, kinds) -> np.ndarray:
    """A pool of 3x3 blocks, one per kind, for the windowed-walk tests.
    ``negative-zeros`` copies the block before it (or a zero block) with
    -0.0 in place of its zeros, and ``conjugate`` conjugates it; a real
    block's conjugate carries -0.0 imaginary parts. Either makes a block of
    values equal to, and bytes other than, one already in the pool, or (for
    a complex block) one of the same real parts."""
    pool = []
    for kind in kinds:
        last = pool[-1] if pool else np.zeros((BLOCK, BLOCK), dtype=np.complex128)
        if kind == "zero":
            block = np.zeros((BLOCK, BLOCK), dtype=np.complex128)
        elif kind == "sparse":
            # The zero pattern of block_t, with seeded weights.
            block = block_t(1, (1.0, 2.0))
            block[1:, :2] *= rng.integers(1, 4)
        elif kind == "dense":
            block = random_operator(rng, BLOCK)
        elif kind == "rank-one":
            left, right = rng.standard_normal((2, BLOCK, 1))
            block = (left @ right.T).astype(np.complex128)
        elif kind == "negative-zeros":
            block = np.where(last == 0, complex(-0.0, -0.0), last)
        else:
            block = last.conj()
        pool.append(block)
    return np.array(pool)


@st.composite
def _block_stacks(draw):
    """A block shift and an order ``max_n`` to certify it to: its blocks
    drawn from a pool of 1-6 blocks (see ``_pool``): zero blocks, blocks
    with exact zeros, dense and rank-one blocks, and blocks of equal values
    but other bytes (-0.0 for 0.0); or every block distinct."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    kinds = draw(st.lists(st.sampled_from(_POOL_KINDS), min_size=1, max_size=6))
    positions = draw(st.integers(1, 30), label="positions")
    if draw(st.booleans(), label="distinct"):
        stack = random_operator(rng, BLOCK * positions, BLOCK)
        stack = stack.reshape(positions, BLOCK, BLOCK)
    else:
        pool = _pool(rng, kinds)
        stack = pool[rng.integers(0, len(pool), positions)]
    return _dense(stack), draw(st.integers(1, positions), label="max_n")


def _position_norm(x: np.ndarray) -> float:
    """The norm of a stack of 3x3 blocks as the block route takes it: one
    sum of squares per block, the sums added in position order by
    ``numpy.add.reduceat``."""
    rows = x.reshape(1, len(x), -1)
    squares = (np.square(rows.real) + np.square(rows.imag)).sum(axis=-1)
    return float(np.sqrt(np.add.reduceat(squares, [0], axis=1))[0, 0])


def _reference_certify_blockwise(
    t, max_n, cfg=DEFAULT_TOLERANCES, norm=_position_norm
) -> CenteredReport:
    """``certify_blockwise`` as the walk of every block position, one power
    at a time: each power of ``T`` and ``U`` formed at every position, each
    commutator taken at every position, and the oracle factoring every
    block of ``T^k``, k up to min(verified + 1, max_n), up to its first
    failing power. Each norm of a power is ``norm`` of its blocks at every
    position: by default as the block route takes it, or with ``fro_norm``
    as the whole stack's."""

    def residual(a, b):
        return norm(a - b) / max(1.0, norm(a), norm(b))

    stack = _subdiagonal_blocks(as_operator(t))
    parts = polar_decompose(stack, cfg)
    u, p = parts.isometry, np.concatenate([parts.modulus, np.zeros((1, BLOCK, BLOCK))])
    norms, thresholds = [], []
    u_pow = u
    for k in range(1, max(max_n - 1, 1) + 1):
        conjugated = u_pow @ p[: len(u_pow)] @ _adjoint(u_pow)
        commutator = conjugated @ p[k:] - p[k:] @ conjugated
        norms.append(norm(commutator))
        thresholds.append(float(_threshold(norm(conjugated), fro_norm(p), cfg)))
        u_pow = u_pow[1:] @ u[: len(u_pow) - 1]
    decisions = [value <= threshold for value, threshold in zip(norms, thresholds)]
    verified = 1 + len(list(takewhile(bool, decisions[: max_n - 1])))
    passing, t_pow, u_pow = 0, stack, u
    for _ in range(min(verified + 1, max_n)):
        # The entries of T^k are rescaled by exact powers of two.
        top = np.abs(t_pow).max()
        if top > 2.0**64:
            t_pow = t_pow * 2.0 ** (33 - math.frexp(top)[1])
        own = polar_decompose(t_pow, cfg)
        equation = residual(t_pow, u_pow @ own.modulus)
        projection = _adjoint(own.isometry) @ own.isometry
        ranges = residual(_adjoint(u_pow) @ u_pow, projection)
        if max(equation, ranges) > cfg.equality_rel_tol:
            break
        passing += 1
        t_pow = t_pow[1:] @ stack[: len(t_pow) - 1]
        u_pow = u_pow[1:] @ u[: len(u_pow) - 1]
    return CenteredReport(
        dimension=BLOCK * len(p),
        max_order_checked=max_n,
        verified_order=verified,
        commutator_norms=tuple(norms[: max_n - 1]),
        commutator_thresholds=tuple(thresholds[: max_n - 1]),
        rank_margin=rank_margin(np.sort(parts.singular_values, axis=None)[::-1], cfg),
        binormal=decisions[0],
        oracle_agrees=passing == verified,
    )


def _assert_close_to_the_gathered_norms(t, max_n):
    """The block route's report against the walk of every position with
    ``fro_norm`` of each gathered span: norms and thresholds within
    ``rtol=1e-14``, every decision equal."""
    report = certify_blockwise(t, max_n)
    gathered = _reference_certify_blockwise(t, max_n, norm=fro_norm)
    for field in ("commutator_norms", "commutator_thresholds"):
        np.testing.assert_allclose(
            getattr(report, field), getattr(gathered, field), rtol=1e-14, atol=0.0
        )
    assert report.commute_decisions() == gathered.commute_decisions()
    decided = ("verified_order", "binormal", "oracle_agrees")
    assert [getattr(report, name) for name in decided] == [
        getattr(gathered, name) for name in decided
    ]


def _hex(report: CenteredReport) -> tuple:
    """The fields of a report, each float as float hex."""

    def exact(value):
        if isinstance(value, tuple):
            return tuple(map(exact, value))
        return value.hex() if isinstance(value, float) else value

    return exact(astuple(report))


class TestWindowedWalk:
    """``certify_blockwise`` forms, factors and checks each power once per
    distinct window of its blocks; its report is bitwise that of the walk of
    every block position."""

    @pytest.mark.parametrize("extra", [2, 3, 10])
    def test_shifts_match_the_walk_of_every_position(self, extra):
        # Up to 11 windows per power at blocks = n + 10.
        for n in range(2, 61):
            spec = ShiftSpec.from_recipe(n, n + extra)
            t = build_truncated(spec)
            expected = _reference_certify_blockwise(t, spec.blocks - 1)
            assert _hex(certify_blockwise(t, spec.blocks - 1)) == _hex(expected), n

    def test_oracle_falls_back_to_one_power_at_a_time(self, monkeypatch):
        # An SVD that fails for one matrix fails for its whole stack; the
        # oracle then factors the windows of one power at a time, each
        # placed by its own layout.
        spec = ShiftSpec.from_recipe(8)
        t = build_truncated(spec)
        expected = _hex(certify_blockwise(t, spec.blocks - 1))
        original = np.linalg.svd
        factored = []

        def small_stacks_only(a, *args, **kwargs):
            if np.ndim(a) > 2 and np.prod(np.shape(a)[:-2]) > 5:
                raise np.linalg.LinAlgError("SVD did not converge")
            factored.append(np.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", small_stacks_only)
        assert _hex(certify_blockwise(t, spec.blocks - 1)) == expected
        # The 4 distinct blocks, then T^1..T^9 one power at a time.
        assert len(factored) == 1 + 9

    @settings(max_examples=60, deadline=None)
    @given(case=_block_stacks())
    def test_block_stacks_match_the_walk_of_every_position(self, case):
        t, max_n = case
        expected = _reference_certify_blockwise(t, max_n)
        assert _hex(certify_blockwise(t, max_n)) == _hex(expected)


@st.composite
def _run_labels(draw):
    """Labels of 1-30 blocks that come in runs of equal labels, in one of
    four forms: a pattern of runs repeated (periodic, labels like ABAB or
    AABAAB), runs of a few labels in any order (a label comes back after
    others), every label distinct, and a single run. The labels are
    numbered 0, 1, ... with none left out, as ``Windows`` takes them."""
    form = draw(st.sampled_from(["periodic", "separated", "distinct", "single"]), label="form")
    run = st.tuples(st.integers(0, 3), st.integers(1, 5))
    if form == "periodic":
        runs = draw(st.lists(run, min_size=1, max_size=3)) * draw(st.integers(1, 8))
    elif form == "separated":
        runs = draw(st.lists(run, min_size=1, max_size=12))
    elif form == "distinct":
        runs = [(label, 1) for label in range(draw(st.integers(1, 30)))]
    else:
        runs = [(0, draw(st.integers(1, 30)))]
    labels = np.repeat(*zip(*runs))[:30]
    return np.unique(labels, return_inverse=True)[1]


def _power_layouts(labels: np.ndarray, group: int) -> tuple[np.ndarray, list]:
    """The labels with the pad (``Windows.labels``), and the layout of each
    power of the walk over ``labels``, whose groups hold at most ``group``
    windows, each power's layout cut from its group's."""
    windows = Windows(labels, group)
    layouts, first = [], 1
    while first <= len(labels):
        layout = windows.layout(first)
        layouts += [layout.cut(i, i + 1) for i in range(len(layout.lengths))]
        first += len(layout.lengths)
    return windows.labels, layouts


def _numbered_windows(padded: np.ndarray, ids: np.ndarray, k: int) -> dict:
    """The window of ``k`` labels of ``padded`` at each position j of
    ``ids``, by its number ``ids[j]``: each number must name one window."""
    named: dict = {}
    for j, number in enumerate(ids.tolist()):
        named.setdefault(number, set()).add(tuple(padded[j : j + k].tolist()))
    return named


def _assert_windows_numbered(labels: np.ndarray, group: int) -> list[tuple[int, int]]:
    """Check the numbering of every power's windows and pairs: two
    positions share a number only when their windows of labels are equal,
    the numbers run 0, 1, ... with none left out, each window's source and
    each pair's image sit at a position that holds it, and the window over
    the pad is the last pair of each power, and the only one. Returns the
    numbers of windows and pairs of each power."""
    padded, layouts = _power_layouts(labels, group)
    assert [len(layout.index) for layout in layouts] == list(range(len(labels), 0, -1))
    counts = []
    for k, layout in enumerate(layouts, start=1):
        for ids, length in ((layout.index, k), (layout.pairs, k + 1)):
            named = _numbered_windows(padded, ids, length)
            assert all(len(windows) == 1 for windows in named.values()), (k, named)
            assert sorted(named) == list(range(len(named)))
        assert np.array_equal(layout.index[layout.sources], np.arange(len(layout.sources)))
        heads = layout.images - k
        assert np.array_equal(layout.pairs[heads], np.arange(len(layout.images)))
        assert np.array_equal(layout.prefix, layout.index[heads])
        pad = layout.pairs[-1]
        assert pad == layout.pairs.max() and np.count_nonzero(layout.pairs == pad) == 1
        counts.append((len(layout.sources), len(layout.images)))
    return counts


def _distinct_windows(padded: np.ndarray, k: int, positions: int) -> int:
    """``np.unique``'s count of the distinct windows of ``k`` labels of
    ``padded`` at positions 0..positions-1."""
    view = np.lib.stride_tricks.sliding_window_view(padded, k)[:positions]
    return len(np.unique(view, axis=0))


class TestRunWindows:
    """``Windows`` numbers the windows of each power from the runs of the
    labels: equal labels in one run give one window, any other window is
    numbered by its position."""

    @settings(max_examples=200, deadline=None)
    @given(labels=_run_labels(), group=st.integers(1, 40))
    def test_numbers_name_equal_windows_and_the_pad_last(self, labels, group):
        _assert_windows_numbered(labels, group)

    @pytest.mark.parametrize("extra", [3, 10])
    def test_recipe_shifts_number_each_distinct_window_once(self, extra):
        # Each label of a recipe shift fills one run, so its windows are
        # numbered as np.unique counts them: at most 5 per power on the
        # default n + 3 blocks, and up to 11 on n + 10.
        for n in range(2, 61):
            stack = _subdiagonal_blocks(build_truncated(ShiftSpec.from_recipe(n, n + extra)))
            labels = _block_labels(stack)
            counts = _assert_windows_numbered(labels, _GROUP_ENTRIES // BLOCK**2)
            padded = np.append(labels, labels.max() + 1)
            expected = [
                (_distinct_windows(padded, k, len(stack) + 1 - k),
                 _distinct_windows(padded, k + 1, len(stack) + 1 - k))
                for k in range(1, len(stack) + 1)
            ]
            assert counts == expected, n
            if extra == 3:
                assert max(windows for windows, _ in counts) <= 5

    @settings(max_examples=80, deadline=None)
    @given(
        labels=_run_labels(),
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from([1, 20, 100, 2**12]),
        data=st.data(),
    )
    def test_labelled_stacks_match_the_walk_of_every_position(self, labels, seed, budget, data):
        # One random block per label, so the blocks' labels by their bytes
        # run as the drawn labels do; small budgets cut the walk into many
        # groups of powers.
        rng = np.random.default_rng(seed)
        pool = random_operator(rng, BLOCK * (labels.max() + 1), BLOCK).reshape(-1, BLOCK, BLOCK)
        t = _dense(pool[labels])
        max_n = data.draw(st.integers(1, len(labels)), label="max_n")
        expected = _reference_certify_blockwise(t, max_n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "_GROUP_ENTRIES", budget)
            assert _hex(certify_blockwise(t, max_n)) == _hex(expected)


class TestBlockRouteNorms:
    """The block route sums each norm's squares per block position, where
    ``fro_norm`` of the gathered span sums them entry by entry: the norms
    move by rounding only, and no decision moves."""

    @pytest.mark.parametrize("n", [2, 3, 10, 60])
    @pytest.mark.parametrize("extra", [3, 10])
    def test_shifts_stay_within_rounding_of_the_gathered_norms(self, n, extra):
        spec = ShiftSpec.from_recipe(n, n + extra)
        _assert_close_to_the_gathered_norms(build_truncated(spec), spec.blocks - 1)

    @settings(max_examples=60, deadline=None)
    @given(case=_block_stacks())
    def test_block_stacks_stay_within_rounding_of_the_gathered_norms(self, case):
        _assert_close_to_the_gathered_norms(*case)


def _on_block_subdiagonal(stack, k, blocks):
    """The matrix of ``blocks`` 3x3 block positions with ``stack[j]`` at block
    position (j + k, j) and zeros elsewhere."""
    grid = np.zeros((blocks, blocks, BLOCK, BLOCK), dtype=np.complex128)
    grid[np.arange(k, blocks), np.arange(blocks - k)] = stack
    return grid.swapaxes(1, 2).reshape(BLOCK * blocks, BLOCK * blocks)


class TestPowers:
    @staticmethod
    def _spans(stack, labels):
        """The walk of ``stack`` held by the windows of ``labels``, each power
        gathered back to its block positions, and the windows per power."""
        windows = Windows(labels, _GROUP_ENTRIES // BLOCK**2)
        spans, counts = [], []
        for group, layout in _power_groups(stack, windows, len(stack)):
            for i, power in enumerate(group):
                spans.append(power[layout.cut(i, i + 1).index])
                counts.append(len(power))
        return spans, counts

    @pytest.mark.parametrize("n", range(2, 9))
    def test_block_stack_powers_sit_on_the_kth_subdiagonal(self, n):
        # The blocks labelled by their exact bytes, as certify_blockwise
        # labels them.
        spec = ShiftSpec.from_recipe(n)
        t = build_truncated(spec)
        stack = _subdiagonal_blocks(t)
        spans, windows = self._spans(stack, _block_labels(stack))
        # T^blocks = 0: the walk ends with the single block of T^(blocks-1).
        assert [len(span) for span in spans] == list(range(spec.blocks - 1, 0, -1))
        # The shift has 4 distinct blocks, and few windows per power.
        assert windows[0] == 4 and max(windows) <= 5
        for k, span in enumerate(spans, start=1):
            expected = np.linalg.matrix_power(t, k)
            placed = _on_block_subdiagonal(span, k, spec.blocks)
            assert np.linalg.norm(placed - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [2, 5])
    def test_distinct_labels_walk_every_block_position(self, n):
        # With a label per block, each window is one block position, and
        # the gathered powers are bitwise those of the bytes labels.
        stack = _subdiagonal_blocks(build_truncated(ShiftSpec.from_recipe(n)))
        spans, windows = self._spans(stack, np.arange(len(stack)))
        assert windows == [len(span) for span in spans]
        shared, _ = self._spans(stack, _block_labels(stack))
        assert all(np.array_equal(a, b) for a, b in zip(spans, shared, strict=True))

    def test_matrix_powers_are_repeated_right_multiplication(self):
        a = random_operator(np.random.default_rng(5), 6)
        expected = a
        for power in islice(_powers(a), 8):
            assert np.array_equal(power, expected)
            expected = expected @ a


class TestVerifyPredictedStructure:
    @pytest.mark.parametrize(
        "n, blocks", [(n, n + extra) for n in range(2, 13) for extra in (2, 3, 7)]
    )
    def test_matches_the_dense_check(self, n, blocks):
        spec = ShiftSpec.from_recipe(n, blocks)
        t = build_truncated(spec)
        block = verify_predicted_structure(t, spec)
        dense = verify_polar(t, predicted_polar_parts(spec))
        assert block.ok and dense.ok
        assert block.residuals.keys() == dense.residuals.keys()
        for name, value in block.residuals.items():
            assert value == pytest.approx(dense.residuals[name], rel=0.0, abs=1e-15)

    def test_fails_with_the_dense_check_on_other_weights(self):
        spec = ShiftSpec.from_recipe(4)
        other = ShiftSpec(n=4, blocks=spec.blocks, g=(1.0,) * spec.blocks)
        t = build_truncated(other)
        block = verify_predicted_structure(t, spec)
        dense = verify_polar(t, predicted_polar_parts(spec))
        assert not block.ok and not dense.ok
        for name, value in block.residuals.items():
            close = pytest.approx(dense.residuals[name], rel=1e-12, abs=1e-15)
            assert value == close

    def test_predicted_parts_assemble_as_the_diagonal_of_moduli(self):
        spec = ShiftSpec(n=3, blocks=7, g=(1.0, 2.0, 2.0, 0.5, 2.0, 3.0, 1.0))
        g = np.asarray(spec.g)
        moduli = angle_constants().sec_alpha * np.stack([g[:-1], g[:-1], g[1:]], -1)
        diagonal = np.append(moduli, np.zeros(BLOCK))
        parts = predicted_polar_parts(spec)
        assert np.array_equal(parts.modulus, np.diag(diagonal).astype(np.complex128))
        assert parts.rank == BLOCK * (spec.blocks - 1)

    def test_rejects_entries_off_the_subdiagonal_and_other_dimensions(self):
        spec = ShiftSpec.from_recipe(4)
        t = build_truncated(spec)
        t[0, 0] = 1e-3
        with pytest.raises(ValueError, match="off its first block subdiagonal"):
            verify_predicted_structure(t, spec)
        with pytest.raises(ValueError, match="does not match"):
            verify_predicted_structure(build_truncated(ShiftSpec.from_recipe(3)), spec)


def _reference_commutes(spec: ShiftSpec, k: int) -> bool:
    """The weight pattern at one power k >= 2 as first written: one pass
    over the block positions m = 1..blocks-1-k."""
    g = spec.g
    for m in range(1, spec.blocks - k):
        if (g[m] - g[m - 1]) * (g[m + k] - g[m + k - 1]) != 0.0:
            return False
    return True


def _reference_pattern(spec: ShiftSpec) -> list[bool]:
    """The weight pattern for k = 1..blocks-2 as first written."""
    return [True] + [_reference_commutes(spec, k) for k in range(2, spec.blocks - 1)]


# Weights with exact repeats, neighbours one ulp apart, and subnormal and
# tiny values whose differences multiply to an underflowing product.
_WEIGHTS = (1.0, math.nextafter(1.0, 2.0), 2.0, 4.0, 1e-300, 2e-300, 5e-324, 1e-5)


class TestPatternMismatches:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_WEIGHTS), min_size=4, max_size=40))
    def test_pairs_of_changes_give_the_pattern_of_every_position(self, g):
        spec = ShiftSpec(n=2, blocks=len(g), g=tuple(g))
        assert _predicted_pattern(spec) == _reference_pattern(spec)
        # The public form at every power, past the truncation included.
        for k in range(2, spec.blocks + 2):
            assert expected_commutator_pattern(spec, k) == _reference_commutes(spec, k)

    def test_expected_pattern_is_the_reference_on_recipe_shifts(self):
        for n in range(2, 40):
            for blocks in (None, n + 10):
                spec = ShiftSpec.from_recipe(n, blocks=blocks)
                for k in range(2, spec.blocks + 2):
                    expected = _reference_commutes(spec, k)
                    assert expected_commutator_pattern(spec, k) == expected, (n, k)

    def test_an_underflowing_product_keeps_its_verdict(self):
        # Both differences are about 1e-300, and their product is 0.0: the
        # commutator counts as vanishing at k = 2, as position by position.
        g = (1e-300, 2e-300, 2e-300, 1e-300, 1e-300, 1e-300)
        spec = ShiftSpec(n=2, blocks=len(g), g=g)
        assert _predicted_pattern(spec) == _reference_pattern(spec) == [True] * 4

    def test_counts_disagreements_with_the_weights(self):
        spec = ShiftSpec.from_recipe(3, blocks=6)
        decisions = [True, True, False, True]
        assert pattern_mismatches(spec, decisions) == 0
        assert pattern_mismatches(spec, [True, False, True, True]) == 2

    def test_needs_one_decision_per_power(self):
        with pytest.raises(ValueError):
            pattern_mismatches(ShiftSpec.from_recipe(3, blocks=6), [True, True])
