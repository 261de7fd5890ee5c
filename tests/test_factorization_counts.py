"""Factorization-count gates and the single-pass definitional oracle.

LAPACK call counts are deterministic, and so are the matrices factored: a
stacked call factors every matrix of its stack. The whole-suite count, the
counts of the suites that share factorizations within a trial or evaluate
their trials in shape groups (every random suite), the blockwise
``counterexample`` count and the dense-file commands are pinned exactly,
and no dense-file command factors the same matrix twice: ``T`` once for
``U``, the margin and, in ``classify``, the oracle's check of ``T`` itself;
``verify_polar`` factors only its modulus ``P``, by one ``eigh`` for both
its spectrum and its range projection, and checks the ``|T*|`` identities
by matmuls.
The random suites' draws are pinned to their QR calls, one stacked QR
per dimension (or per shape of basis) where a suite takes a stacked draw,
and ``mp-inverse`` and ``psd-pairs`` to no ``core._checked`` call below
``run_suite``.
Single calls are pinned to their stacked calls and to one matrix per
operator power, or per distinct window of a block shift's powers. Every
route to the definitional check, ``centered_order``,
``is_n_centered_definitional`` and ``binormal_equivalents``, factors the
powers ``T^k`` in one stacked SVD per group of powers, however many of
them each operator checks, so grouping lowers the calls but, wherever the
oracle agrees, not the matrices factored;
where they take the SVD of ``T`` for ``U`` themselves (``binormal_equivalents``
in one SVD of ``T`` and ``T*``), the oracle takes ``T`` itself from it and
factors only ``T^k``, k >= 2. The
equivalence tests keep the two-call definition of ``oracle_agrees`` and the
two-SVD definitional loop as references for the single pass, and a test
forces the oracle's fallback to one operator and one power at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from polarops import classify, core, decomp, matrixio, suites
from polarops.classify import _oracle_residuals, _oracle_run, centered_order, is_n_centered_definitional
from polarops.cli import main
from polarops.core import DEFAULT_TOLERANCES, _svd, equality_residual, range_projection
from polarops.decomp import abs_value, polar_decompose
from polarops.matrixio import write_matrix
from polarops.sampling import (
    random_mixed_rank,
    random_operator,
    structured_fixtures,
)
from polarops.shifts import ShiftSpec, build_truncated, certify_blockwise
from polarops.suites import run_suite


@dataclass
class LapackLog:
    """Calls of numpy's svd/eigh/eigvalsh keyed by ``(name, ndim of the
    input)``: 2 for a dense operator, 3 for a stack. ``matrices`` counts, per
    name, the matrices those calls factored: the product of the leading
    dimensions of each input, 1 for a dense operator."""

    calls: Counter = field(default_factory=Counter)
    matrices: Counter = field(default_factory=Counter)

    def clear(self) -> None:
        self.calls.clear()
        self.matrices.clear()


@pytest.fixture
def lapack_calls(monkeypatch) -> LapackLog:
    """Log the calls of numpy's svd/eigh/eigvalsh for the rest of the test."""
    log = LapackLog()
    for name in ("svd", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            log.calls[_name, np.ndim(a)] += 1
            log.matrices[_name] += int(np.prod(np.shape(a)[:-2], dtype=int))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return log


def _totals(log: LapackLog) -> Counter:
    """Calls per name, whatever the input's ndim."""
    totals: Counter = Counter()
    for (name, _), count in log.calls.items():
        totals[name] += count
    return totals


def _shift(n: int) -> np.ndarray:
    return build_truncated(ShiftSpec.from_recipe(n))


def _operators() -> list[np.ndarray]:
    """Random draws, their tiny-norm copies (where the commutator floor
    makes the criterion overshoot, so the oracle disagrees), the structured
    fixtures, and the shifts of orders 2-8."""
    rng = np.random.default_rng(20261017)
    draws = [random_mixed_rank(rng, int(d)) for d in rng.integers(2, 7, size=40)]
    operators = draws + [1e-6 * t for t in draws[:10]]
    operators += [matrix for _, matrix in structured_fixtures(rng)]
    operators += [_shift(n) for n in range(2, 9)]
    return operators


def _two_call_oracle_agrees(t: np.ndarray, verified: int, max_n: int) -> bool:
    """``oracle_agrees`` as first defined: the definitional check holds at
    the verified order and, when there is room, fails one order above."""
    at_order = is_n_centered_definitional(t, verified).ok
    if verified < max_n:
        return at_order and not is_n_centered_definitional(t, verified + 1).ok
    return at_order


def _two_svd_residuals(t: np.ndarray, n: int) -> tuple[list[float], list[float]]:
    """The definitional loop as first written: ``|T^k|`` and the range
    projection of ``(T^k)*`` from two separate SVDs of each power."""
    u = polar_decompose(t).isometry
    equation, ranges = [], []
    t_pow, u_pow = t, u
    for _ in range(n):
        equation.append(equality_residual(t_pow, u_pow @ abs_value(t_pow)))
        ranges.append(
            equality_residual(u_pow.conj().T @ u_pow, range_projection(t_pow.conj().T))
        )
        t_pow, u_pow = t_pow @ t, u_pow @ u
    return equation, ranges


def test_centered_order_on_order6_shift_makes_3_svds_of_7_matrices(lapack_calls):
    # One SVD for U, which also serves the oracle's check of T, then the
    # 27x27 powers T^2..T^7 in two groups, T^2..T^5 and T^6..T^7, one
    # stacked SVD each.
    report = centered_order(_shift(6), 7)
    assert report.verified_order == 6 and report.oracle_agrees
    assert _totals(lapack_calls)["svd"] == 3
    assert lapack_calls.matrices["svd"] == 7


def test_oracle_factors_every_power_it_checks(monkeypatch):
    factored = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        # Each matrix of a stacked input, a dense input as itself.
        factored.extend(np.array(a).reshape(-1, *np.shape(a)[-2:]))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    t = _shift(6)
    centered_order(t, 7)
    # T once, for U and for the oracle's check of T; then T^2..T^7.
    assert len(factored) == 7
    assert np.array_equal(factored[0], t)
    t_pow = t
    for _ in range(6):
        t_pow = t_pow @ t
        assert any(np.array_equal(t_pow, a) for a in factored[1:])


@pytest.mark.parametrize("n", [3, 7])
def test_definitional_check_takes_two_svds(lapack_calls, n):
    # One SVD of T for U and the check of T itself, then the 5x5 powers
    # T^2..T^n in one stacked SVD.
    t = random_mixed_rank(np.random.default_rng(n), 5)
    is_n_centered_definitional(t, n)
    assert _totals(lapack_calls)["svd"] == 2
    assert lapack_calls.matrices["svd"] == n


def test_definitional_check_of_t_alone_takes_the_svd_of_u(lapack_calls):
    # For n = 1 the SVD of T taken for U is the only factorization.
    t = random_mixed_rank(np.random.default_rng(1), 5)
    check = is_n_centered_definitional(t, 1)
    assert lapack_calls.calls == Counter({("svd", 3): 1})
    assert lapack_calls.matrices["svd"] == 1
    equation, ranges = _two_svd_residuals(t, 1)
    assert list(check.equation_residuals) == equation
    np.testing.assert_allclose(check.range_residuals, ranges, rtol=0, atol=1e-12)


def test_oracle_falls_back_to_one_power_at_a_time(monkeypatch):
    # A tiny rank-4 draw: its commutators fall below the absolute floor, so
    # the criterion reaches order 6, while the range of (T^2)* already
    # differs from that of (U^2)* U^2.
    t = 1e-12 * random_mixed_rank(np.random.default_rng(11), 5)
    expected = centered_order(t, 6)
    assert expected.verified_order == 6 and not expected.oracle_agrees
    check = is_n_centered_definitional(t, 6)
    tol = DEFAULT_TOLERANCES.equality_rel_tol
    assert check.range_residuals[0] <= tol < check.range_residuals[1]

    factored = []
    original = np.linalg.svd

    def single(a, *args, **kwargs):
        # A stack of more than one matrix fails, as when one of them does.
        if np.ndim(a) > 2 and len(a) > 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        factored.append(np.reshape(a, np.shape(a)[-2:]))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", single)
    assert centered_order(t, 6) == expected
    # T for U and the check of T itself, then T^2 on its own; no power
    # past the first failing one.
    assert len(factored) == 2
    assert all(np.array_equal(a, b) for a, b in zip(factored, [t, t @ t]))

    def no_square(a, *args, **kwargs):
        if any(np.array_equal(m, t @ t) for m in np.reshape(a, (-1, *t.shape))):
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(a, *args, **kwargs)

    # The definitional check reports every power, so one it cannot factor
    # raises.
    monkeypatch.setattr(np.linalg, "svd", no_square)
    assert is_n_centered_definitional(t, 1) == replace(
        check,
        ok=True,
        equation_residuals=check.equation_residuals[:1],
        range_residuals=check.range_residuals[:1],
    )
    with pytest.raises(np.linalg.LinAlgError):
        is_n_centered_definitional(t, 2)

    # Mixed counts: one pass over operators that check 6, 2 and 4 powers
    # falls back to each operator in turn, on its own checked powers, one
    # power at a time up to its first failing one.
    monkeypatch.setattr(np.linalg, "svd", original)
    operators, checked = _mixed_count_operators()
    t_pows, u_pows = _powers_of(operators, 6)
    expected = _oracle_run(t_pows, u_pows, DEFAULT_TOLERANCES, checked=checked)
    factored.clear()
    monkeypatch.setattr(np.linalg, "svd", single)
    passed = _oracle_run(t_pows, u_pows, DEFAULT_TOLERANCES, checked=checked)
    assert passed.tolist() == expected.tolist() == [1, 1, 4]
    powers = [t_pows[k][i, 0] for i, run in enumerate(passed) for k in range(min(run + 1, checked[i]))]
    assert len(factored) == len(powers) == 2 + 2 + 4
    assert all(np.array_equal(a, b) for a, b in zip(factored, powers))


def _mixed_count_operators() -> tuple[np.ndarray, np.ndarray]:
    """A 5x5 stack of a tiny rank-4 draw (its oracle fails at power 2), a
    generic draw (1-centered) and a normal operator (every power passes),
    and the numbers of powers they check: 6, 2 and 4."""
    tiny = 1e-12 * random_mixed_rank(np.random.default_rng(11), 5)
    generic = random_mixed_rank(np.random.default_rng(5), 5)
    normal = np.diag([1.0, 1j, -2.0, 0.5, 0.0]).astype(np.complex128)
    return np.stack([tiny, generic, normal])[:, None], np.array([6, 2, 4])


def _powers_of(t: np.ndarray, count: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The powers ``T^1..T^count`` and ``U^1..U^count`` of a stack of
    operators, each power as the walk of ``centered_order`` forms it."""
    u = polar_decompose(t).isometry
    t_pows, u_pows = [t], [u]
    for _ in range(count - 1):
        t_pows.append(t_pows[-1] @ t)
        u_pows.append(u_pows[-1] @ u)
    return t_pows, u_pows


def test_one_oracle_pass_factors_each_operator_on_its_own_powers(monkeypatch):
    # Operators that check 6, 2, 1 and 1 powers in one pass, with the SVD of
    # T held: one stacked SVD factors exactly the powers T^2..T^c each one
    # checks, and each operator's residuals over its checked powers, and
    # its run, are bitwise those of the pass of that operator alone. The
    # last operator, E_12 with E_12^2 = 0, passes the powers it does not
    # check (zero, as their zero factors), so its run is cut at its count.
    operators, _ = _mixed_count_operators()
    nilpotent = np.zeros((1, 1, 5, 5), dtype=np.complex128)
    nilpotent[..., 0, 1] = 1.0
    operators = np.concatenate([operators, nilpotent])
    checked = np.array([6, 2, 1, 1])
    t_pows, u_pows = _powers_of(operators, 6)
    held = _svd(operators)
    cfg = DEFAULT_TOLERANCES

    def alone(i: int, c: int) -> tuple:
        return [x[[i]] for x in t_pows[:c]], [x[[i]] for x in u_pows[:c]], cfg, None, held[[i]]

    residuals_alone = [_oracle_residuals(*alone(i, c)) for i, c in enumerate(checked)]
    runs = [_oracle_run(*alone(i, c))[0] for i, c in enumerate(checked)]
    factored = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        factored.append(np.reshape(a, (-1, *np.shape(a)[-2:])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    together = _oracle_residuals(t_pows, u_pows, cfg, held=held, checked=checked)
    passed = _oracle_run(t_pows, u_pows, cfg, held=held, checked=checked)
    assert passed.tolist() == runs == [1, 1, 1, 1]
    assert _oracle_run(t_pows, u_pows, cfg, held=held).tolist() == [1, 1, 6, 6]
    assert len(factored) == 3
    powers = [t_pows[k][i, 0] for i, c in enumerate(checked) for k in range(1, c)]
    assert len(factored[0]) == len(powers) == 5 + 1 + 0 + 0
    assert all(np.array_equal(a, b) for a, b in zip(factored[0], powers))
    for i, (c, own) in enumerate(zip(checked, residuals_alone)):
        for residuals, own_residuals in zip(together, own):
            assert residuals[i, :c].tobytes() == own_residuals[0].tobytes()


def test_centered_order_checks_mixed_counts_in_one_svd(lapack_calls):
    # At 15x15: a 1-centered draw checks T and T^2, the order-2 shift T to
    # T^3, and a unitary T to T^6: one SVD of T for U and the check of T
    # itself, one of the 1 + 2 + 5 later powers, and every report is
    # bitwise that of its operator alone.
    rng = np.random.default_rng(8)
    operators = [random_mixed_rank(rng, 15), _shift(2)]
    operators.append(np.roll(np.eye(15, dtype=np.complex128), 1, axis=0))
    reports = centered_order(np.stack(operators)[:, None], 6)
    assert [report.verified_order for report in reports] == [1, 2, 6]
    assert lapack_calls.calls == Counter({("svd", 3): 2})
    assert lapack_calls.matrices == Counter(svd=3 + 1 + 2 + 5)
    assert reports == [centered_order(t, 6) for t in operators]


def test_definitional_pass_in_centered_order_stops_at_first_failure(lapack_calls):
    # A generic draw is 1-centered and fails at power 2: one SVD of T for U
    # and the check of T itself, then the oracle factors T^2 and stops,
    # whatever max_n is.
    t = random_mixed_rank(np.random.default_rng(5), 5)
    report = centered_order(t, 6)
    assert report.verified_order == 1 and report.oracle_agrees
    assert _totals(lapack_calls)["svd"] == 2
    assert lapack_calls.matrices["svd"] == 2


def test_run_suite_all_factorization_counts(lapack_calls):
    # Every random suite factors each shape group in a few stacked calls;
    # the matrices factored are those of the per-trial evaluation.
    run_suite("all", 0, 6, 100)
    assert _totals(lapack_calls) == Counter(svd=121, eigh=41, eigvalsh=5)
    assert lapack_calls.matrices == Counter(svd=3616, eigh=1087, eigvalsh=50)


def test_polar_contract_calls_scale_with_shape_groups_not_trials(lapack_calls):
    # Dims 2-6, square and (d, d - 1) draws: nine shape groups, each one SVD
    # of T and one eigh of |T| for its spectrum and its range projection.
    counts = []
    for trials in (100, 400):
        lapack_calls.clear()
        run_suite("polar-contract", 0, 6, trials)
        counts.append((_totals(lapack_calls), lapack_calls.matrices["svd"]))
    assert counts == [
        (Counter(svd=9, eigh=9), 100),
        (Counter(svd=9, eigh=9), 400),
    ]


def test_mp_inverse_calls_scale_with_shape_groups_not_trials(lapack_calls):
    # Dims 2-6 and the 15x15 and 18x18 shift fixtures: seven shape groups,
    # each one SVD of T and T*, one of pinv, pinv*, |T| and |T*|, one eigh
    # of the modulus in pinv's polar check, and,
    # where an operator is 2-centered or more, one of the powers T^k,
    # k >= 2, for their inverses. The orders of T and pinv come from their
    # commutators alone, which factor nothing.
    counts = []
    for trials in (100, 400):
        lapack_calls.clear()
        run_suite("mp-inverse", 0, 6, trials)
        counts.append((_totals(lapack_calls), Counter(lapack_calls.matrices)))
    assert counts == [
        (Counter(svd=20, eigh=7), Counter(svd=715, eigh=112)),
        (Counter(svd=20, eigh=7), Counter(svd=2515, eigh=412)),
    ]


@pytest.fixture
def draw_log(monkeypatch) -> Counter:
    """Count numpy's QR calls, the matrices they factor, and the calls of
    ``core._checked`` from any module, for the rest of the test."""
    log: Counter = Counter()
    qr = np.linalg.qr
    checked = core._checked

    def counted_qr(a, *args, **kwargs):
        log["qr"] += 1
        log["qr_matrices"] += int(np.prod(np.shape(a)[:-2], dtype=int))
        return qr(a, *args, **kwargs)

    def counted_checked(*args, **kwargs):
        log["checked"] += 1
        return checked(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    for module in (core, decomp, classify, suites, matrixio):
        if hasattr(module, "_checked"):
            monkeypatch.setattr(module, "_checked", counted_checked)
    return log


def test_mp_inverse_draws_in_one_qr_per_dim_and_checks_no_operand(draw_log):
    # Dims 2-6: the 20 draws take two unitaries each, from one stacked QR
    # per dim (5 calls for 40 matrices; 40 calls before); the structured
    # fixtures make 4 QR calls for 6 matrices, one for both bases of their
    # rank-deficient draw and one for both unitaries of their binormal
    # draw (6 calls before). Below run_suite every evaluation calls kernels
    # on the stacks it builds, so no operand goes through core._checked
    # (98 calls before).
    run_suite("mp-inverse", 0, 6, 20)
    assert draw_log == Counter(qr=9, qr_matrices=46)


@pytest.mark.parametrize(
    "suite, counts",
    [
        # 10 commuting pairs, one eigenbasis each, in one stacked QR per
        # dim, and 10 other pairs, two each, with no redraw at this seed: one
        # QR per pair, since a pair is tested as it is drawn (10 calls for
        # 30 matrices before, when the other pairs were stacked; 30 calls
        # before that). The redraw test takes core._norms, not the public
        # norms, so no operand is checked (20 calls before).
        ("psd-pairs", Counter(qr=15, qr_matrices=30)),
        # 6 of the 20 draws are rank-deficient, two bases each, in one QR
        # per dim (12 calls before); the structured fixtures make 7 QR
        # calls. Its 7 shape groups go to centered_order.kernel, so no
        # operand is checked (7 calls before).
        ("centered-oracle", Counter(qr=8, qr_matrices=13)),
        # Every suite (95 calls before, 57 before aluthge-binormal drew
        # stacked): the matrices are those of the draws one at a time. No
        # suite checks an operand (34 calls before: the 7 of
        # centered-oracle, 7 of shift-family and 20 of the public
        # commutator_norm in random_nonbinormal). psd-pairs' other pairs
        # take one QR each (46 calls before).
        ("all", Counter(qr=51, qr_matrices=130)),
        # The other suites, each with no core._checked call below run_suite
        # (mp-inverse is pinned above). The rank-deficient draws of
        # polar-contract and polar-transfer take both bases in one QR.
        ("polar-contract", Counter(qr=3, qr_matrices=6)),
        ("product-polar", Counter(qr=3, qr_matrices=5)),
        ("polar-transfer", Counter(qr=2, qr_matrices=4)),
        # The unitaries of the 10 binormal draws, one or two each, in one
        # QR per dim (18 calls before, one per unitary); random_nonbinormal
        # takes its norms from one core._norms pass (20 checks before).
        ("aluthge-binormal", Counter(qr=5, qr_matrices=18)),
        # The shifts draw nothing and go to centered_order.kernel (7 checks
        # before); v-entries forms the powers of V alone.
        ("shift-family", Counter()),
        ("v-entries", Counter()),
    ],
)
def test_suite_draws_in_one_qr_per_shape(draw_log, suite, counts):
    run_suite(suite, 0, 6, 20)
    assert draw_log == counts


@pytest.mark.parametrize(
    "suite, counts",
    [
        # Each case pins the calls, then the matrices they factored.
        # 112 operators in seven shape groups. Per group: one SVD for U,
        # which also gives the oracle's check of T, then one stacked SVD of
        # the powers k >= 2 that each report's oracle checks (T^2 for a
        # 1-centered draw), 14 calls (18 before, one per number of powers
        # checked). Every report agrees, so no operator needs the full walk.
        ("centered-oracle", (Counter(svd=14), Counter(svd=259))),
        # 100 operators in five shape groups. Per group: one SVD of T and
        # T*, which also gives the two-power oracle its check of T, one of
        # T^2 for that oracle, one of the transforms T_ab and their
        # adjoints at all three exponent pairs; one eigh of |T| and |T*|,
        # one eigh of the transforms' moduli for the polar check. Per
        # operator that is T, T*, T^2, then two SVDs and one eigh per pair,
        # and one eigh each of |T| and |T*|.
        (
            "aluthge-binormal",
            (Counter(svd=15, eigh=10), Counter(svd=900, eigh=500)),
        ),
        # 112 operators in seven shape groups: T, pinv, T*, pinv*, |T| and
        # |T*| (for their inverses) once each, the modulus in pinv's polar
        # check by eigh, and the powers T^k, k >= 2, up to each order, for
        # their inverses; per group a few stacked calls (see the test above).
        (
            "mp-inverse",
            (Counter(svd=20, eigh=7), Counter(svd=715, eigh=112)),
        ),
        # 50 commuting and 50 other pairs, each half in five shape groups.
        # Per commuting group: one SVD for the range projections of A, B and
        # A^(1/2), one for |A B|, one eigh of A for all four powers and one
        # eigvalsh of the Hermitian products A B. Per other group: one SVD
        # for the range projections of A, B, T and T T*, one for |A B|; no
        # product is Hermitian, so none is factored.
        (
            "psd-pairs",
            (
                Counter(svd=20, eigh=5, eigvalsh=5),
                Counter(svd=450, eigh=50, eigvalsh=50),
            ),
        ),
    ],
)
def test_suite_factorization_counts(lapack_calls, suite, counts):
    run_suite(suite, 0, 6, 100)
    assert (_totals(lapack_calls), lapack_calls.matrices) == counts


def test_counterexample_n60_factors_blocks_not_the_dense_operator(
    lapack_calls, tmp_path, capsys
):
    # One batched SVD of the 4 distinct blocks for U and |T|, one for the
    # powers T^k, k = 1..61, in the definitional check (the 241 distinct
    # windows of the 1,952 blocks of those powers, in one group), and the
    # predicted-structure check on the 62 blocks (one eigh of the predicted
    # moduli for their eigenvalues and range projections); nothing dense is
    # factored.
    code = main(["counterexample", "--n", "60", "--out", str(tmp_path / "s.json")])
    assert code == 0 and "verdict: pass" in capsys.readouterr().out
    assert lapack_calls.calls == Counter({("svd", 3): 2, ("eigh", 3): 1})
    assert lapack_calls.matrices == Counter(svd=4 + 241, eigh=62)


def test_counterexample_checks_each_input_once(draw_log, tmp_path, capsys):
    # write_matrix checks the shift it writes, and nothing checks it again:
    # the command cuts its blocks once, by the kernel of
    # subdiagonal_blocks, and hands them to the kernels of
    # certify_blockwise and verify_predicted_structure, whose public entries
    # would each check the shift (as_operator) once more. Nothing checks the
    # stack of blocks, the polar parts of the distinct blocks or the
    # operands of verify_polar again.
    code = main(["counterexample", "--n", "12", "--out", str(tmp_path / "s.json")])
    assert code == 0 and "verdict: pass" in capsys.readouterr().out
    assert draw_log["checked"] == 1
    draw_log.clear()
    assert certify_blockwise(_shift(12), 14).verified_order == 12
    assert draw_log["checked"] == 1


def test_certify_blockwise_oracle_factors_linearly_many_matrices(lapack_calls):
    # The shift of order n on n + 3 blocks has 4 distinct blocks, and each
    # power T^k the oracle checks, k = 1..n+1, at most 4 distinct windows:
    # 4n + 1 matrices in all, where the (n + 1)(n + 4) / 2 blocks of those
    # powers (1,952 at n = 60) grow quadratically.
    oracle = []
    for n in (20, 40, 60):
        spec = ShiftSpec.from_recipe(n)
        lapack_calls.clear()
        assert certify_blockwise(build_truncated(spec), spec.blocks - 1).oracle_agrees
        # The first SVD factors the 4 distinct blocks for U and |T|.
        oracle.append(lapack_calls.matrices["svd"] - 4)
    assert oracle == [81, 161, 241]


def test_certify_blockwise_at_n1000_groups_powers_by_their_windows(lapack_calls):
    # A group of powers counts the entries of its distinct windows, at most
    # 4 per power here, not its block positions: the 1,001 powers the
    # oracle checks take 9 groups, one stacked SVD each, after the SVD of
    # the 4 distinct blocks.
    spec = ShiftSpec.from_recipe(1000)
    assert certify_blockwise(build_truncated(spec), spec.blocks - 1).oracle_agrees
    assert lapack_calls.calls == Counter({("svd", 3): 10})
    assert lapack_calls.matrices == Counter(svd=4 + 4001)


@pytest.mark.parametrize("n", [20, 1000])
def test_certify_blockwise_numbers_windows_without_unique(monkeypatch, n):
    # The blocks are labelled by one numpy.unique over their bytes; the
    # windows of every power come from the runs of those labels, one group
    # of powers at a time, with no unique of their own.
    spec = ShiftSpec.from_recipe(n)
    t = build_truncated(spec)
    unique = np.unique
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    assert certify_blockwise(t, spec.blocks - 1).verified_order == n
    assert calls == [(spec.blocks - 1,)]


def _dense_file_argv(tmp_path, command: str, shape: tuple[int, int]) -> list[str]:
    """The command line of ``command`` on a seeded Gaussian file of
    ``shape``, written before the caller starts logging."""
    path = tmp_path / "t.json"
    write_matrix(path, random_operator(np.random.default_rng(4), *shape))
    argv = [command, str(path)]
    if command != "classify":
        argv += ["--out", str(tmp_path / "out")]
    return argv


@pytest.mark.parametrize(
    "command, shape, svds",
    [
        # T once for U, |T| and the margin; verify_polar factors only P,
        # by one eigh.
        ("polar", (6, 6), 1),
        ("polar", (7, 4), 1),
        # T once for the inverse, the margin, U* and the modulus of pinv,
        # whose SVD is read off that of T; verify_polar factors only
        # |pinv|, by one eigh.
        ("mp", (6, 6), 1),
        # T once; the inverse polar checks need a square T.
        ("mp", (7, 4), 1),
        # A generic draw is 1-centered: T once for U, the margin and the
        # oracle's check of T, then the oracle factors T^2 on its own.
        ("classify", (6, 6), 2),
    ],
)
def test_dense_file_commands_factor_t_once(
    lapack_calls, tmp_path, capsys, command, shape, svds
):
    argv = _dense_file_argv(tmp_path, command, shape)
    lapack_calls.clear()
    assert main(argv) == 0, capsys.readouterr().out
    assert _totals(lapack_calls)["svd"] == svds
    # Every input is one matrix.
    assert lapack_calls.matrices["svd"] == svds


@pytest.mark.parametrize(
    "command, counts",
    [
        # T^2 and T are walked in groups of their own at this size.
        ("classify", Counter(svd=2)),
        ("polar", Counter(svd=1, eigh=1)),
        ("mp", Counter(svd=1, eigh=1)),
    ],
)
def test_dense_file_commands_factor_no_matrix_twice(
    monkeypatch, tmp_path, capsys, command, counts
):
    argv = _dense_file_argv(tmp_path, command, (80, 80))
    factored: list[tuple[str, bytes]] = []
    for name in ("svd", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, _name=name, **kwargs):
            matrices = np.reshape(a, (-1, *np.shape(a)[-2:]))
            factored.extend((_name, np.ascontiguousarray(m).tobytes()) for m in matrices)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    assert main(argv) == 0, capsys.readouterr().out
    assert Counter(name for name, _ in factored) == counts
    assert len({data for _, data in factored}) == len(factored)


@pytest.mark.parametrize("max_n", [1, 2, 3, 6, 9])
def test_oracle_agrees_matches_the_two_call_definition(max_n):
    flags = []
    for t in _operators():
        report = centered_order(t, max_n)
        expected = _two_call_oracle_agrees(t, report.verified_order, max_n)
        assert report.oracle_agrees == expected
        flags.append(expected)
    if max_n >= 3:
        # The tiny-norm copies make the inputs cover both outcomes.
        assert set(flags) == {True, False}


def test_single_svd_residuals_match_the_two_svd_loop():
    tol = DEFAULT_TOLERANCES.equality_rel_tol
    for t in _operators():
        check = is_n_centered_definitional(t, 6)
        equation, ranges = _two_svd_residuals(t, 6)
        assert list(check.equation_residuals) == equation
        np.testing.assert_allclose(check.range_residuals, ranges, rtol=0, atol=1e-12)
        assert check.ok == all(r <= tol for r in equation + ranges)
