"""Classification of dense complex matrices through their polar factors.

Implements the commutator criterion for n-centered operators next to the
definitional check, the three-way equivalence for polar decompositions of
products, the transfer construction that moves a polar factor between
``T S`` and ``|T| |S*|``, Aluthge-type transforms with their binormality
equivalences, and the interplay between centered order and the
Moore-Penrose inverse.

Conventions: ``U`` always denotes the canonical polar factor of the operator
at hand (the partial isometry vanishing on the null space), and every
"commutes" decision uses the scaled threshold from
:class:`polarops.core.ToleranceConfig`.

Stack rule: every public function but ``is_n_centered_definitional`` and
``blockwise_centered_order`` takes a matrix, or a 4-D stack of operators
``(operators, 1, d, d)`` (a pair of such stacks for ``product_polar`` and
``polar_transfer``), validates it once, and gives each operator of a stack
bitwise the result it gets alone: a list of reports, or for
``is_binormal`` of (verdict, norm) pairs, and for ``aluthge`` parts
holding stacks; ``blockwise_centered_order`` takes the 3-D stack of blocks
of one operator on its first block subdiagonal. Below them, everything
runs on stacks of operators (``core._stacked``). Each function declares
its entry with ``core._boundary`` and is its kernel under it; the
functions here call the kernels of the others (``polar_decompose.kernel``,
``verify_polar.kernel``, ...), never the others, so each operand is
checked once per public call. The suites evaluate each group of draws of
one shape with one call per factorization this way, calling the kernels
themselves.

Sharing rule: one function, ``_oracle_residuals``, factors the powers
``T^k`` for the definitional check, and shares only ``U`` and the walk of
its powers ``U^k`` with the commutator criterion. ``centered_order``,
``is_n_centered_definitional`` and ``binormal_equivalents`` all reach it.
``T`` itself is factored once: where ``centered_order`` and
``is_n_centered_definitional`` take an SVD of ``T`` for ``U``, and
``binormal_equivalents`` one of ``T`` and ``T*``, the oracle's ``k = 1``
residuals come from that SVD, and it factors only ``T^k``, ``k >= 2``.
Everything else in one evaluation is factored once: ``mp_centered_check``
takes the polar parts and the inverse a caller already holds, and factors
``T`` only for what it does not. The rule holds on every centered-order
route: one walk, ``_centered_walk``, serves ``centered_order`` on a matrix
or a stack of operators (one report per operator) and
``blockwise_centered_order`` on the stack of blocks of an operator on its
first block subdiagonal (for :func:`polarops.shifts.certify_blockwise`),
which labels its equal blocks (``_block_labels``) and takes the polar
parts of its distinct blocks, so that each power is formed, factored and
checked once per distinct window of consecutive blocks (``Windows``,
which numbers the windows from the runs of equal labels, one group of
powers at a time). It walks the powers once,
forward, for all operators, up to ``U^max_n``, in groups of consecutive
powers that fit a fixed number of entries per operator: of its matrices,
or of a block stack's distinct windows (``_power_groups``). Each group is
one stacked commutator expression, with one threshold per (operator,
power), and one pass of the oracles: one stacked SVD of the powers that
each operator's oracle checks, however many that is for each, with its own
rank cutoffs, so a shift's block stacks and a group of small matrices take
a few LAPACK calls for all their powers, while a matrix above 64x64 still
walks one power at a time.
A norm of a matrix power is bitwise ``numpy.linalg.norm``; a norm of a
block stack's power adds one sum of squares per block position, taken once
per window (``_power_norms``).
Each report is bitwise the report of its operator alone, whatever the
grouping or the windows. ``mp_centered_check`` finds the orders of ``T``
and of its inverse from the criterion alone, without the oracle, in one
walk of the powers of both polar factors for all operators of a stack (one
stacked commutator expression), takes the ``U^k`` of its modulus
commutators from that walk, tests those commutators in one stacked
expression per side over all powers, and inverts the powers ``T^k``,
k >= 2, in one stacked SVD.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import accumulate, islice, takewhile

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    SvdResult,
    ToleranceConfig,
    _adjoint,
    _boundary,
    _commutator_test,
    _floor_one,
    _isometry,
    _joint_norms,
    _modulus,
    _norms,
    _psd_powers,
    _residual,
    _svd,
    _threshold,
    rank_margin,
)
from .decomp import (
    PolarCheck,
    PolarParts,
    moore_penrose,
    polar_decompose,
    verify_polar,
)
from .windows import Layout, Windows

__all__ = [
    "CenteredReport",
    "DefinitionalCheck",
    "ProductPolarReport",
    "TransferReport",
    "AluthgeParts",
    "AluthgePairCheck",
    "BinormalEquivalents",
    "MpCenteredReport",
    "is_binormal",
    "centered_order",
    "blockwise_centered_order",
    "is_n_centered_definitional",
    "product_polar",
    "polar_transfer",
    "aluthge",
    "binormal_equivalents",
    "mp_centered_check",
]


@dataclass(frozen=True)
class CenteredReport:
    """Result of the commutator-criterion route for the centered order.

    ``commutator_norms[k-1]`` holds ``fro([U^k |T| (U^k)*, |T|])`` for
    k = 1..max_order_checked-1 and ``commutator_thresholds[k-1]`` the
    :func:`polarops.core.commutator_threshold` it is compared with.
    ``verified_order`` is 1 plus the length of the initial run of
    :meth:`commute_decisions` that hold, capped at ``max_order_checked``; a
    later vanishing commutator after a non-vanishing one cannot raise the
    order. ``rank_margin`` is the margin of the rank decision behind ``U``.
    ``binormal`` is the k = 1 decision, made even when ``max_order_checked``
    is 1 and no commutator is listed. ``oracle_agrees`` records, from one
    pass over the powers, that the definitional check holds at
    ``verified_order`` and, when there is room, fails at
    ``verified_order + 1``.
    """

    dimension: int
    max_order_checked: int
    verified_order: int
    commutator_norms: tuple[float, ...]
    commutator_thresholds: tuple[float, ...]
    rank_margin: float
    binormal: bool
    oracle_agrees: bool

    def commute_decisions(self) -> tuple[bool, ...]:
        """Whether ``[U^k |T| (U^k)*, |T|]`` vanishes, for each checked k."""
        pairs = zip(self.commutator_norms, self.commutator_thresholds, strict=True)
        return tuple(norm <= threshold for norm, threshold in pairs)


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

    def passing_powers(self, cfg: ToleranceConfig) -> int:
        """The number of leading powers that pass (``_passing_powers``)."""
        return int(_passing_powers(self.equation_residuals, self.range_residuals, cfg))


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
class MpCenteredReport:
    """Centered-order interplay with the Moore-Penrose inverse.

    ``order`` is the operator's criterion order, capped at the ``max_n`` of
    the check. ``power_inverse_residuals[k-1]`` is the scaled defect of
    ``pinv(T^k) = pinv(T)^k``. ``inverse_verified_order`` is the inverse's
    criterion order, also up to ``max_n``, and must reach ``order``.
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


@_boundary((2, 4), square=True)
def is_binormal(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Whether ``[T* T, T T*]`` vanishes, plus the raw commutator norm; for
    a stack of operators, a list of one such pair per operator."""
    norm, commute = _commutator_test(_adjoint(t) @ t, t @ _adjoint(t), cfg)
    return list(zip(commute.tolist(), norm.tolist()))


# A power of the rescaled walk (see _powers) whose largest entry exceeds this
# is scaled down to about its square root, 2**33: its sums of squares stay
# far from overflow, and its norms far above the max(1, .) floor of
# core._residual.
_POWER_LIMIT = 2.0**64


def _powers(a: np.ndarray, windows: Windows | None = None, rescale: bool = False):
    """Yield ``a, a^2, ...``, each power the previous one times ``a``.
    Without ``windows``, ``a`` is a matrix, or a stack of matrices each
    walked on its own, and each step is ``power @ a``. With ``windows``,
    ``a`` holds the blocks of an operator on its first block subdiagonal
    on its third axis from the end, ``a[j]`` mapping block position j to
    j + 1: the k-th power holds the blocks of ``T^k`` on its k-th block
    subdiagonal, ``a[j+k-1] @ ... @ a[j]`` at position j, one block shorter
    each time, and the walk ends when no block is left. It is held as one
    block per distinct window of ``windows``, ``T^k`` at position j being
    the block of window ``index[j]`` of the layout of power k (``Layout``),
    and each step is the window of power k at the next position times the
    first block, ``T^k[j+1] @ a[j]``, once per window.

    With ``rescale``, a power whose largest entry exceeds ``_POWER_LIMIT``
    is multiplied by the exact power of two that brings that entry to about
    2**33, and the walk goes on from the scaled power. Each power is then
    ``a^k`` times a positive factor: enough for a check that is homogeneous
    in the power, and its squared norms never overflow."""
    power = a if windows is None else a.take(windows.step(1)[1], axis=-3)
    k = 1
    while power.size:
        if rescale:
            top = np.abs(power).max()
            if top > _POWER_LIMIT:
                power = power * 2.0 ** (33 - math.frexp(top)[1])
        yield power
        k += 1
        if windows is None:
            power = power @ a
        else:
            after, heads = windows.step(k)
            power = power.take(after, axis=-3) @ a.take(heads, axis=-3)


# Complex entries that one group of powers of U may hold per operator in
# centered_order: a matrix above 64x64 walks one power at a time, while a
# block stack or a small matrix walks many powers per stacked expression and
# SVD. A group keeps about ten arrays of its size alive at once, 0.6 MB per
# operator at this budget; twice the budget doubles that and saves no
# measurable time on the shifts. The powers of a block stack count their
# distinct windows only (see _power_groups); at their block positions they
# hold one sum of squares each, and the group's layout (Windows) a few
# indices each, built for the group at once: about 113 powers of a shift per
# group, so under 1 MB per array at n = 1000.
_GROUP_ENTRIES = 2**12


def _power_groups(a: np.ndarray, windows: Windows | None, last: int):
    """The powers ``a, a^2, ..., a^last`` of ``_powers`` of a stack of
    operators ``(operators, blocks, m, m)``, in lists of consecutive powers
    holding at most ``_GROUP_ENTRIES`` complex entries per operator, and at
    least one power each, each list with its layout (None for matrices). A
    power of a block stack counts the entries of its distinct windows, which
    the group forms, factors and checks, and not its block positions, where
    only one sum of squares per position is placed (see ``_power_norms``):
    ``windows`` cuts its groups so (see ``Windows``), and a shift's few
    windows per power put dozens of powers in one group at any order."""
    powers = _powers(a, windows)
    step = max(1, _GROUP_ENTRIES // a[0, 0].size // a.shape[1])
    first = 1
    while first <= last:
        layout = None if windows is None else windows.layout(first)
        count = min(step if layout is None else len(layout.lengths), last - first + 1)
        yield list(islice(powers, count)), layout
        first += count


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """The stacks of operators ``parts`` as one, the blocks of each operator
    one part after another along axis 1; a single part is not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _spans(powers: list[np.ndarray], layout: Layout | None):
    """The block positions of each of the consecutive powers ``powers``, and
    the layout (see ``Layout``) of as many powers from the start of the
    group of ``layout``, for their windows joined by ``_join``. Powers of
    matrices, one block per operator, have no layout, and None for it."""
    if layout is None:
        return [power.shape[1] for power in powers], None
    if len(powers) < len(layout.lengths):
        layout = layout.cut(0, len(powers))
    return layout.lengths, layout


def _power_norms(lengths: list[int], *spans: tuple[np.ndarray, np.ndarray | None]):
    """The norm of the span of each power in each ``x`` of the pairs
    ``(x, index)`` of ``spans``, one array ``(operators, powers)`` per pair:
    ``x`` is a stack of operators whose axis 1 holds consecutive powers of
    ``lengths`` blocks each.

    Powers of matrices (every ``index`` None) take the norms of all pairs
    from one ``core._joint_norms`` of stacks with one operator per
    (operator, power) pair, each norm bitwise ``numpy.linalg.norm`` of its
    power alone. The powers of a block stack hold one block per window (or
    per (window, image) pair), and ``index`` names the block at each of
    their block positions: each block's entries give one sum of squares,
    placed at every position of the block, and each power adds up the sums
    of its positions in position order (``numpy.add.reduceat``), so each
    norm is bitwise that of its span alone, whatever the powers around it.
    This sums the squares of ``fro_norm`` in another order, which moves a
    norm by at most ``γ_k`` relative for ``k`` squares (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3), and gathers no block to
    its positions."""
    if all(index is None for _, index in spans):
        shape = (len(lengths), lengths[0])
        return _joint_norms(*(x.reshape(len(x), *shape, *x.shape[-2:]) for x, _ in spans))
    starts = list(accumulate(lengths[:-1], initial=0))
    norms = []
    for x, index in spans:
        rows = x.reshape(*x.shape[:2], -1)
        squares = (np.square(rows.real) + np.square(rows.imag)).sum(axis=-1)
        norms.append(np.sqrt(np.add.reduceat(squares[:, index], starts, axis=1)))
    return norms


def _power_residuals(
    a: np.ndarray, b: np.ndarray, lengths: list[int], index: np.ndarray | None
) -> np.ndarray:
    """``core._residual`` of the span of each power in ``a`` and ``b``, its
    norms taken as ``_power_norms`` takes them on the blocks at ``index``;
    ``a - b`` is formed once for all spans, on the windows."""
    difference, *norms = _power_norms(lengths, *((x, index) for x in (a - b, a, b)))
    return difference / _floor_one(*norms)


def _commutators(
    u_pows: list[np.ndarray],
    p: np.ndarray,
    cfg: ToleranceConfig,
    layout: Layout | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Norms of ``[U^k |T| (U^k)*, |T|]`` and their thresholds, each an
    array ``(operators, powers)``, for the consecutive powers ``u_pows`` of
    ``U`` (see ``_powers``), each a stack of operators ``(operators, blocks,
    m, m)``, with ``p`` holding ``|T|`` of each operator on every block
    position, the trailing zero block of a shift included. A power of a
    block stack holds its distinct windows, placed by its layout in
    ``layout`` (see ``_spans``); its blocks map each position j to j + k, so
    the commutator is block diagonal, with ``|T|`` at j as the source and
    at j + k as the image. The conjugated blocks are formed once per
    window, and the commutators once per (window, image) pair. All powers
    share one stacked expression and one norm of ``p``; each norm and
    threshold is taken on its (operator, power) span by ``_power_norms``,
    from the sums of squares of the windows and pairs placed at the block
    positions, which keeps it bitwise equal to that of the power of that
    operator alone."""
    lengths, layout = _spans(u_pows, layout)
    u = _join(u_pows)
    if layout is None:
        # Each power of a direct sum maps each block position to itself,
        # with the block of |T| there as source and image.
        index = pairs = None
        u, images = u.reshape(len(u), len(lengths), *p.shape[1:]), p[:, None]
        paired = conjugated = u @ images @ _adjoint(u)
    else:
        index, pairs = layout.index, layout.pairs
        conjugated = u @ p[:, layout.sources] @ _adjoint(u)
        paired, images = conjugated[:, layout.prefix], p[:, layout.images]
    commutator = paired @ images - images @ paired
    norms, conjugated_norms = _power_norms(lengths, (commutator, pairs), (conjugated, index))
    return norms, _threshold(conjugated_norms, _norms(p)[:, None], cfg)


def _oracle_residuals(
    t_pows: list[np.ndarray],
    u_pows: list[np.ndarray],
    cfg: ToleranceConfig,
    layout: Layout | None = None,
    held: SvdResult | None = None,
    checked: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The definitional check: for each of the consecutive powers ``t_pows``
    of ``T``, stacks of operators ``(operators, blocks, m, m)``, with
    ``u_pows`` those of ``U``, the residuals of ``T^k = U^k |T^k|`` and of
    ``(U^k)* U^k`` against the range projection of ``(T^k)*``, as two arrays
    ``(operators, powers)``. Both vanish exactly when ``U^k |T^k|`` is the
    polar decomposition of ``T^k``. The powers of a block stack hold their
    distinct windows, placed by ``layout`` (see ``_commutators``).

    One stacked SVD of every matrix (or window) of every power gives each
    power of each operator its own polar decomposition ``U_k |T^k|``, with
    its own rank cutoff, ``rank_rel_tol`` times the largest singular value
    of its direct sum; ``U_k* U_k`` is the range projection. Each operator's
    ``U_k`` are formed from columns sliced to its largest rank over
    ``t_pows``, as for that operator alone. Each residual is
    ``core._residual`` of its (operator, power) span, its norms taken by
    ``_power_norms``.

    ``held`` is the SVD of ``t_pows[0]``, when it is ``T`` itself and the
    caller has factored it for ``U``: then only the powers after it are
    factored, and the residuals are bitwise those of one SVD of all. With
    ``checked``, operator i checks only its first ``checked[i]`` powers:
    only those are factored (``_oracle_svd``), so its ``U_k`` take the
    width of its largest rank over them, and its residuals past them are
    formed but mean nothing."""
    lengths, layout = _spans(t_pows, layout)
    index = None if layout is None else layout.index
    counts = [t_pow.shape[1] for t_pow in t_pows]
    t, u = _join(t_pows), _join(u_pows)
    decomp = _oracle_svd(t, counts, held, checked)
    s = decomp.singular_values
    starts = list(accumulate(counts[:-1], initial=0))
    top = np.repeat(np.maximum.reduceat(s[..., 0], starts, axis=-1), counts, axis=-1)
    u_k = _isometry(decomp, np.count_nonzero(s > cfg.rank_rel_tol * top[..., None], -1))
    equation = u @ _modulus(decomp)
    gram, projection = _adjoint(u) @ u, _adjoint(u_k) @ u_k
    return (
        _power_residuals(t, equation, lengths, index),
        _power_residuals(gram, projection, lengths, index),
    )


def _oracle_svd(
    t: np.ndarray, counts: list[int], held: SvdResult | None, checked: np.ndarray | None
) -> SvdResult:
    """The SVD of each matrix of ``t``, consecutive powers joined along axis
    1, ``counts[j]`` matrices for power j, where operator i checks its first
    ``checked[i]`` powers (all, for None); ``held`` is the SVD of the first
    power, when the caller holds it. One stacked SVD factors the checked
    matrices that are not held; every matrix of an unchecked power gets
    zero factors and no nonzero singular value, so its rank is zero at any
    cutoff and its ``U_k`` is zero. Each array is laid out
    as ``core._svd`` lays out its own (the right vectors as the adjoint of
    a C-ordered array), so that the products formed from it are bitwise
    those of one SVD of all."""
    factored = np.ones(t.shape[:2], dtype=bool)
    if checked is not None:
        factored = np.repeat(np.arange(len(counts)) < checked[:, None], counts, axis=1)
    if held is None and factored.all():
        return _svd(t)
    left, s, right_h = np.zeros(t.shape, complex), np.zeros(t.shape[:-1]), np.zeros(t.shape, complex)
    parts = []
    if held is not None:
        factored[:, : counts[0]] = False
        parts.append((held, np.s_[:, : counts[0]]))
    if factored.any():
        parts.append((_svd(t[factored]), factored))
    for decomp, place in parts:
        left[place], s[place] = decomp.left_vectors, decomp.singular_values
        right_h[place] = _adjoint(decomp.right_vectors)
    return SvdResult(left, s, _adjoint(right_h))


def _oracle_run(
    t_pows: list[np.ndarray],
    u_pows: list[np.ndarray],
    cfg: ToleranceConfig,
    layout: Layout | None = None,
    held: SvdResult | None = None,
    checked: np.ndarray | None = None,
) -> np.ndarray:
    """For each operator i of the stacks of ``_oracle_residuals``, the
    number of leading powers among its first ``checked[i]`` in ``t_pows``
    (all, for None) that pass the definitional check, with the SVD ``held``
    of ``T`` (see ``_oracle_residuals``): one pass for all operators.

    An SVD that fails for one matrix fails for its whole stack. The
    operators are then checked one at a time, each on its own checked
    powers, and the powers of one operator one at a time, up to its first
    failing power, so that a power past it (say, one whose entries
    overflowed) is never factored. A single power that cannot be factored
    raises."""
    try:
        equation, ranges = _oracle_residuals(t_pows, u_pows, cfg, layout, held, checked)
    except np.linalg.LinAlgError:
        if len(t_pows[0]) > 1:
            counts = [len(t_pows)] * len(t_pows[0]) if checked is None else checked.tolist()
            return np.concatenate(
                [
                    _oracle_run(
                        [x[[i]] for x in t_pows[:c]],
                        [x[[i]] for x in u_pows[:c]],
                        cfg,
                        layout,
                        None if held is None else held[[i]],
                    )
                    for i, c in enumerate(counts)
                ]
            )
        if len(t_pows) == 1:
            raise
        passes = (
            _oracle_run(
                [t_pows[k]],
                [u_pows[k]],
                cfg,
                None if layout is None else layout.cut(k, k + 1),
                None if k else held,
            )[0]
            for k in range(len(t_pows))
        )
        return np.array([len(list(takewhile(bool, passes)))])
    runs = _passing_powers(equation, ranges, cfg)
    return runs if checked is None else np.minimum(runs, checked)


def _passing_powers(equation, ranges, cfg: ToleranceConfig) -> np.ndarray:
    """The number of leading powers that pass the definitional check, for
    each row of the residuals of ``_oracle_residuals`` (or for one row of
    them): power k passes when ``max(equation, range) <= equality_rel_tol``,
    so a NaN residual fails it."""
    holds = np.maximum(equation, ranges) <= cfg.equality_rel_tol
    return np.logical_and.accumulate(holds, axis=-1).sum(axis=-1)


@_boundary((2, 4), square=True)
def centered_order(t, max_n: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Largest verified centered order via the commutator criterion.

    The operator is (k+1)-centered exactly when ``[U^j |T| (U^j)*, |T|]``
    vanishes for j = 1..k, so the verified order is one plus the initial run
    of vanishing commutators. Norms and thresholds keep being reported past
    the first failure for diagnostics. ``binormal`` is the k = 1 decision
    (``[U |T| U*, |T|] = 0`` exactly when ``[T* T, T T*] = 0``), so it is
    decided for max_n = 1 too, whose report lists no commutator.
    ``oracle_agrees`` comes from one pass of the definitional route with the
    same ``U``, which checks ``T^k`` for k = 1..min(verified + 1, max_n) and
    stops at the first failing power. The SVD of ``T`` taken here for ``U``
    also gives the k = 1 residuals, so the oracle factors only the powers
    k >= 2.

    ``t`` is a matrix, or a stack of operators ``(operators, blocks, d,
    d)``, each the direct sum of its blocks (a list of reports, one per
    operator). The walk of the powers is ``_centered_walk``, which
    :func:`blockwise_centered_order` shares.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    return _centered_walk(t, max_n, cfg, None)


@_boundary((3,), square=True)
def blockwise_centered_order(
    blocks, max_n: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> CenteredReport:
    """``centered_order`` of the operator on ``len(blocks) + 1`` block
    positions that holds ``blocks`` on its first block subdiagonal,
    ``blocks[j]`` mapping position j to j + 1 (see ``_powers``), for
    1 <= max_n <= len(blocks), in block arithmetic.

    ``T^k`` and ``U^k`` sit on the k-th block subdiagonal; ``|T|``,
    ``U^k |T| (U^k)*`` and the commutators are block diagonal. So the dense
    quantities are exactly their blocks: the same commutators, thresholds,
    definitional oracle and report as the dense route. The polar parts are
    those of the distinct blocks, from one stacked SVD with the rank cutoff
    of their direct sum, placed at every position; ``|T|`` is zero at the
    last position, which no block leaves. The blocks are labelled by their
    exact bytes (``_block_labels``), so that a ``-0.0`` entry differs from
    ``0.0``, and each power is formed, factored and checked once per
    distinct window of consecutive labels (``Windows``): identical blocks
    give identical products. Each norm of a power adds the sums of squares
    of its blocks at every position in position order, each sum taken once
    per window, so the report is bitwise that of the walk of every block
    position that sums its norms so; ``fro_norm`` of the whole span sums
    the same squares in another order, which moves a norm by rounding only
    (``_power_norms``).
    """
    if not 1 <= max_n <= blocks.shape[1]:
        raise ValueError(f"max_n must lie in 1..{blocks.shape[1]}, got {max_n}")
    windows = Windows(_block_labels(blocks[0]), _GROUP_ENTRIES // blocks[0, 0].size)
    heads = windows.step(1)[1]
    distinct = polar_decompose.kernel(blocks[:, heads], cfg)
    padded = np.concatenate([distinct.modulus, np.zeros_like(distinct.modulus[:, :1])], 1)
    parts = replace(distinct[:, windows.labels[:-1]], modulus=padded[:, windows.labels])
    return _centered_walk(blocks, max_n, cfg, parts, windows)


def _block_labels(stack: np.ndarray) -> np.ndarray:
    """Labels of the blocks of a stack, equal exactly for blocks of equal
    bytes (so a ``-0.0`` entry differs from ``0.0``), numbered 0, 1, ... by
    ``np.unique`` over those bytes: in byte order, which no result depends
    on. ``Windows`` numbers the windows from the runs of these labels."""
    rows = np.ascontiguousarray(stack).reshape(len(stack), -1)
    return np.unique(rows.view(np.dtype((np.void, rows[0].nbytes)))[:, 0], return_inverse=True)[1]


def _centered_walk(
    t: np.ndarray, max_n: int, cfg: ToleranceConfig, parts: PolarParts | None, windows=None
) -> list[CenteredReport]:
    """The reports of ``centered_order`` of each operator of a stack of
    operators ``t``, with its polar parts ``parts`` (None: from the SVD of
    ``t`` taken here, which also serves the oracle's check of ``t``); with
    ``windows`` (see ``Windows``), ``t`` holds the blocks of an operator on
    its first block subdiagonal, and ``parts`` those blocks' parts, with the
    modulus padded as ``_commutators`` takes it
    (``blockwise_centered_order``).

    One forward walk forms each ``U^k`` once for all operators, in groups
    of consecutive powers (``_power_groups``), up to ``U^max_n``, the last
    power an oracle may check; a block stack's powers are formed, factored
    and checked once per distinct window of its labels, its groups sized by
    those windows, and each of their norms adds one sum of squares per
    block position (``_power_norms``). Each group gets one stacked commutator expression
    and one call of ``_oracle_run`` for the powers each operator's oracle
    still checks (k up to min(verified + 1, max_n), none after a group that
    holds a failing power): one pass that factors only those powers, each
    operator's own, and cuts each operator's run of passing powers at its
    own count; the oracle agrees when that run ends at the verified order.
    Each report is bitwise the report of its operator alone, and does not
    depend on how the powers are grouped, on the windows, or on how many
    powers the other operators of the stack check.
    """
    held = None
    if parts is None:
        held = _svd(t)
        parts = polar_decompose.kernel(t, cfg, decomp=held)
    u, p = parts.isometry, parts.modulus
    operators = len(p)
    count = max(max_n - 1, 1)
    norm_parts: list[np.ndarray] = []
    threshold_parts: list[np.ndarray] = []
    verified = [1] * operators
    passing = [0] * operators
    checking = [True] * operators
    # The entries of a shift's T^k grow like 2^k, and the oracle's check
    # T^k = U^k |T^k| is homogeneous in T^k.
    t_powers = _powers(t, windows, rescale=windows is not None)
    first = 1
    for group, layout in _power_groups(u, windows, max_n):
        if first <= count:
            listed = group[: count - first + 1]
            norms, thresholds = _commutators(listed, p, cfg, layout)
            norm_parts.append(norms)
            threshold_parts.append(thresholds)
            # Extend the runs still unbroken, by the decisions k < max_n.
            rows = (norms[:, : max_n - first] <= thresholds[:, : max_n - first]).tolist()
            verified = [
                order + len(list(takewhile(bool, row))) if order == first else order
                for order, row in zip(verified, rows)
            ]
        limit = min(len(group), max_n - first + 1)
        # None past an operator's verified order + 1, which may lie behind
        # the group.
        checked = np.array(
            [min(order + 2 - first, limit) if on else 0 for order, on in zip(verified, checking)]
        ).clip(0)
        (members,) = np.nonzero(checked)
        # An operator checks the next group only after passing every power
        # of this one, so the walk of T^k stays in step with the group.
        t_pows = list(islice(t_powers, checked.max()))
        if len(members):
            pick = slice(None) if len(members) == operators else members
            passed = _oracle_run(
                [x[pick] for x in t_pows],
                [x[pick] for x in group[: len(t_pows)]],
                cfg,
                layout,
                None if held is None else held[pick],
                checked[members],
            )
            for i, run, own in zip(members.tolist(), passed.tolist(), checked[members].tolist()):
                passing[i] += run
                checking[i] = run == own
        first += len(group)
        held = None
    norms, thresholds = (
        _join(chunks)[:, : max_n - 1] for chunks in (norm_parts, threshold_parts)
    )
    spectra = np.sort(np.reshape(parts.singular_values, (operators, -1)), axis=1)
    reports = [
        CenteredReport(
            # The rows of |T|, of a block stack as one direct sum.
            dimension=p.shape[1] * p.shape[2],
            max_order_checked=max_n,
            verified_order=order,
            commutator_norms=tuple(own_norms),
            commutator_thresholds=tuple(own_thresholds),
            rank_margin=rank_margin(spectrum[::-1], cfg),
            binormal=binormal,
            oracle_agrees=agrees,
        )
        for order, own_norms, own_thresholds, spectrum, binormal, agrees in zip(
            verified,
            norms.tolist(),
            thresholds.tolist(),
            spectra,
            (norm_parts[0][:, 0] <= threshold_parts[0][:, 0]).tolist(),
            [runs == order for runs, order in zip(passing, verified)],
        )
    ]
    return reports


@_boundary((2,), square=True)
def is_n_centered_definitional(
    t, n: int, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> DefinitionalCheck:
    """Check from the definition that ``T^k = U^k |T^k|`` is the polar
    decomposition for every k = 1..n, with ``U`` the polar factor of ``T``
    itself. One SVD gives ``U`` and serves the check of ``T`` itself; the
    powers ``T^k``, k >= 2, go through ``_oracle_residuals`` in the groups
    of ``_power_groups``, one stacked SVD per group, so a small matrix
    takes two SVDs for any n >= 2, and one for n = 1. Raises if a power
    cannot be factored."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    held = _svd(t)
    u = polar_decompose.kernel(t, cfg, decomp=held).isometry
    t_powers = _powers(t)
    equation: list[float] = []
    ranges: list[float] = []
    for group, _ in _power_groups(u, None, n):
        t_pows = list(islice(t_powers, len(group)))
        more = _oracle_residuals(t_pows, group, cfg, held=held)
        held = None
        equation += more[0][0].tolist()
        ranges += more[1][0].tolist()
    return DefinitionalCheck(
        ok=bool(_passing_powers(equation, ranges, cfg) == n),
        equation_residuals=tuple(equation),
        range_residuals=tuple(ranges),
    )


def _product_parts(t: np.ndarray, s: np.ndarray, cfg: ToleranceConfig):
    """For two stacks of operators of one square matrix each: the polar
    parts of ``T``, ``S`` and ``S*`` (one SVD), and the stack of ``T S`` and
    ``|T| |S*|`` with its polar parts (one SVD), joined and as the pair of
    each half."""
    if t.shape[1] != 1:
        raise ValueError(f"expected operators of one matrix each, got {t.shape}")
    count = len(t)
    factors = polar_decompose.kernel(np.concatenate([t, s, _adjoint(s)]), cfg)
    t_parts, s_parts, s_adj_parts = (factors[i : i + count] for i in (0, count, 2 * count))
    targets = np.concatenate([t @ s, t_parts.modulus @ s_adj_parts.modulus])
    target_parts = polar_decompose.kernel(targets, cfg)
    halves = [(targets[i : i + count], target_parts[i : i + count]) for i in (0, count)]
    return t_parts, s_parts, s_adj_parts, (targets, target_parts), *halves


@_boundary((2, 4), (2, 4), square=True)
def product_polar(t, s, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Evaluate the product ``T S`` against the candidate factor ``U V``.

    Returns the moduli commutator data, the residual of the equation
    ``T S = U V |T S|``, the full polar-contract verdict for ``(U V, |T S|)``,
    and the unconditional transfer factor ``U W V`` built from the polar
    decomposition of ``|T| |S*|``; for two stacks of operators, a list of
    one report per pair. ``T``, ``S`` and ``S*`` share one stacked SVD, and
    so do ``T S`` and ``|T| |S*|``.
    """
    t_parts, s_parts, s_adj_parts, _, (product, product_parts), (_, moduli_parts) = (
        _product_parts(t, s, cfg)
    )
    mod_t, mod_s_adj = t_parts.modulus, s_adj_parts.modulus
    candidate = t_parts.isometry @ s_parts.isometry

    residual = _residual(product, candidate @ product_parts.modulus)
    checks = verify_polar.kernel(product, candidate, product_parts.modulus, cfg)

    transfer = t_parts.isometry @ moduli_parts.isometry @ s_parts.isometry
    norm, commute = _commutator_test(mod_t, mod_s_adj, cfg)
    transfer_residual = _residual(transfer, product_parts.isometry)
    rows = zip(
        norm.tolist(),
        commute.tolist(),
        candidate[:, 0],
        residual.tolist(),
        checks,
        transfer[:, 0],
        transfer_residual.tolist(),
    )
    return [
        ProductPolarReport(a, b, c, res, res <= cfg.equality_rel_tol, check.ok, d, e)
        for a, b, c, res, check, d, e in rows
    ]


@_boundary((2, 4), (2, 4), square=True)
def polar_transfer(t, s, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Move polar factors between ``T S`` and ``|T| |S*|`` in both directions.

    With ``T = U |T|`` and ``S = V |S|``: if ``W1`` is the polar factor of
    ``|T| |S*|`` then ``U W1 V`` is the polar factor of ``T S``; if ``W2`` is
    the polar factor of ``T S`` then ``U* W2 V*`` is the polar factor of
    ``|T| |S*|``. Both candidates are pushed through ``verify_polar``; for
    two stacks of operators, a list of one report per pair. ``T``, ``S``
    and ``S*`` share one stacked SVD, ``T S`` and ``|T| |S*|`` another, and
    both directions one polar check.
    """
    t_parts, s_parts, _, (targets, parts), (_, product_parts), (_, moduli_parts) = (
        _product_parts(t, s, cfg)
    )
    u, v = t_parts.isometry, s_parts.isometry
    candidates = np.concatenate(
        [
            u @ moduli_parts.isometry @ v,
            _adjoint(u) @ product_parts.isometry @ _adjoint(v),
        ]
    )
    checks = verify_polar.kernel(targets, candidates, parts.modulus, cfg)
    return [
        TransferReport(product_check=first, moduli_check=second, ok=first.ok and second.ok)
        for first, second in zip(checks[: len(u)], checks[len(u) :])
    ]


@_boundary((2, 4), square=True)
def aluthge(
    t, alpha: float, beta: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> AluthgeParts:
    """Aluthge-type transform ``|T|^alpha U |T|^beta`` with its candidate
    polar factor ``U* U U``; for a stack of operators, parts holding one
    transform and one factor per operator."""
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"exponents must be positive, got ({alpha}, {beta})")
    parts = polar_decompose.kernel(t, cfg)
    power = _psd_powers(parts.modulus, cfg)
    u = parts.isometry
    p_alpha = power(alpha)
    p_beta = p_alpha if beta == alpha else power(beta)
    return AluthgeParts(
        alpha=float(alpha),
        beta=float(beta),
        transform=p_alpha @ u @ p_beta,
        tilde_u=_adjoint(u) @ u @ u,
    )


@_boundary((2, 4), square=True)
def binormal_equivalents(
    t,
    alphas_betas: list[tuple[float, float]],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
):
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

    For a stack of operators, a list of one report per operator. ``T`` and
    ``T*`` share one stacked SVD and one ``eigh`` of their moduli; the
    oracle (``_oracle_residuals``) takes the SVD of ``T`` from that one and
    factors only ``T^2`` of every operator, in one stacked SVD; the
    transforms of every exponent pair and their adjoints form one stack,
    pair by pair.
    """
    if not alphas_betas:
        raise ValueError("alphas_betas must contain at least one pair")
    count = len(t)
    binormal = [flag for flag, _ in is_binormal.kernel(t, cfg)]
    pair = np.concatenate([t, _adjoint(t)])
    decomp = _svd(pair)
    factors = polar_decompose.kernel(pair, cfg, decomp=decomp)
    u = factors.isometry[:count]
    equation, ranges = _oracle_residuals([t, t @ t], [u, u @ u], cfg, held=decomp[:count])
    two_centered = (_passing_powers(equation, ranges, cfg) == 2).tolist()
    tol = cfg.equality_rel_tol
    both = functools.cache(_psd_powers(factors.modulus, cfg))

    def power(alpha: float) -> np.ndarray:
        return both(alpha)[:count]

    def adjoint_power(beta: float) -> np.ndarray:
        return both(beta)[count:]

    transform = np.concatenate([power(a) @ u @ power(b) for a, b in alphas_betas])
    tilde_u = np.concatenate([_adjoint(u) @ u @ u] * len(alphas_betas))
    parts = polar_decompose.kernel(np.concatenate([transform, _adjoint(transform)]), cfg)
    split = len(transform)
    transform_parts, adjoint_parts = parts[:split], parts[split:]
    transform_mod = transform_parts.modulus
    eq_res = _residual(transform, tilde_u @ transform_mod)
    polar_checks = verify_polar.kernel(transform, tilde_u, transform_mod, cfg)
    modulus_form = np.concatenate(
        [_adjoint(u) @ power(a) @ u @ power(b) for a, b in alphas_betas]
    )
    adjoint_form = np.concatenate([power(a) @ adjoint_power(b) for a, b in alphas_betas])
    mod_res = _residual(transform_mod, modulus_form)
    adj_res = _residual(adjoint_parts.modulus, adjoint_form)

    checks = [
        AluthgePairCheck(
            float(alpha),
            float(beta),
            eq,
            eq <= tol,
            polar_check,
            mod,
            mod <= tol,
            adj,
            adj <= tol,
        )
        for (alpha, beta), eq, polar_check, mod, adj in zip(
            [pair for pair in alphas_betas for _ in range(count)],
            eq_res.tolist(),
            polar_checks,
            mod_res.tolist(),
            adj_res.tolist(),
        )
    ]
    reports = []
    for i, (binormal_i, two_centered_i) in enumerate(zip(binormal, two_centered)):
        own = tuple(checks[i::count])
        statements = (
            binormal_i,
            two_centered_i,
            all(c.equality_holds for c in own),
            all(c.polar_check.ok for c in own),
            all(c.modulus_form_holds and c.adjoint_form_holds for c in own),
        )
        reports.append(BinormalEquivalents(binormal_i, two_centered_i, own, statements))
    return reports


@_boundary(
    (2, 4),
    square=True,
    held=("parts", "adjoint_parts", "inverse_parts", "pinv"),
)
def mp_centered_check(
    t,
    max_n: int,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    *,
    parts: PolarParts | None = None,
    adjoint_parts: PolarParts | None = None,
    inverse_parts: PolarParts | None = None,
    pinv: np.ndarray | None = None,
):
    """Verify that the Moore-Penrose inverse respects the centered structure.

    The order ``n`` is the criterion order of ``t`` capped at ``max_n``,
    from the commutators k = 1..max_n, which also tell whether ``t`` is
    (n+1)-centered. Checks ``pinv(T^k) = pinv(T)^k`` for k = 1..n and that
    the inverse reaches centered order n by the commutator criterion;
    ``inverse_verified_order`` is the inverse's criterion order up to
    ``max_n``. When the operator is even (n+1)-centered, additionally checks
    that ``U^k (U^k)*`` commutes with ``|T|`` and ``(U^k)* U^k`` with
    ``|T*|`` for k = 1..n.

    For a stack of operators, the result is a list of reports, each bitwise
    that of its operator alone; an operator of several blocks is their
    direct sum, each commutator taken block by block. A caller may pass
    what it holds: ``parts``, the polar parts of ``t``; ``adjoint_parts``,
    those of ``t*``; ``inverse_parts``, those of ``moore_penrose(t)``; and
    ``pinv``, ``moore_penrose(t)`` itself. One SVD of ``t`` gives whichever
    of ``parts`` and ``pinv`` the caller does not hold, and none is taken
    when it holds both. The orders of ``t`` and of its inverse come from
    one walk of the powers of their polar factors, whose commutators take
    one stacked expression, and the inverses of the powers ``T^k``, k >= 2,
    of every operator take one stacked SVD. The modulus commutators of all (n+1)-centered operators at
    all powers take one stacked ``core._commutator_test`` per side, with one
    operator per (operator, power) pair, so each norm is that of its power
    alone.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    decomp = _svd(t) if parts is None or pinv is None else None
    if parts is None:
        parts = polar_decompose.kernel(t, cfg, decomp=decomp)
    if pinv is None:
        pinv = moore_penrose.kernel(t, cfg, decomp=decomp)
    if adjoint_parts is None:
        adjoint_parts = polar_decompose.kernel(_adjoint(t), cfg)
    if inverse_parts is None:
        inverse_parts = polar_decompose.kernel(pinv, cfg)
    u, p, adjoint_modulus = parts.isometry, parts.modulus, adjoint_parts.modulus
    inverse_u, inverse_p = inverse_parts.isometry, inverse_parts.modulus

    # The criterion's decisions for T and pinv, k = 1..max_n, in one stacked
    # expression, each bitwise that of centered_order: the leading run of
    # vanishing commutators of each operator.
    u_pows = list(islice(_powers(np.concatenate([u, inverse_u])), max_n))
    norms, thresholds = _commutators(u_pows, np.concatenate([p, inverse_p]), cfg)
    runs = [len(list(takewhile(bool, row))) for row in (norms <= thresholds).tolist()]
    found = [min(run + 1, max_n) for run in runs]
    orders, inverse_orders = found[: len(t)], found[len(t) :]

    # pinv is the inverse of T itself; each higher power is inverted anew,
    # those of all operators in one stacked SVD.
    top = max(orders)
    members = [[i for i, k in enumerate(orders) if k > j] for j in range(top)]
    t_pows = islice(_powers(t), top)
    higher = [t_pow[own] for t_pow, own in zip(t_pows, members)][1:]
    inverses = pinv
    if higher:
        inverses = np.concatenate([pinv, moore_penrose.kernel(np.concatenate(higher), cfg)])
    pinv_pows = [pinv_pow[own] for pinv_pow, own in zip(_powers(pinv), members)]
    values = iter(_residual(inverses, np.concatenate(pinv_pows)).tolist())
    residuals: list[list[float]] = [[] for _ in orders]
    for own in members:
        for i in own:
            residuals[i].append(next(values))

    # The modulus commutators of the (n+1)-centered operators: those whose
    # max_n commutators all vanish, so that n = max_n, each U^k taken from
    # the criterion's walk. Each side is one stacked test over all powers,
    # one operator per (operator, power) pair.
    plus_one = [run == max_n for run in runs[: len(t)]]
    plus = [i for i, own in enumerate(plus_one) if own]
    modulus = {}
    if plus:
        u_k = np.stack(u_pows, axis=1)[plus]
        # Each modulus at every power, so that each side's three stacks
        # share one shape, and one norm pass.
        mod, adj = (np.broadcast_to(x[plus][:, None], u_k.shape) for x in (p, adjoint_modulus))
        final = _commutator_test(u_k @ _adjoint(u_k), mod, cfg)
        initial = _commutator_test(_adjoint(u_k) @ u_k, adj, cfg)
        commute = (final[1] & initial[1]).all(axis=1).tolist()
        modulus = dict(zip(plus, zip(final[0].tolist(), initial[0].tolist(), commute)))

    tol = cfg.equality_rel_tol
    reports = []
    for i, (k, inverse_order) in enumerate(zip(orders, inverse_orders)):
        mod_norms, adj_norms, mod_ok = modulus.get(i, ((), (), True))
        ok = all(r <= tol for r in residuals[i]) and inverse_order >= k and mod_ok
        reports.append(
            MpCenteredReport(
                order=k,
                power_inverse_residuals=tuple(residuals[i]),
                inverse_verified_order=inverse_order,
                checked_modulus_commutators=plus_one[i],
                modulus_commutator_norms=tuple(mod_norms),
                adjoint_modulus_commutator_norms=tuple(adj_norms),
                ok=ok,
            )
        )
    return reports
