"""Dense complex-matrix kernels and toleranced predicates.

Everything downstream (polar decompositions, classification, the shift
generators) is built on the handful of primitives in this module: Frobenius
norms with ``max(1, .)`` scaling, a relative singular-value rank cutoff, and
eigendecomposition-based fractional powers of positive semidefinite matrices.
Each norm here is bitwise ``numpy.linalg.norm`` of its operator
(``_norms``); the block walk of ``classify`` adds its norms from sums of
squares per block position instead (``classify._power_norms``). The
residual families (``_residual``, ``_residuals``, ``_commutator_test``)
take their norms from ``_joint_norms``: stacks of one shape of at most
``_JOINT_ENTRIES`` entries each in one pass, larger ones in one pass each,
a rule read off the input, since a pass costs a few microseconds of calls
while joining copies each stack. Either way each operator's entries keep
their memory order and their count, so joining changes how many passes
are made, never the order in which a norm sums its squares, and every norm
keeps every bit. All functions are pure and safe for concurrent use.

One path: the kernels take stacks of operators ``(..., blocks, m, n)`` only,
each operator the direct sum of its blocks, and reduce over its last three
axes. A public function checks its input (``_checked``), takes it into such
a stack on entry (``_stacked``) and gives the result back on exit
(``_unstacked``); only these three look at how many axes an input has.

One declaration, ``_boundary``, states that entry and exit, as a generalized
ufunc states its core signature: the axes each array operand may have,
whether its matrices must be square, and which held parts (``decomp=``,
``parts=``, ...) are lifted with it. The public functions of ``core``,
``decomp`` and ``classify`` that it describes are their kernels under it,
and each exposes its kernel as ``.kernel``. Inside those modules a public
function calls ``other.kernel`` or a private kernel of ``core``, never
another public function, so each array operand is checked once per public
call; below ``suites.run_suite``, whose draws are finite by construction,
the suites call kernels too, and so do ``shifts.certify_blockwise`` and
``shifts.verify_predicted_structure``, below their check of the shift they
take. Arrays formed inside a call (products, powers, transforms) are not
checked again: an entry that overflowed reaches a factorization, and
``_lapack`` refuses it. ``_grouped`` evaluates items in groups of one
shape, for the stacked draws of ``sampling`` and the suites alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "COMMUTATOR_FLOOR",
    "as_operator",
    "fro_norm",
    "commutator",
    "commutator_norm",
    "commutator_threshold",
    "commutes",
    "SvdResult",
    "svd",
    "HermEigResult",
    "herm_eig",
    "numerical_rank",
    "rank_margin",
    "is_hermitian",
    "is_hermitian_psd",
    "fractional_power_psd",
    "range_projection",
    "approx_equal",
    "equality_residual",
]

# Absolute floor for commutator-vanishing tests; keeps the scaled threshold
# meaningful for operators with tiny norms.
COMMUTATOR_FLOOR = 1e-14


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative thresholds used by every numerical predicate.

    ``rank_rel_tol`` decides the singular-value cutoff, ``zero_rel_tol``
    decides when commutators and residuals count as vanishing, and
    ``equality_rel_tol`` decides matrix equality. All must lie in [0, 1).
    """

    rank_rel_tol: float = 1e-12
    zero_rel_tol: float = 1e-9
    equality_rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rank_rel_tol", "zero_rel_tol", "equality_rel_tol"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {value!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


def as_operator(a) -> np.ndarray:
    """Validate and coerce input to a 2-D complex128 array.

    Raises ValueError for non-2-D input, empty axes, or non-finite entries.
    """
    return _checked(a)


def _checked(
    a, ndims: tuple[int, ...] = (2,), square: bool = False, finite: bool = True
) -> np.ndarray:
    """``as_operator`` of a matrix or of a stack of matrices of one of
    ``ndims`` axes (the stack rule: 3 for a direct sum of blocks, 4 for a
    stack of operators); with ``square``, every matrix must be square. The
    one input check of the public functions. Without ``finite``, the
    caller checks finiteness itself (``_require_finite``)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim not in ndims:
        kinds = " or ".join(f"{n}-D" for n in ndims)
        raise ValueError(f"operator must be {kinds}, got shape {arr.shape}")
    if 0 in arr.shape:
        raise ValueError(f"operator axes must be nonempty, got shape {arr.shape}")
    if finite:
        _require_finite(arr)
    if square and arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square operator, got {arr.shape}")
    return arr


def _require_finite(arr: np.ndarray) -> None:
    """Raise the ``_checked`` error unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise ValueError("operator entries must be finite")


def _boundary(*axes: tuple[int, ...], square: bool = False, held: tuple[str, ...] = ()):
    """Declare the boundary of a public function whose body, its kernel,
    takes stacks of operators. ``axes`` holds, for each array operand (the
    leading positional arguments), the numbers of axes it may have (the
    stack rule, see ``_checked``); with ``square``, every matrix of every
    operand is square; ``held`` names the keyword arguments, parts that a
    caller holds for the operand, lifted along with it (``_lifted``).
    Operands of a pair have one shape.

    The declared function checks each operand once, takes the operands and
    the held parts into stacks of operators (``_stacked``), calls the
    kernel with the other arguments as given, and gives the kernel's result
    back unstacked (``_unstacked``). The kernel is its ``.kernel``."""

    count, squares = len(axes), (square,) * len(axes)

    def declare(kernel):
        @functools.wraps(kernel)
        def public(*args, **kwargs):
            operands = list(map(_checked, args[:count], axes, squares))
            a = operands[0]
            for b in operands[1:]:
                if b.shape != a.shape:
                    raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
            x, lead, *lifted = _stacked(*operands, *map(kwargs.get, held))
            kwargs.update(zip(held, lifted[count - 1 :]))
            result = kernel(x, *lifted[: count - 1], *args[count:], **kwargs)
            return _unstacked(result, lead)

        public.kernel = kernel
        return public

    return declare


def _stacked(arr: np.ndarray, *held):
    """Entry: a matrix as the stack of operators ``(1, 1, m, n)``, a 3-D
    direct sum as ``(1, blocks, m, n)``, a 4-D stack as itself, more axes
    as one operator (``fro_norm``); the number ``lead`` of axes put in
    front; and the arrays of what a caller holds (``held``) lifted alike."""
    if arr.ndim > 4:
        arr = arr.ravel(order="K")
    lift = (None,) * (4 - arr.ndim)
    return arr[lift], len(lift), *[_lifted(value, lift) for value in held]


def _lifted(value, lift: tuple):
    """``value[lift]`` of an array, a dataclass field by field, anything
    else (None) as it is."""
    if hasattr(value, "__dataclass_fields__"):
        return type(value)(*(_lifted(x, lift) for x in vars(value).values()))
    return value[lift] if hasattr(value, "ndim") else value


def _unstacked(value, lead: int):
    """Exit: ``value`` as it is for a stack of operators (``lead`` 0), else
    its one operator's: the first of a list or of an array of one value per
    operator (a Python scalar), arrays without the ``lead`` axes in front,
    and a dataclass field by field; anything else as it is."""
    ndim = getattr(value, "ndim", None)
    if lead and ndim is not None:
        own = value[(0,) * min(ndim, lead)]
        return own.item() if own.ndim == 0 else own
    if lead and type(value) is list:
        return value[0]
    if lead and hasattr(value, "__dataclass_fields__"):
        return type(value)(*(_unstacked(x, lead) for x in vars(value).values()))
    return value


def _grouped(items: list[tuple], evaluate) -> list:
    """``evaluate(*stacks)`` once per group of ``items`` whose parts have
    one shape, each part stacked over the group (``numpy.stack``); its
    results, one per item, in item order."""
    groups: dict[tuple, list[int]] = {}
    for index, parts in enumerate(items):
        groups.setdefault(tuple(x.shape for x in parts), []).append(index)
    results: list = [None] * len(items)
    for members in groups.values():
        stacks = map(np.stack, zip(*(items[i] for i in members)))
        for index, result in zip(members, evaluate(*stacks)):
            results[index] = result
    return results


def fro_norm(a):
    """Frobenius norm; for an ``(..., m, n)`` stack of three axes, that of
    its direct sum; for a stack of four, ``(operators, blocks, m, n)``, an
    array of the norms of its operators. Each norm is bitwise
    ``numpy.linalg.norm`` of its operator alone, whatever its layout, in
    its precision (integer and boolean input as float64)."""
    x, lead = _entries(a)
    return _unstacked(_norms(x), lead)


def _entries(a) -> tuple[np.ndarray, int]:
    """``_stacked`` of unchecked input, integer and boolean input as float64."""
    arr = np.asarray(a)
    return _stacked(arr if arr.dtype.kind in "fc" else arr.astype(float))


def _rows(x: np.ndarray) -> np.ndarray:
    """Each operator's entries in memory order, as ``ravel(order="K")``
    takes them (axes by stride, each in index order), as ``(..., k)``."""
    if not x.flags.c_contiguous:
        # A stable sort of the three axes by decreasing stride.
        for i, j in ((-3, -2), (-2, -1), (-3, -2)):
            if abs(x.strides[i]) < abs(x.strides[j]):
                x = x.swapaxes(i, j)
        x = np.ascontiguousarray(x)
    return x.reshape(x.shape[:-3] + (-1,))


def _norms(x: np.ndarray) -> np.ndarray:
    """The norm of each operator of a stack, by ``numpy.linalg.norm``'s
    steps: the dots of the real and imaginary parts of its ``_rows``
    (``numpy.vecdot``, bitwise that dot), and the root of the sum. The
    norms of several stacks of one shape, of at most ``_JOINT_ENTRIES``
    entries each, are one such pass (``_joint_norms``): each dot keeps its
    row, its memory order and its length, so each norm keeps every bit."""
    return _row_norms(_rows(x))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The root of the sum of the dots of the real and imaginary parts of
    each row of ``rows``: one norm pass, however many stacks it holds."""
    re, im = rows.real, rows.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


# Entries per stack up to which _joint_norms takes the norms of several
# stacks in one pass. Each pass costs a few microseconds of calls, whatever
# its size, and joining copies every stack once, so the crossover is set by
# the entries of a whole stack, not of one operator: measured (2 cores,
# OpenBLAS) on stacks of 1, 4 and 16 operators, three stacks in one pass
# took 0.76-0.95 times the time of three passes up to about 2,300 entries
# each, 0.93-1.02 times at about 4,000, and 1.08-1.57 times above 6,000.
# At 4,096, the dense shift-family walks read 20% slower in-process.
_JOINT_ENTRIES = 2**11


def _joint_norms(*stacks: np.ndarray, form=None):
    """``_norms`` of each of the stacks of operators ``stacks``, one array
    per stack, in order; with ``form``, first that of the stack
    ``form(*stacks)``, formed here. Stacks of one shape of at most
    ``_JOINT_ENTRIES`` entries each take one pass (``_row_norms``) of all
    their ``_rows``, one stack after another; other stacks take one pass
    each, and nothing is copied, the formed stack let go before the others
    are normed. Each row keeps the memory order of its own stack and each
    dot its length, so a norm is bitwise the same either way: joining
    changes only how many passes are made, not the order in which any norm
    sums its squares."""
    first = stacks[0]
    if first.size <= _JOINT_ENTRIES and all(x.shape == first.shape for x in stacks):
        if form is not None:
            stacks = (form(*stacks), *stacks)
        rows = np.concatenate([_rows(x) for x in stacks])
        return _row_norms(rows).reshape(len(stacks), *first.shape[:-3])
    formed = [] if form is None else [_norms(form(*stacks))]
    return formed + [_norms(x) for x in stacks]


def _hermitian_defect(a: np.ndarray) -> np.ndarray:
    """``a - a*``, for each matrix of a stack."""
    return a - _adjoint(a)


def _floor_one(*norms):
    """``max(1, *norms)``, one value per entry of the arrays ``norms``."""
    return functools.reduce(np.maximum, norms, 1.0)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


@_boundary((2, 3, 4), (2, 3, 4), square=True)
def commutator(a, b) -> np.ndarray:
    """Return ``a @ b - b @ a`` for square operators of equal dimension, or
    for each pair of matrices of two stacks of one shape."""
    return a @ b - b @ a


@_boundary((2, 3, 4), (2, 3, 4), square=True)
def commutator_norm(a, b) -> float | np.ndarray:
    """``fro_norm(commutator(a, b))``: a float for two operators (a direct
    sum counts as one), an array of one norm per operator for two stacks
    of operators."""
    return _norms(a @ b - b @ a)


def commutator_threshold(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Largest commutator norm that counts as vanishing. It scales with both
    operand norms and is floored at ``COMMUTATOR_FLOOR`` so that operators
    of tiny norm still count as commuting. Stacks of three axes count as
    direct sums; stacks of operators get one threshold per operator."""
    (x, lead), (y, other) = _entries(a), _entries(b)
    return _unstacked(_threshold(_norms(x), _norms(y), cfg), min(lead, other))


def _threshold(a_norm, b_norm, cfg: ToleranceConfig):
    """``commutator_threshold`` of operands with the norms ``a_norm`` and
    ``b_norm``, one threshold per entry."""
    return np.maximum(cfg.zero_rel_tol * a_norm * b_norm, COMMUTATOR_FLOOR)


def _commutator_test(a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig):
    """The norm of ``[a, b]`` and whether it vanishes against
    ``commutator_threshold``, for each operator of two stacks."""
    norm, a_norm, b_norm = _joint_norms(a, b, form=commutator.kernel)
    return norm, norm <= _threshold(a_norm, b_norm, cfg)


@_boundary((2, 3, 4), (2, 3, 4), square=True)
def commutes(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Toleranced commutator-vanishing test against :func:`commutator_threshold`;
    for two stacks of operators, one verdict per operator."""
    return _commutator_test(a, b, cfg)[1]


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = left @ diag(s) @ right*`` with orthonormal columns.
    The SVD of a stack holds stacks; indexing it takes the SVDs of the
    matrices (or operators) ``index`` of the stack."""

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    def __getitem__(self, index) -> SvdResult:
        return SvdResult(*(x[index] for x in vars(self).values()))


def _lapack(name: str, a: np.ndarray, **kwargs) -> list[np.ndarray]:
    """``numpy.linalg.<name>``, looked up at call time, of each matrix of
    the stack ``a``, passed as one 3-D stack whatever its leading axes; the
    results shaped back as ``a``. A stack with an entry that is not finite
    (a power that overflowed, say) raises ``numpy.linalg.LinAlgError``
    before LAPACK sees it: its routines may not return on such input."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError(f"{name} of a matrix with entries that are not finite")
    lead = a.shape[:-2]
    out = getattr(np.linalg, name)(a.reshape((-1,) + a.shape[-2:]), **kwargs)
    parts = out if isinstance(out, tuple) else (out,)
    return [x.reshape(lead + x.shape[1:]) for x in parts]


def _svd(a: np.ndarray) -> SvdResult:
    """``svd`` of each matrix of a stack, without validation."""
    left, s, right_h = _lapack("svd", a, full_matrices=False)
    return SvdResult(left, s, _adjoint(right_h))


@_boundary((2, 3, 4))
def svd(a) -> SvdResult:
    """Thin SVD of a matrix, or of each matrix of a stack."""
    return _svd(a)


def _hermitian_products(q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``Q diag(values) Q*`` of each matrix of a stack, made exactly Hermitian:
    the exact product is Hermitian, and the mean with its adjoint removes
    the round-off. Moduli, PSD powers and ``sampling``'s PSD draws are
    formed by it."""
    out = (q * values[..., None, :]) @ _adjoint(q)
    return 0.5 * (out + _adjoint(out))


def _modulus(decomp: SvdResult) -> np.ndarray:
    """``X diag(s) X*`` from the SVD ``t = W diag(s) X*``: the modulus ``|t|``."""
    return _hermitian_products(decomp.right_vectors, decomp.singular_values)


def _isometry(decomp: SvdResult, r: np.ndarray) -> np.ndarray:
    """``W_r X_r*`` from the SVD ``t = W diag(s) X*`` of a stack, with one
    rank per matrix (from ``_rank``): the canonical polar factor of ``t``."""
    return _leading_product(decomp.left_vectors, decomp.right_vectors, r)


def _inverse_svd(decomp: SvdResult, r) -> SvdResult:
    """The SVD of ``X_r diag(1/s_r) W_r*``, the Moore-Penrose inverse that
    ``decomp.moore_penrose`` forms at rank ``r`` (one per matrix) from the
    SVD ``t = W diag(s) X*``, read off that SVD with no factorization: the
    leading ``r`` columns of ``X`` and ``W`` in reverse order, so that the
    values ``1/s_r >= ... >= 1/s_1`` descend, then the other columns with
    the value 0."""
    s = decomp.singular_values
    j = np.arange(s.shape[-1])
    r = np.asarray(r)[..., None]
    order = np.where(j < r, r - 1 - j, j)
    kept = np.take_along_axis(s, order, axis=-1)
    values = np.divide(1.0, kept, out=np.zeros_like(kept), where=j < r)
    columns = order[..., None, :]
    return SvdResult(
        np.take_along_axis(decomp.right_vectors, columns, axis=-1),
        values,
        np.take_along_axis(decomp.left_vectors, columns, axis=-1),
    )


@dataclass(frozen=True)
class HermEigResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@_boundary((2,), square=True)
def herm_eig(a) -> HermEigResult:
    """``numpy.linalg.eigh`` of a square matrix, which reads its lower
    triangle as that of a Hermitian matrix: eigenvalues ascending, with
    orthonormal eigenvectors as columns."""
    return HermEigResult(*_lapack("eigh", a))


def numerical_rank(s, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Count singular values above the relative cutoff.

    ``s`` must be nonincreasing and nonnegative. Returns 0 for an all-zero
    spectrum; the cutoff is ``rank_rel_tol * s[0]`` otherwise.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > cfg.rank_rel_tol * s[0]))


def _rank(s: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """``numerical_rank`` of each spectrum of the matrices of a stack of
    operators ``(..., blocks, k)``, each with the cutoff of its operator:
    ``rank_rel_tol`` times the largest singular value of its direct sum."""
    top = np.maximum.reduce(s, axis=(-2, -1), keepdims=True)
    return np.add.reduce(s > cfg.rank_rel_tol * top, axis=-1)


def _leading_product(left: np.ndarray, right: np.ndarray | None, r) -> np.ndarray:
    """``L_r R_r*``, with ``L_r`` the first ``r`` columns of ``left`` and
    ``R_r`` those of ``right`` (or ``L_r``, for None), ``r`` one rank per
    matrix. Each subgroup of one largest rank per operator is sliced to it,
    and a matrix of lower rank zeroed past its own, so that each matrix
    gets bitwise its product alone (a mask over all columns would not).
    Only an operator of several blocks can hold a matrix of lower rank than
    its largest."""
    top = np.maximum.reduce(r, axis=-1)
    ranks = set(top.tolist())
    if len(ranks) == 1:
        return _rank_product(left, right, r, ranks.pop())
    columns = left if right is None else right
    out = np.empty(left.shape[:-1] + columns.shape[-2:-1], dtype=np.complex128)
    for rank in ranks:
        (members,) = np.nonzero(top == rank)
        own = None if right is None else right[members]
        out[members] = _rank_product(left[members], own, r[members], rank)
    return out


def _rank_product(left: np.ndarray, right: np.ndarray | None, r, rank: int) -> np.ndarray:
    """``_leading_product`` of operators whose largest rank is ``rank``."""
    w = left[..., :rank]
    if np.minimum.reduce(r, axis=None) < rank:
        w = w * (np.arange(rank) < r[..., None])[..., None, :]
    x = w if right is None else right[..., :rank]
    return w @ _adjoint(x)


def rank_margin(s, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Rank-decision margin ``s[r-1] / s[0]`` for numerical rank r.

    Returns ``inf`` when the rank is zero (no decision to make). Rank
    decisions are considered reliable when the margin exceeds ten times
    ``rank_rel_tol``.
    """
    s = np.asarray(s, dtype=np.float64)
    r = numerical_rank(s, cfg)
    if r == 0:
        return float("inf")
    return float(s[r - 1] / s[0])


@_boundary((2, 4))
def is_hermitian(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Whether ``a`` equals its adjoint within tolerance; for a stack of
    operators, one verdict per operator."""
    if a.shape[-1] != a.shape[-2]:
        return np.zeros(a.shape[:-3], dtype=bool)
    difference, norm = _joint_norms(a, form=_hermitian_defect)
    return difference <= cfg.equality_rel_tol * _floor_one(norm)


@_boundary((2, 4))
def is_hermitian_psd(a, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """True iff ``a`` is Hermitian within tolerance with spectrum >= -tol.
    A stack of operators gets one verdict per operator, and only its
    Hermitian operators are factored."""
    verdicts = is_hermitian.kernel(a, cfg)
    if verdicts.any():
        h = a[verdicts]
        (values,) = _lapack("eigvalsh", 0.5 * (h + _adjoint(h)))
        verdicts[verdicts] = _psd_verdicts(values, cfg)
    return verdicts


def _psd_verdicts(values: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Whether each operator of a stack is PSD within tolerance, from the
    ascending eigenvalues ``(operators, blocks, m)`` of its Hermitian part:
    its lowest eigenvalue is at least ``-zero_rel_tol * max(1, top)``, with
    ``top`` its largest."""
    top = values[..., -1].max(axis=-1)
    return values[..., 0].min(axis=-1) >= -cfg.zero_rel_tol * _floor_one(top)


@_boundary((2,))
def fractional_power_psd(
    a, alpha: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Power ``a**alpha`` of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues below the rank cutoff are clamped to zero before powering,
    so small negative round-off cannot blow up and the range of the result
    equals the range of ``a`` for every ``alpha > 0``.

    Raises ValueError for ``alpha <= 0``, non-Hermitian input, or an
    eigenvalue below the negativity tolerance.
    """
    _require_positive(alpha)
    return _psd_powers(a, cfg)(alpha)


def _require_positive(alpha: float) -> None:
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")


def _psd_powers(x: np.ndarray, cfg: ToleranceConfig):
    """``alpha -> fractional_power_psd(x, alpha)`` of each operator of a
    stack of operators, from one ``eigh`` and rank clamp, with each
    operator's own Hermitian test, negativity tolerance and cutoff; a stack
    raises if any operator fails its test."""
    if not is_hermitian.kernel(x, cfg).all():
        raise ValueError("fractional powers require a Hermitian input")
    values, vectors = _lapack("eigh", 0.5 * (x + _adjoint(x)))
    if not _psd_verdicts(values, cfg).all():
        raise ValueError(f"input is not PSD: smallest eigenvalue {values.min():.3e}")
    lam_max = values[..., -1].max(axis=-1)[..., None, None]
    cutoff = cfg.rank_rel_tol * np.maximum(lam_max, 0.0)
    values[values <= cutoff] = 0.0

    def power(alpha: float) -> np.ndarray:
        _require_positive(alpha)
        return _hermitian_products(vectors, np.where(values > 0.0, values**alpha, 0.0))

    return power


def _hermitian_range_projection(
    values: np.ndarray, vectors: np.ndarray, cfg: ToleranceConfig
) -> np.ndarray:
    """``range_projection.kernel`` of each Hermitian matrix of a stack of
    operators from its ``eigh``: the |eigenvalues| are its singular values,
    so the eigenvectors ordered by |eigenvalue|, largest first, take the
    place of the left singular vectors, with the cutoffs of ``_rank``."""
    magnitudes = np.abs(values)
    order = np.argsort(-magnitudes, axis=-1, kind="stable")
    s = np.take_along_axis(magnitudes, order, axis=-1)
    return _projection(np.take_along_axis(vectors, order[..., None, :], axis=-1), s, cfg)


@_boundary((2, 3, 4))
def range_projection(t, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthogonal projection onto the numerical range (column space) of
    ``t``; for a stack, that of each matrix, with the rank cutoffs of
    ``_rank``."""
    decomp = _svd(t)
    return _projection(decomp.left_vectors, decomp.singular_values, cfg)


def _projection(vectors: np.ndarray, s: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """``V_r V_r*`` of each matrix of a stack, made exactly Hermitian, from
    its orthonormal ``vectors`` ordered by the nonincreasing singular
    values ``s``, with ``_rank``'s count of them: the projection onto the
    range of the matrix they come from."""
    p = _leading_product(vectors, None, _rank(s, cfg))
    return 0.5 * (p + _adjoint(p))


@_boundary((2, 3, 4), (2, 3, 4))
def equality_residual(a, b):
    """Frobenius distance scaled by ``max(1, |a|, |b|)``; for stacks, that
    of ``_residual``."""
    return _residual(a, b)


def _residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``equality_residual`` of each pair of operators of two stacks of
    operators of one shape."""
    difference, *norms = _joint_norms(a, b, form=np.subtract)
    return difference / _floor_one(*norms)


def _residuals(pairs) -> list[np.ndarray]:
    """``_residual`` of each pair ``(a, b)`` of stacks of one shape that
    the iterable ``pairs`` yields, in order. Pairs of stacks of at most
    ``_JOINT_ENTRIES`` entries are all formed first, and the pairs of one
    shape take their norms in one ``_joint_norms`` pass; a larger pair
    takes its residual as it comes and is let go before the next is
    formed, so that no two of them are held at once."""
    residuals: list = []
    small: dict[tuple, list] = {}
    # Neither the loop names nor an enumerate result may hold a large pair
    # while the next one is formed.
    for a, b in pairs:
        if a.size > _JOINT_ENTRIES:
            residuals.append(_residual(a, b))
        else:
            small.setdefault(a.shape, []).append((len(residuals), a, b))
            residuals.append(None)
        del a, b
    for members in small.values():
        norms = iter(_joint_norms(*(x for _, a, b in members for x in (a - b, a, b))))
        for (index, _, _), difference, a_norm, b_norm in zip(members, norms, norms, norms):
            residuals[index] = difference / _floor_one(a_norm, b_norm)
    return residuals


@_boundary((2, 3, 4), (2, 3, 4))
def approx_equal(a, b, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool | np.ndarray:
    """True iff ``|a - b|_F <= equality_rel_tol * max(1, |a|_F, |b|_F)``; for
    two stacks of operators, an array of one verdict per operator."""
    return _residual(a, b) <= cfg.equality_rel_tol
