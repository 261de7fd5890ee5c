"""Seeded generators for random and structured test operators.

Everything draws from a caller-supplied ``numpy.random.Generator``, so trial
runs are reproducible from a single seed. Random entries use independent
standard-normal real and imaginary parts; rank-deficient variants zero out
trailing singular values to exercise the rank-cutoff paths.

A stacked draw (``random_spectrum_operators``, ``random_mixed_ranks``,
``random_commuting_psd_pairs``, ``random_commuting_moduli_pairs`` and
``random_binormals``) takes the random numbers of its operators from the
generator in the order of one draw after another, and only then factors
them, in one QR (and, for moduli pairs, one SVD) of a stack per shape, and
forms the products of each shape as one stacked expression
(``random_binormals``, whose families differ from draw to draw, one draw
at a time): the stream stays the same, and each operator is bitwise the
one drawn alone. The single draw is a one-element call of its stacked
form. ``random_psd_pair``, which redraws a pair that commutes, has no
stacked form: it draws and tests one pair at a time. The bounds of the
draws (how far from commuting a redrawn pair or
non-binormal operator must be, the range of the singular values of
``random_spectrum_operator``) are fixed: module constants, not arguments.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import _adjoint, _grouped, _hermitian_products, _norms, _svd
from .shifts import ShiftSpec, build_truncated

__all__ = [
    "random_operator",
    "random_rank_deficient",
    "random_mixed_rank",
    "random_mixed_ranks",
    "random_unitary",
    "random_normal_operator",
    "random_psd",
    "random_commuting_psd_pair",
    "random_commuting_psd_pairs",
    "random_psd_pair",
    "random_spectrum_operator",
    "random_spectrum_operators",
    "random_binormal",
    "random_binormals",
    "random_nonbinormal",
    "random_commuting_moduli_pair",
    "random_commuting_moduli_pairs",
    "structured_fixtures",
]

# A PSD pair (A, B) is redrawn until ||[A, B]|| exceeds this times
# ||A|| ||B|| (Frobenius norms), so that it clearly fails to commute.
_PSD_PAIR_COMMUTATOR = 1e-3
# A non-binormal draw T is redrawn until ||[T* T, T T*]|| exceeds this
# times ||T* T|| ||T T*||.
_NONBINORMAL_COMMUTATOR = 1e-2
# The range of the nonzero singular values of random_spectrum_operator,
# drawn log-uniform: bounded away from zero, so that the pseudo-inverse
# stays well-conditioned.
_MIN_SV, _MAX_SV = 0.05, 1.0


def random_operator(rng: np.random.Generator, rows: int, cols: int | None = None):
    """Dense complex matrix with standard-normal real and imaginary parts."""
    if cols is None:
        cols = rows
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal(
        (rows, cols)
    )


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR factorization of a random matrix, with
    the phase convention that makes the factorization unique."""
    return _unitary_factors(random_operator(rng, dim))


def _unitary_factors(a: np.ndarray) -> np.ndarray:
    """The Q of the QR factorization of each matrix of a stack, its columns
    multiplied by the phases of the diagonal of R."""
    q, r = np.linalg.qr(a)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    return q * (phases / np.abs(phases))[..., None, :]


def random_rank_deficient(
    rng: np.random.Generator, rows: int, cols: int, rank: int
) -> np.ndarray:
    """Random matrix with exactly ``rank`` nonzero singular values."""
    if not 0 <= rank <= min(rows, cols):
        raise ValueError(f"rank {rank} invalid for shape ({rows}, {cols})")
    if rank == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    return _grouped([_deficient_parts(rng, rows, cols, rank)], _deficient_products)[0]


def _deficient_parts(rng: np.random.Generator, rows: int, cols: int, rank: int):
    """The random numbers of one ``random_rank_deficient`` draw, in its
    order: Gaussian bases of its range and of its co-range, then its
    nonzero singular values."""
    left = random_operator(rng, rows, rank)
    right = random_operator(rng, cols, rank)
    return left, right, rng.uniform(0.5, 2.0, size=rank)


def _deficient_products(left, right, values) -> np.ndarray:
    """``Q_l diag(values) Q_r*`` of each of a stack of ``_deficient_parts``,
    ``Q_l`` and ``Q_r`` the Q of the QR factorizations of its bases: one QR
    of both bases, two if their shapes differ."""
    if left.shape == right.shape:
        q = np.linalg.qr(np.concatenate([left, right]))[0]
        left, right = q[: len(q) // 2], q[len(q) // 2 :]
    else:
        left, right = np.linalg.qr(left)[0], np.linalg.qr(right)[0]
    return (left * values[:, None, :]) @ _adjoint(right)


def random_mixed_rank(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Square matrix that is rank-deficient about a third of the time."""
    return random_mixed_ranks(rng, [dim])[0]


def random_mixed_ranks(rng: np.random.Generator, dims: list[int]) -> list[np.ndarray]:
    """``random_mixed_rank`` of each dimension of ``dims``, as a list."""
    operators, deficient = {}, {}
    for index, dim in enumerate(dims):
        if dim >= 2 and rng.uniform() < 0.35:
            deficient[index] = _deficient_parts(rng, dim, dim, int(rng.integers(1, dim)))
        else:
            operators[index] = random_operator(rng, dim)
    operators.update(zip(deficient, _grouped(list(deficient.values()), _deficient_products)))
    return [operators[i] for i in range(len(dims))]


def random_normal_operator(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unitarily diagonalizable matrix with random complex spectrum."""
    q = random_unitary(rng, dim)
    eigenvalues = random_operator(rng, dim, 1).reshape(-1)
    return (q * eigenvalues) @ q.conj().T


def random_psd(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> np.ndarray:
    """Hermitian PSD matrix; optionally with prescribed rank."""
    if rank is None:
        rank = dim
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} invalid for dimension {dim}")
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    gaussian, values = _psd_parts(rng, dim, rank)
    return _hermitian_products(_unitary_factors(gaussian), values)


def _psd_parts(rng: np.random.Generator, dim: int, rank: int):
    """The random numbers of one ``random_psd`` draw, in its order: the
    Gaussian of its eigenbasis, then its eigenvalues, zero past ``rank``."""
    gaussian = random_operator(rng, dim)
    return gaussian, np.concatenate([rng.uniform(0.2, 3.0, size=rank), np.zeros(dim - rank)])


def random_commuting_psd_pair(
    rng: np.random.Generator, dim: int, deficient: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """PSD pair sharing an eigenbasis, hence commuting to machine precision."""
    return random_commuting_psd_pairs(rng, [dim], [deficient])[0]


def random_commuting_psd_pairs(
    rng: np.random.Generator, dims: list[int], deficient: list[bool]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``random_commuting_psd_pair`` of each dimension of ``dims`` with the
    flag at the same place of ``deficient``, as a list."""
    drawn = [
        (random_operator(rng, dim), _spectrum(rng, dim, own), _spectrum(rng, dim, own))
        for dim, own in zip(dims, deficient, strict=True)
    ]
    return _grouped(
        drawn, lambda g, a, b: zip(*_hermitian_products(_unitary_factors(g), np.array((a, b))))
    )


def _spectrum(rng: np.random.Generator, dim: int, deficient: bool) -> np.ndarray:
    """Eigenvalues of one operator of a commuting PSD pair; when
    ``deficient``, some of them (not all) zero."""
    values = rng.uniform(0.2, 3.0, size=dim)
    if deficient and dim >= 2:
        zeros = rng.integers(1, dim)
        values[rng.permutation(dim)[:zeros]] = 0.0
    return values


def random_psd_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent PSD pair, redrawn until it clearly fails to commute:
    until ``[A, B]`` exceeds ``_PSD_PAIR_COMMUTATOR`` times the norms of
    ``A`` and ``B``. Each draw is tested alone (``_noncommuting`` of a
    stack of one pair); a pair that fails on 64 draws in a row raises
    ``RuntimeError``, with the generator after its last draw."""
    for _ in range(64):
        drawn = _psd_parts(rng, dim, dim) + _psd_parts(rng, dim, dim)
        ((a, b, clear),) = _noncommuting(*(x[None] for x in drawn))
        if clear:
            return a, b
    raise RuntimeError("could not draw a non-commuting PSD pair")


def _noncommuting(a_gaussians, a_values, b_gaussians, b_values):
    """The PSD pairs ``(A, B)`` of a stack of two ``_psd_parts`` each, from
    one QR, each with whether ``[A, B]`` exceeds ``_PSD_PAIR_COMMUTATOR``
    times the norms of ``A`` and ``B``, from one ``core._norms`` pass."""
    q = _unitary_factors(np.array((a_gaussians, b_gaussians)))
    a, b = _hermitian_products(q, np.array((a_values, b_values)))[:, :, None]
    commutator, a_norm, b_norm = _norms(np.concatenate([a @ b - b @ a, a, b])).reshape(3, -1)
    return zip(a[:, 0], b[:, 0], commutator > _PSD_PAIR_COMMUTATOR * a_norm * b_norm)


def random_spectrum_operator(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> np.ndarray:
    """Random operator whose ``rank`` (``dim`` by default) nonzero singular
    values lie in [0.05, 1] (``_MIN_SV``, ``_MAX_SV``), log-uniform; keeps
    pseudo-inverse paths well-conditioned."""
    rank = dim if rank is None else rank
    return random_spectrum_operators(rng, [dim], [rank])[0]


def random_spectrum_operators(
    rng: np.random.Generator, dims: list[int], ranks: list[int]
) -> list[np.ndarray]:
    """``random_spectrum_operator`` of each dimension of ``dims`` with the
    rank at the same place of ``ranks``, as a list."""
    drawn = []
    for dim, rank in zip(dims, ranks, strict=True):
        if not 1 <= rank <= dim:
            raise ValueError(f"rank {rank} invalid for dimension {dim}")
        values = np.exp(rng.uniform(np.log(_MIN_SV), np.log(_MAX_SV), size=rank))
        # The real and imaginary parts of two random_operator draws.
        parts = rng.standard_normal((4, dim, dim))
        drawn.append((np.concatenate([values, np.zeros(dim - rank)]), parts[0::2] + 1j * parts[1::2]))

    def form(values: np.ndarray, gaussians: np.ndarray) -> np.ndarray:
        q = _unitary_factors(gaussians)
        return (q[:, 0] * values[:, None, :]) @ _adjoint(q[:, 1])

    return _grouped(drawn, form)


def random_binormal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Operator with commuting ``T* T`` and ``T T*``, by construction.

    Families: permutation-times-diagonal (both products diagonal), normal
    matrices, and unitaries; each conjugated by a random unitary, which
    preserves the property.
    """
    return random_binormals(rng, [dim])[0]


def random_binormals(rng: np.random.Generator, dims: list[int]) -> list[np.ndarray]:
    """``random_binormal`` of each dimension of ``dims``, as a list: one QR
    of all the unitaries of each dimension. A normal base is
    ``random_normal_operator``'s, a unitary one ``random_unitary``'s."""
    # Per draw: its base, or None for one formed from a unitary, and the
    # eigenvalues of a normal base.
    drawn, gaussians = [], []
    for dim in dims:
        family = int(rng.integers(0, 3))
        base = eigenvalues = None
        if family == 0:
            perm = rng.permutation(dim)
            weights = rng.uniform(0.2, 2.0, size=dim)
            base = np.zeros((dim, dim), dtype=np.complex128)
            base[perm, np.arange(dim)] = weights
        else:
            gaussians.append((random_operator(rng, dim),))
            if family == 1:
                eigenvalues = random_operator(rng, dim, 1).reshape(-1)
        drawn.append((base, eigenvalues))
        gaussians.append((random_operator(rng, dim),))
    unitaries = iter(_grouped(gaussians, _unitary_factors))
    operators = []
    for base, eigenvalues in drawn:
        if base is None:
            base = next(unitaries)
            if eigenvalues is not None:
                base = (base * eigenvalues) @ base.conj().T
        q = next(unitaries)
        operators.append(q @ base @ q.conj().T)
    return operators


def random_nonbinormal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Dense random operator redrawn until ``[T* T, T T*]`` exceeds
    ``_NONBINORMAL_COMMUTATOR`` times the product of the norms of ``T* T``
    and ``T T*``, the three norms of each draw from one ``core._norms``
    pass."""
    if dim < 2:
        raise ValueError("non-binormal operators need dimension >= 2")
    for _ in range(64):
        t = random_operator(rng, dim)
        left, right = t.conj().T @ t, t @ t.conj().T
        stack = np.array([left @ right - right @ left, left, right])[:, None]
        commutator, left_norm, right_norm = _norms(stack)
        if commutator > _NONBINORMAL_COMMUTATOR * left_norm * right_norm:
            return t
    raise RuntimeError("could not draw a non-binormal operator")


def random_commuting_moduli_pair(
    rng: np.random.Generator, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pair (T, S) built so that ``|T|`` and ``|S*|`` commute exactly.

    ``S = X E X* Q`` with ``X`` an eigenbasis of ``|T|``, ``E`` nonnegative
    diagonal, and ``Q`` unitary; then ``S S* = X E^2 X*`` shares the
    eigenbasis of ``T* T``.
    """
    return random_commuting_moduli_pairs(rng, [dim])[0]


def random_commuting_moduli_pairs(
    rng: np.random.Generator, dims: list[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``random_commuting_moduli_pair`` of each dimension of ``dims``, as a
    list: one SVD of the ``T`` and one QR of the unitaries per dimension."""
    drawn = []
    for dim in dims:
        t = random_operator(rng, dim)
        values = rng.uniform(0.2, 2.0, size=dim)
        if dim >= 2 and rng.uniform() < 0.3:
            values[rng.permutation(dim)[: rng.integers(1, dim)]] = 0.0
        drawn.append((t, values, random_operator(rng, dim)))

    def form(t: np.ndarray, values: np.ndarray, gaussians: np.ndarray):
        x = _svd(t).right_vectors
        return zip(t, (x * values[:, None, :]) @ _adjoint(x) @ _unitary_factors(gaussians))

    return _grouped(drawn, form)


def structured_fixtures(rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    """Named square fixtures exercising the structural corner cases: zero and
    identity, nilpotent shifts, normal/unitary/Hermitian examples, a
    rank-deficient draw, and the truncated shifts of orders 2 and 3 (the
    paper's operators rounded, n-centered to within the tolerance; the same
    read-only arrays on every call). The random fixtures draw from ``rng``."""
    jordan = np.zeros((3, 3), dtype=np.complex128)
    jordan[0, 1] = jordan[1, 2] = 1.0
    fixtures: list[tuple[str, np.ndarray]] = [
        ("zero-3", np.zeros((3, 3), dtype=np.complex128)),
        ("identity-3", np.eye(3, dtype=np.complex128)),
        ("nilpotent-2", np.array([[0, 1], [0, 0]], dtype=np.complex128)),
        ("nilpotent-3", jordan),
        ("normal-diag", np.diag([1.0, 1j, -2.0 + 0.5j]).astype(np.complex128)),
        ("non-binormal-2", np.array([[1, 1], [0, 1]], dtype=np.complex128)),
        ("unitary-4", random_unitary(rng, 4)),
        ("psd-rank2", random_psd(rng, 4, rank=2)),
        ("rank-deficient-5", random_rank_deficient(rng, 5, 5, 3)),
        ("binormal-5", random_binormal(rng, 5)),
        *_fixture_shifts(),
    ]
    return fixtures


@functools.cache
def _fixture_shifts() -> tuple[tuple[str, np.ndarray], ...]:
    """The recipe shifts of ``structured_fixtures``, which draw
    nothing: built on the first call of a process, and read-only, since
    every later call hands out the same arrays."""
    shifts = []
    for n in (2, 3):
        shift = build_truncated(ShiftSpec.from_recipe(n))
        shift.flags.writeable = False
        shifts.append((f"shift-order-{n}", shift))
    return tuple(shifts)
