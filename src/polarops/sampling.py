"""Seeded generators for random and structured test operators.

Everything draws from a caller-supplied ``numpy.random.Generator``, so trial
runs are reproducible from a single seed. Random entries use independent
standard-normal real and imaginary parts; rank-deficient variants zero out
trailing singular values to exercise the rank-cutoff paths.

A stacked draw (``random_spectrum_operators``) takes the random numbers of
its operators from the generator in the order of one draw after another,
and only then factors them, each dimension's unitaries in one QR of a
stack: the stream stays the same, and each operator is bitwise the one
drawn alone.
"""

from __future__ import annotations

import numpy as np

from .core import _adjoint, _svd, commutator_norm, fro_norm
from .shifts import ShiftSpec, build_truncated

__all__ = [
    "random_operator",
    "random_rank_deficient",
    "random_mixed_rank",
    "random_unitary",
    "random_normal_operator",
    "random_psd",
    "random_commuting_psd_pair",
    "random_psd_pair",
    "random_spectrum_operator",
    "random_spectrum_operators",
    "random_binormal",
    "random_nonbinormal",
    "random_commuting_moduli_pair",
    "structured_fixtures",
]


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
    left = random_operator(rng, rows, rank)
    right = random_operator(rng, cols, rank)
    ql = np.linalg.qr(left)[0]
    qr = np.linalg.qr(right)[0]
    values = rng.uniform(0.5, 2.0, size=rank)
    return (ql * values) @ qr.conj().T


def random_mixed_rank(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Square matrix that is rank-deficient about a third of the time."""
    if dim >= 2 and rng.uniform() < 0.35:
        rank = int(rng.integers(1, dim))
        return random_rank_deficient(rng, dim, dim, rank)
    return random_operator(rng, dim)


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
    q = random_unitary(rng, dim)
    values = np.concatenate(
        [rng.uniform(0.2, 3.0, size=rank), np.zeros(dim - rank)]
    )
    out = (q * values) @ q.conj().T
    return 0.5 * (out + out.conj().T)


def random_commuting_psd_pair(
    rng: np.random.Generator, dim: int, deficient: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """PSD pair sharing an eigenbasis, hence commuting to machine precision."""
    q = random_unitary(rng, dim)

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


def random_psd_pair(
    rng: np.random.Generator, dim: int, min_scaled_commutator: float = 1e-3
) -> tuple[np.ndarray, np.ndarray]:
    """Independent PSD pair, redrawn until it clearly fails to commute."""
    for _ in range(64):
        a = random_psd(rng, dim)
        b = random_psd(rng, dim)
        if commutator_norm(a, b) > min_scaled_commutator * fro_norm(a) * fro_norm(b):
            return a, b
    raise RuntimeError("could not draw a non-commuting PSD pair")


def random_spectrum_operator(
    rng: np.random.Generator,
    dim: int,
    min_sv: float = 0.05,
    max_sv: float = 1.0,
    rank: int | None = None,
) -> np.ndarray:
    """Random operator with singular values controlled inside [min_sv, max_sv]
    (log-uniform), optionally rank-deficient; keeps pseudo-inverse paths
    well-conditioned."""
    rank = dim if rank is None else rank
    return random_spectrum_operators(rng, [dim], [rank], min_sv, max_sv)[0]


def random_spectrum_operators(
    rng: np.random.Generator,
    dims: list[int],
    ranks: list[int],
    min_sv: float = 0.05,
    max_sv: float = 1.0,
) -> list[np.ndarray]:
    """``random_spectrum_operator`` of each dimension of ``dims`` with the
    rank at the same place of ``ranks``, as a list. The generator is read
    in the order of those draws one after another, and the unitaries of
    each dimension are factored in one stacked QR, so each operator is
    bitwise its draw alone and the generator ends in the same state."""
    spectra, gaussians = [], []
    for dim, rank in zip(dims, ranks, strict=True):
        if not 1 <= rank <= dim:
            raise ValueError(f"rank {rank} invalid for dimension {dim}")
        values = np.exp(rng.uniform(np.log(min_sv), np.log(max_sv), size=rank))
        spectra.append(np.concatenate([values, np.zeros(dim - rank)]))
        # The real and imaginary parts of two random_operator draws.
        parts = rng.standard_normal((4, dim, dim))
        gaussians.append(parts[0::2] + 1j * parts[1::2])
    operators = {}
    for dim in dict.fromkeys(dims):
        members = [i for i, own in enumerate(dims) if own == dim]
        q = _unitary_factors(np.concatenate([gaussians[i] for i in members]))
        values = np.stack([spectra[i] for i in members])[:, None, :]
        operators.update(zip(members, (q[0::2] * values) @ _adjoint(q[1::2])))
    return [operators[i] for i in range(len(dims))]


def random_binormal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Operator with commuting ``T* T`` and ``T T*``, by construction.

    Families: permutation-times-diagonal (both products diagonal), normal
    matrices, and unitaries; each conjugated by a random unitary, which
    preserves the property.
    """
    family = int(rng.integers(0, 3))
    if family == 0:
        perm = rng.permutation(dim)
        weights = rng.uniform(0.2, 2.0, size=dim)
        base = np.zeros((dim, dim), dtype=np.complex128)
        base[perm, np.arange(dim)] = weights
    elif family == 1:
        base = random_normal_operator(rng, dim)
    else:
        base = random_unitary(rng, dim)
    q = random_unitary(rng, dim)
    return q @ base @ q.conj().T


def random_nonbinormal(
    rng: np.random.Generator, dim: int, min_scaled_commutator: float = 1e-2
) -> np.ndarray:
    """Dense random operator redrawn until ``[T* T, T T*]`` is far from zero
    relative to the product of norms."""
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


def random_commuting_moduli_pair(
    rng: np.random.Generator, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pair (T, S) built so that ``|T|`` and ``|S*|`` commute exactly.

    ``S = X E X* Q`` with ``X`` an eigenbasis of ``|T|``, ``E`` nonnegative
    diagonal, and ``Q`` unitary; then ``S S* = X E^2 X*`` shares the
    eigenbasis of ``T* T``.
    """
    t = random_operator(rng, dim)
    x = _svd(t).right_vectors
    values = rng.uniform(0.2, 2.0, size=dim)
    if dim >= 2 and rng.uniform() < 0.3:
        values[rng.permutation(dim)[: rng.integers(1, dim)]] = 0.0
    s = (x * values) @ x.conj().T @ random_unitary(rng, dim)
    return t, s


def structured_fixtures(
    rng: np.random.Generator | None = None,
) -> list[tuple[str, np.ndarray]]:
    """Named square fixtures exercising the structural corner cases: zero and
    identity, nilpotent shifts, normal/unitary/Hermitian examples, a
    rank-deficient draw, and exactly-n-centered truncated shifts."""
    if rng is None:
        rng = np.random.default_rng(20240819)
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
        ("shift-order-2", build_truncated(ShiftSpec.from_recipe(2))),
        ("shift-order-3", build_truncated(ShiftSpec.from_recipe(3))),
    ]
    return fixtures
