"""One path below the public functions: a matrix, its 3-D form ``t[None]``
(a direct sum of one block) and its 4-D form ``t[None, None]`` (a stack of
one operator) get bitwise the same result from every public function of
``core``, ``decomp`` and ``classify`` that takes stacks, whatever the
memory layout of the operands."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from polarops.classify import (
    aluthge,
    binormal_equivalents,
    centered_order,
    is_binormal,
    mp_centered_check,
    polar_transfer,
    product_polar,
)
from polarops.core import (
    approx_equal,
    commutator,
    commutator_norm,
    commutator_threshold,
    commutes,
    equality_residual,
    fro_norm,
    is_hermitian,
    is_hermitian_psd,
    range_projection,
    svd,
)
from polarops.decomp import (
    abs_value,
    moore_penrose,
    mp_polar_parts,
    polar_decompose,
    verify_polar,
)

DIRECT_SUM = (2, 3, 4)  # matrix, direct sum of one block, stack of one operator
OPERATORS = (2, 4)  # matrix and stack of one operator only

# (name, accepted ranks, call): ``call(t, s, form)`` evaluates the function
# on the operands ``t`` and ``s`` put in ``form``.
CASES = [
    ("fro_norm", DIRECT_SUM, lambda t, s, f: fro_norm(f(t))),
    ("commutator", DIRECT_SUM, lambda t, s, f: commutator(f(t), f(s))),
    ("commutator_norm", DIRECT_SUM, lambda t, s, f: commutator_norm(f(t), f(s))),
    (
        "commutator_threshold",
        DIRECT_SUM,
        lambda t, s, f: commutator_threshold(f(t), f(s)),
    ),
    ("commutes", DIRECT_SUM, lambda t, s, f: commutes(f(t), f(s))),
    ("svd", DIRECT_SUM, lambda t, s, f: svd(f(t))),
    ("is_hermitian", OPERATORS, lambda t, s, f: is_hermitian(f(t))),
    (
        "is_hermitian_psd",
        OPERATORS,
        lambda t, s, f: is_hermitian_psd(f(t @ t.conj().T)),
    ),
    ("range_projection", DIRECT_SUM, lambda t, s, f: range_projection(f(t))),
    ("equality_residual", DIRECT_SUM, lambda t, s, f: equality_residual(f(t), f(s))),
    ("approx_equal", DIRECT_SUM, lambda t, s, f: approx_equal(f(t), f(t.copy()))),
    ("abs_value", DIRECT_SUM, lambda t, s, f: abs_value(f(t))),
    ("polar_decompose", DIRECT_SUM, lambda t, s, f: polar_decompose(f(t))),
    (
        "verify_polar",
        DIRECT_SUM,
        lambda t, s, f: verify_polar(f(t), polar_decompose(f(t))),
    ),
    (
        # The isometry of the inverse's parts is an adjoint, not C-ordered.
        "verify_polar of the inverse",
        DIRECT_SUM,
        lambda t, s, f: verify_polar(moore_penrose(f(t)), mp_polar_parts(f(t))),
    ),
    ("moore_penrose", DIRECT_SUM, lambda t, s, f: moore_penrose(f(t))),
    ("mp_polar_parts", DIRECT_SUM, lambda t, s, f: mp_polar_parts(f(t))),
    ("is_binormal", OPERATORS, lambda t, s, f: is_binormal(f(t))),
    ("centered_order", OPERATORS, lambda t, s, f: centered_order(f(t), 4)),
    ("product_polar", OPERATORS, lambda t, s, f: product_polar(f(t), f(s))),
    ("polar_transfer", OPERATORS, lambda t, s, f: polar_transfer(f(t), f(s))),
    ("aluthge", OPERATORS, lambda t, s, f: aluthge(f(t), 0.5, 0.25)),
    (
        "binormal_equivalents",
        OPERATORS,
        lambda t, s, f: binormal_equivalents(f(t), [(0.5, 0.5), (1.0, 2.0)]),
    ),
    ("mp_centered_check", OPERATORS, lambda t, s, f: mp_centered_check(f(t), 1)),
]

FORMS = {2: lambda x: x, 3: lambda x: x[None], 4: lambda x: x[None, None]}


def _layouts() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Square operands in four memory layouts: C-ordered, transposed,
    conjugate-transposed and strided."""
    rng = np.random.default_rng(19)
    parts = rng.standard_normal((2, 2, 5, 5))
    t, s = parts[0] + 1j * parts[1]
    big = rng.standard_normal((2, 10, 15)) + 1j * rng.standard_normal((2, 10, 15))
    return {
        "c": (t, s),
        "transposed": (t.T, s.T),
        "adjoint": (t.conj().T, s.conj().T),
        "strided": (big[0, ::2, 1::3], big[1, ::2, 1::3]),
    }


def _canonical(value):
    """``value`` with the axes of length one in front of every array
    dropped, so that an operator's result compares equal in each of its
    forms; arrays as (dtype, shape, bytes), floats as (dtype, bytes)."""
    if isinstance(value, list) and len(value) == 1:
        return _canonical(value[0])
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, _canonical(vars(value)))
    if isinstance(value, (np.ndarray, np.generic, bool, int, float, complex)):
        arr = np.asarray(value)
        while arr.ndim and arr.shape[0] == 1:
            arr = arr[0]
        return (arr.dtype.str, arr.shape, arr.tobytes())
    return value


@pytest.mark.parametrize("layout", list(_layouts()))
@pytest.mark.parametrize("name, ranks, call", CASES, ids=[case[0] for case in CASES])
def test_forms_of_one_operator_get_bitwise_one_result(name, ranks, call, layout):
    t, s = _layouts()[layout]
    results = [_canonical(call(t, s, FORMS[rank])) for rank in ranks]
    assert all(result == results[0] for result in results[1:]), name
