"""One declared public boundary (``core._boundary``).

Each public function of ``core``, ``decomp`` and ``classify`` that the
declaration describes checks its array operands once, at its entry: a call
makes one ``core._checked`` call per array operand, for a matrix and for a
4-D stack of operators, because inside those modules a public function
reaches another through its ``.kernel`` and never by name. Every declared
function refuses, with ``_checked``'s own text, each operand that its
declaration refuses: a non-finite entry, an empty axis, a number of axes it
does not allow and, where it is declared square, a non-square matrix.

Arrays formed inside a call are no longer checked again; where one of them
overflows, the call still raises a ``ValueError`` (``core._lapack`` refuses
non-finite input with ``numpy.linalg.LinAlgError``), with the texts pinned
below.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import polarops
from polarops import classify, core, decomp, matrixio, shifts

SRC = Path(__file__).resolve().parents[1] / "src" / "polarops"
MODULES = (core, decomp, classify)
DIRECT_SUM = (2, 3, 4)
OPERATORS = (2, 4)
MATRIX = (2,)
BLOCKS = (3,)

# name: (axes of each array operand, square, call of the operands). The
# second statement of each declaration; the test below checks that it
# names every declared function.
DECLARED = {
    "commutator": ((DIRECT_SUM, DIRECT_SUM), True, core.commutator),
    "commutator_norm": ((DIRECT_SUM, DIRECT_SUM), True, core.commutator_norm),
    "commutes": ((DIRECT_SUM, DIRECT_SUM), True, core.commutes),
    "svd": ((DIRECT_SUM,), False, core.svd),
    "herm_eig": ((MATRIX,), True, core.herm_eig),
    "is_hermitian": ((OPERATORS,), False, core.is_hermitian),
    "is_hermitian_psd": ((OPERATORS,), False, core.is_hermitian_psd),
    "fractional_power_psd": (
        (MATRIX,),
        False,
        lambda a: core.fractional_power_psd(a, 0.5),
    ),
    "range_projection": ((DIRECT_SUM,), False, core.range_projection),
    "equality_residual": ((DIRECT_SUM, DIRECT_SUM), False, core.equality_residual),
    "approx_equal": ((DIRECT_SUM, DIRECT_SUM), False, core.approx_equal),
    "abs_value": ((DIRECT_SUM,), False, decomp.abs_value),
    "polar_decompose": ((DIRECT_SUM,), False, decomp.polar_decompose),
    "moore_penrose": ((DIRECT_SUM,), False, decomp.moore_penrose),
    "mp_polar_parts": ((DIRECT_SUM,), True, decomp.mp_polar_parts),
    "is_binormal": ((OPERATORS,), True, classify.is_binormal),
    "centered_order": ((OPERATORS,), True, lambda a: classify.centered_order(a, 4)),
    "blockwise_centered_order": (
        (BLOCKS,),
        True,
        lambda a: classify.blockwise_centered_order(a, 1),
    ),
    "is_n_centered_definitional": (
        (MATRIX,),
        True,
        lambda a: classify.is_n_centered_definitional(a, 3),
    ),
    "product_polar": ((OPERATORS, OPERATORS), True, classify.product_polar),
    "polar_transfer": ((OPERATORS, OPERATORS), True, classify.polar_transfer),
    "aluthge": ((OPERATORS,), True, lambda a: classify.aluthge(a, 0.5, 1.5)),
    "binormal_equivalents": (
        (OPERATORS,),
        True,
        lambda a: classify.binormal_equivalents(a, [(0.5, 0.5), (1.0, 2.0)]),
    ),
    "mp_centered_check": (
        (OPERATORS,),
        True,
        lambda a: classify.mp_centered_check(a, 3),
    ),
}


def _public_functions():
    """(module, name, function) of each public function of the three
    modules."""
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value) and not isinstance(value, type):
                yield module, name, value


def test_the_package_exports_the_module_lists():
    """``polarops`` exports the ``__all__`` of its five modules, in order,
    each name as the module's own object: the module lists are the one list
    of public names."""
    modules = (core, decomp, classify, shifts, matrixio)
    assert polarops.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    for module in modules:
        for name in module.__all__:
            assert getattr(polarops, name) is getattr(module, name), name


def test_the_table_names_every_declared_function():
    declared = {
        name for _, name, value in _public_functions() if hasattr(value, "__wrapped__")
    }
    assert declared == set(DECLARED)
    for _, name, value in _public_functions():
        if name in declared:
            assert value.kernel is value.__wrapped__, name


def _operands(axes: tuple, ndim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A positive definite 3x3 operand per entry of ``axes`` in ``ndim``
    axes (a 4-D stack holds two operators): normal, so that every route of
    a centered walk runs to its last power, and with fractional powers."""
    shape = {2: (3, 3), 3: (1, 3, 3), 4: (2, 1, 3, 3)}[ndim]
    out = []
    for _ in axes:
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        d = np.diag(rng.uniform(1.0, 2.0, 3))
        out.append(np.broadcast_to(q @ d @ q.conj().T, shape).copy())
    return out


def _defective(a: np.ndarray, defect: str, ndim: int) -> np.ndarray:
    """``a`` with ``defect``: a non-finite entry, an empty axis, a non-square
    matrix, or ``ndim`` axes."""
    if defect == "non-finite":
        a = a.copy()
        a[(0,) * a.ndim] = np.nan
        return a
    if defect == "empty":
        return a[..., :0, :]
    if defect == "non-square":
        return a[..., :2]
    return a.reshape((1,) * (ndim - 2) + a.shape[-2:]) if ndim > 1 else a.reshape(-1)


def _forms(axes: tuple) -> tuple:
    """The numbers of axes of the operands a declaration ``axes`` is called
    with: a matrix and a 4-D stack where it takes them, else its 3-D block
    stack."""
    return tuple(ndim for ndim in (2, 4) if ndim in axes) or axes


def _defects(axes: tuple, square: bool):
    """(defect, form ndim, ndim of the defect) of every case that the
    declaration ``axes``, ``square`` refuses."""
    forms = _forms(axes)
    cases = [(defect, ndim, ndim) for defect in ("non-finite", "empty") for ndim in forms]
    if square:
        cases += [("non-square", ndim, ndim) for ndim in forms]
    cases += [("axes", forms[0], ndim) for ndim in (1, 2, 3, 4, 5) if ndim not in axes]
    return cases


@pytest.mark.parametrize("name", list(DECLARED))
def test_each_refused_operand_raises_the_text_of_checked(name):
    axes, square, call = DECLARED[name]
    rng = np.random.default_rng(23)
    for defect, form, ndim in _defects(axes[0], square):
        for position in range(len(axes)):
            operands = _operands(axes, form, rng)
            bad = _defective(operands[position], defect, ndim)
            operands[position] = bad
            with pytest.raises(ValueError) as expected:
                core._checked(bad, axes[position], square)
            with pytest.raises(ValueError) as raised:
                call(*operands)
            case = f"{name}: {defect} operand {position} in {form}-D, {ndim} axes"
            assert type(raised.value) is ValueError, case
            assert str(raised.value) == str(expected.value), case


def _prepared(name: str, operands: list[np.ndarray]):
    """A call of the public function ``name`` on ``operands``, as a
    function of no arguments; what it needs besides them (polar parts, a
    candidate inverse) is formed here, before the call."""
    t, s = operands
    if name in DECLARED:
        axes, _, call = DECLARED[name]
        return lambda: call(*operands[: len(axes)])
    if name == "verify_polar":
        parts = decomp.polar_decompose(t)
        return lambda: decomp.verify_polar(t, parts)
    if name == "penrose_check":
        x = decomp.moore_penrose(t)
        return lambda: decomp.penrose_check(t, x)
    if name == "commutator_threshold":
        return lambda: core.commutator_threshold(t, s)
    return lambda: getattr(core, name)(t)


# Every public function of the three modules that takes operators, the
# ``core._checked`` calls it makes (one per array operand, but three for
# ``verify_polar``, which checks ``t`` and its two parts, and none for the
# functions that take unchecked numeric input), and the forms it takes: a
# matrix and, where it takes one, a 4-D stack, or a 3-D block stack.
CHECKS = [
    *[(name, len(axes), _forms(axes[0])) for name, (axes, _, _) in DECLARED.items()],
    ("as_operator", 1, (2,)),
    ("fro_norm", 0, (2, 4)),
    ("commutator_threshold", 0, (2, 4)),
    ("verify_polar", 3, (2, 4)),
    ("penrose_check", 2, (2,)),
]


def test_checks_name_every_public_function_that_takes_operators():
    names = {name for _, name, _ in _public_functions()}
    spectral = {"numerical_rank", "rank_margin", "polar_tolerance"}
    assert {name for name, _, _ in CHECKS} == names - spectral


@pytest.mark.parametrize(
    "name, count, ndim",
    [(name, count, ndim) for name, count, forms in CHECKS for ndim in forms],
)
def test_each_array_operand_is_checked_once(monkeypatch, name, count, ndim):
    call = _prepared(name, _operands((OPERATORS, OPERATORS), ndim, np.random.default_rng(5)))
    calls = []
    checked = core._checked

    def counted(*args, **kwargs):
        calls.append(args)
        return checked(*args, **kwargs)

    # classify imports no _checked: its entries are all declared.
    for module in MODULES:
        if hasattr(module, "_checked"):
            monkeypatch.setattr(module, "_checked", counted)
    call()
    assert len(calls) == count


@pytest.mark.parametrize("ndim", [2, 4])
def test_a_held_inverse_is_lifted_with_its_operand(monkeypatch, ndim):
    # mp_centered_check's pinv= is lifted as its other held parts are: a
    # matrix's inverse and a stack's give the reports of the call that
    # forms the inverse itself, and the held inverse is not checked. The
    # operand is normal, so its reports check pinv(T^k) = pinv^k up to
    # k = 3, and another held inverse gives other reports.
    (t,) = _operands((OPERATORS,), ndim, np.random.default_rng(8))
    expected = classify.mp_centered_check(t, 3)
    pinv = decomp.moore_penrose(t)
    calls = []
    checked = core._checked

    def counted(*args, **kwargs):
        calls.append(args)
        return checked(*args, **kwargs)

    monkeypatch.setattr(core, "_checked", counted)
    assert classify.mp_centered_check(t, 3, pinv=pinv) == expected
    assert len(calls) == 1
    assert classify.mp_centered_check(t, 3, pinv=2 * pinv) != expected


def test_no_declared_function_is_called_by_name_inside_the_three_modules():
    # The public functions that carry a kernel: the declared ones and
    # verify_polar.
    names = {name for _, name, value in _public_functions() if hasattr(value, "kernel")}
    assert set(DECLARED) | {"verify_polar"} == names
    calls = [
        f"{module.__name__}:{node.lineno} {node.func.id}"
        for module in MODULES
        for node in ast.walk(ast.parse((SRC / f"{module.__name__.split('.')[-1]}.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in names
    ]
    assert not calls, calls


_RNG = np.random.default_rng(0)
_G = _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))

# The public calls whose error text changed when arrays formed inside a
# call stopped being checked again: each raised ``_checked``'s "operator
# entries must be finite" on the array that overflowed. Each input is
# finite; what overflows is named first.
_SVD_REFUSED = "svd of a matrix with entries that are not finite"
OVERFLOWS = [
    # T S and |T| |S*|, entries about 1e400.
    ("product_polar", lambda: classify.product_polar(1e200 * _G, 1e200 * _G), _SVD_REFUSED),
    ("polar_transfer", lambda: classify.polar_transfer(1e200 * _G, 1e200 * _G), _SVD_REFUSED),
    # |T|: its largest singular value, 2e308, overflows; so does the
    # difference of |T| and its adjoint.
    (
        "aluthge",
        lambda: classify.aluthge(np.full((2, 2), 1e308), 0.5, 0.5),
        "fractional powers require a Hermitian input",
    ),
    # The transform |T|^2 U |T|^2, entries about 1e400.
    (
        "binormal_equivalents",
        lambda: classify.binormal_equivalents(1e100 * _G, [(2.0, 2.0)]),
        _SVD_REFUSED,
    ),
    # pinv(T), whose entry 1e310 overflows.
    (
        "mp_centered_check",
        lambda: classify.mp_centered_check(np.diag([1e-300, 1e-310]), 2),
        _SVD_REFUSED,
    ),
]


@pytest.mark.parametrize("name, call, text", OVERFLOWS, ids=[case[0] for case in OVERFLOWS])
def test_an_overflow_inside_a_call_still_raises(name, call, text):
    with np.errstate(all="ignore"), pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == text
