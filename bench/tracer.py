"""Span tracer installed from outside polarops.

``Tracer.installed()`` replaces every public function of the polarops
modules, wherever a ``polarops.*`` module binds it (module attributes and
module-level dicts such as ``suites.SUITES``), and ``numpy.linalg``'s
svd/eigh/eigvalsh/qr, with wrappers that record one span per call: name,
start, end, parent span and command id. Leaving the context puts every
original object back. Spans stay in memory in flat arrays until
``save`` writes them out.

Counting LAPACK calls by wrapping ``numpy.linalg`` needs no change inside
the library: the modules look up ``np.linalg.<name>`` at call time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = ("core", "decomp", "classify", "shifts", "sampling", "suites", "matrixio", "cli")
LAPACK = ("svd", "eigh", "eigvalsh", "qr")


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray, child_cost: float = 0.0
) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover,
    and minus ``child_cost`` per direct child.

    Spans of one thread nest strictly, so the children of a span cover
    disjoint parts of it and their durations add up. ``child_cost`` is the
    wrapper's own work around a child span (see ``Tracer.calibrate``),
    which would otherwise count as the parent's.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested] + child_cost, minlength=len(duration)
    )
    return duration - covered


def fold_into_callers(
    self_s: np.ndarray, names: np.ndarray, parent: np.ndarray, members
) -> np.ndarray:
    """Self times where a span named in ``members`` that was called by
    another member adds its self time to its caller's and keeps none.

    So each outermost member span holds the time of all the member work
    below it, minus what it spent in non-member calls.
    """
    folded = self_s.copy()
    is_member = np.isin(names, list(members))
    for index in np.flatnonzero(is_member)[::-1]:
        caller = parent[index]
        if caller >= 0 and is_member[caller]:
            folded[caller] += folded[index]
            folded[index] = 0.0
    return folded


class Tracer:
    """Records spans for calls into polarops and numpy.linalg."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.command = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._command_id = -1
        self._svd_inputs: set = set()
        self.svd_work = 0
        self.svd_repeats = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.call_cost = 0.0

    def calibrate(self) -> float:
        """Measure, and keep as ``call_cost``, the seconds a traced call
        adds to its caller outside the callee's span.

        That is the wrapper's bookkeeping before the start and after the end
        timestamp. It is taken as the median over seven batches of: the time
        of 20,000 traced calls to an empty function, minus the same untraced
        calls, minus the time inside their spans. Real calls pass arguments
        and cost a little more, so this is a lower estimate.
        """

        def empty():
            pass

        calls = 20000
        samples = []
        for _ in range(7):
            probe = Tracer()
            traced = probe._wrap("probe", empty)
            start = time.perf_counter()
            for _ in range(calls):
                empty()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            total = time.perf_counter() - start
            spans = probe.arrays()
            inside = float((spans["end"] - spans["start"]).sum())
            samples.append((total - bare - inside) / calls)
        self.call_cost = max(0.0, statistics.median(samples))
        return self.call_cost

    def begin_command(self, command_id: int) -> None:
        """Tag the following spans with ``command_id``; SVD repeats are
        counted within one command."""
        self._command_id = command_id
        self._svd_inputs = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _note_svd(self, args, kwargs) -> None:
        a = np.asarray(args[0] if args else kwargs["a"])
        m, n = a.shape[-2:]
        self.svd_work += int(np.prod(a.shape[:-2], dtype=np.int64)) * m * n * min(m, n)
        key = (a.shape, a.dtype.str, hashlib.blake2b(a.tobytes(), digest_size=16).digest())
        if key in self._svd_inputs:
            self.svd_repeats += 1
        else:
            self._svd_inputs.add(key)

    def _note_read(self, args, kwargs) -> None:
        # A missing file is the program's error to report, not the tracer's.
        with contextlib.suppress(OSError):
            self.bytes_read += os.path.getsize(args[0] if args else kwargs["path"])

    def _note_written(self, args, kwargs) -> None:
        self.bytes_written += os.path.getsize(args[0] if args else kwargs["path"])

    def _wrap(self, name: str, fn, before=None, after=None):
        name_id = self.name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name)
            self.command.append(self._command_id)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(time.perf_counter())
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs)
                return result
            finally:
                self.end[index] = time.perf_counter()
                stack.pop()

        return traced

    def _wrappers(self) -> dict[int, tuple[object, object]]:
        """``id(original) -> (original, wrapper)`` for every traced callable."""
        hooks = {
            "lapack.svd": (self._note_svd, None),
            "matrixio.read_matrix": (self._note_read, None),
            "matrixio.write_matrix": (None, self._note_written),
        }
        wrappers = {}
        targets = []
        for layer in LAYERS:
            module = sys.modules[f"polarops.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    targets.append((f"{layer}.{attr}", obj))
        targets.extend((f"lapack.{fn}", getattr(np.linalg, fn)) for fn in LAPACK)
        for name, obj in targets:
            before, after = hooks.get(name, (None, None))
            wrappers[id(obj)] = (obj, self._wrap(name, obj, before, after))
        return wrappers

    @contextlib.contextmanager
    def installed(self):
        """Trace calls inside the block; restore every original on exit."""
        wrappers = self._wrappers()
        containers = [vars(np.linalg)]
        for module_name, module in list(sys.modules.items()):
            if module_name == "polarops" or module_name.startswith("polarops."):
                namespace = vars(module)
                containers.append(namespace)
                containers.extend(v for v in namespace.values() if type(v) is dict)
        replaced: list[tuple[dict, str, object]] = []
        try:
            for container in containers:
                for key, value in list(container.items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        replaced.append((container, key, value))
                        container[key] = entry[1]
            yield self
        finally:
            for container, key, original in reversed(replaced):
                container[key] = original

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "command": np.frombuffer(self.command, dtype=np.intc).copy(),
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans, with the name table, as an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


# Per-layer metrics: (name, unit). Counts and times are per traced round.
_CORE = ("svd", "commutes", "range_projection", "fractional_power_psd", "herm_eig")
_DECOMP = (
    "polar_decompose",
    "verify_polar",
    "abs_value",
    "moore_penrose",
    "penrose_check",
    "mp_polar_parts",
)
_CLASSIFY = (
    "centered_order",
    "is_n_centered_definitional",
    "is_binormal",
    "product_polar",
    "binormal_equivalents",
    "mp_centered_check",
)
_SHIFTS = ("build_truncated", "predicted_polar_parts", "expected_commutator_pattern")
CLI_COMMANDS = ("polar", "mp", "classify", "counterexample", "verify-theorems")


def per_layer_names(suites: tuple[str, ...]) -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"core.lapack.{fn}_calls", "count") for fn in ("svd", "eigh", "eigvalsh")]
    out.append(("core.lapack.svd_work", "mnk-computed"))
    out.append(("core.svd.repeat_frac", "frac"))
    for fn in ("as_operator", *_CORE):
        out += [(f"core.{fn}.calls", "count"), (f"core.{fn}.self_s", "s")]
    for fn in _DECOMP:
        out += [(f"decomp.{fn}.calls", "count"), (f"decomp.{fn}.self_s", "s")]
    for fn in _CLASSIFY:
        out += [(f"classify.{fn}.calls", "count"), (f"classify.{fn}.self_s", "s")]
    out.append(("classify.oracle_share", "frac"))
    out += [(f"shifts.{fn}.self_s", "s") for fn in _SHIFTS]
    out.append(("sampling.self_s", "s"))
    out += [(f"suites.{suite}.self_s", "s") for suite in suites]
    out += [(f"matrixio.{fn}.self_s", "s") for fn in ("read_matrix", "write_matrix")]
    out += [("matrixio.bytes_read", "B"), ("matrixio.bytes_written", "B")]
    out += [(f"cli.{command}.self_s", "s") for command in CLI_COMMANDS]
    out.append(("trace.overhead_frac", "frac"))
    return out


def per_layer_values(
    tracer: Tracer,
    rounds: int,
    command_kinds: dict[int, str],
    suites: tuple[str, ...],
) -> dict[str, float]:
    """Per-layer metrics per traced round (all but ``trace.overhead_frac``).

    ``command_kinds`` maps command ids to CLI command names.
    """
    spans = tracer.arrays()
    names = spans["name"]
    self_s = self_times(spans["start"], spans["end"], spans["parent"], tracer.call_cost)
    duration = spans["end"] - spans["start"]
    size = len(tracer.names)
    calls = np.bincount(names, minlength=size)
    busy = np.bincount(names, weights=self_s, minlength=size)
    ids = tracer._name_ids

    def count(name: str) -> float:
        return float(calls[ids[name]]) / rounds if name in ids else 0.0

    def self_time(name: str) -> float:
        return float(busy[ids[name]]) / rounds if name in ids else 0.0

    out: dict[str, float] = {}
    for fn in ("svd", "eigh", "eigvalsh"):
        out[f"core.lapack.{fn}_calls"] = count(f"lapack.{fn}")
    out["core.lapack.svd_work"] = tracer.svd_work / rounds
    svd_calls = count("lapack.svd") * rounds
    out["core.svd.repeat_frac"] = tracer.svd_repeats / svd_calls if svd_calls else 0.0
    for layer, functions in (
        ("core", ("as_operator", *_CORE)),
        ("decomp", _DECOMP),
        ("classify", _CLASSIFY),
    ):
        for fn in functions:
            out[f"{layer}.{fn}.calls"] = count(f"{layer}.{fn}")
            out[f"{layer}.{fn}.self_s"] = self_time(f"{layer}.{fn}")

    order, oracle = ids.get("classify.centered_order"), ids.get("classify.is_n_centered_definitional")
    order_time = float(duration[names == order].sum()) if order is not None else 0.0
    if order_time > 0.0 and oracle is not None:
        parents = spans["parent"]
        inside = (names == oracle) & (parents >= 0)
        inside[inside] = names[parents[inside]] == order
        out["classify.oracle_share"] = float(duration[inside].sum()) / order_time
    else:
        out["classify.oracle_share"] = 0.0

    for fn in _SHIFTS:
        out[f"shifts.{fn}.self_s"] = self_time(f"shifts.{fn}")
    out["sampling.self_s"] = sum(
        self_time(name) for name in tracer.names if name.startswith("sampling.")
    )
    table = sys.modules["polarops.suites"].SUITES
    for suite in suites:
        out[f"suites.{suite}.self_s"] = self_time(f"suites.{table[suite].__name__}")
    # The helpers matrix_to_doc and doc_to_matrix count under the
    # write_matrix and read_matrix that called them.
    matrixio_ids = [ids[name] for name in tracer.names if name.startswith("matrixio.")]
    matrixio_self = fold_into_callers(self_s, names, spans["parent"], matrixio_ids)
    for fn in ("read_matrix", "write_matrix"):
        name_id = ids.get(f"matrixio.{fn}")
        out[f"matrixio.{fn}.self_s"] = (
            float(matrixio_self[names == name_id].sum()) / rounds if name_id is not None else 0.0
        )
    out["matrixio.bytes_read"] = tracer.bytes_read / rounds
    out["matrixio.bytes_written"] = tracer.bytes_written / rounds

    cli_ids = [i for i, name in enumerate(tracer.names) if name.startswith("cli.")]
    is_cli = np.isin(names, cli_ids)
    kind_of = np.array(
        [command_kinds.get(int(c), "") for c in spans["command"][is_cli]], dtype=object
    )
    cli_self = self_s[is_cli]
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = float(cli_self[kind_of == command].sum()) / rounds
    return out
