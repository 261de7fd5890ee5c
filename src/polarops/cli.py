"""Command-line surface: decomposition, classification, shift generation,
and the randomized verification runner.

Commands:

* ``polar IN``: polar-decompose a matrix file, write the factor and modulus,
  report the contract residuals.
* ``mp IN``: Moore-Penrose inverse, the four defining residuals, and (square
  input) the polar decomposition of the inverse through the adjoint factor.
* ``classify IN``: centered order by the commutator criterion with the
  definitional cross-check and binormality.
* ``counterexample``: generate the paper's truncated block shift of
  centered order n and certify it in 3x3 block arithmetic. The matrix
  written is that operator rounded to doubles: binormal, and n-centered
  only to within the tolerance.
* ``verify-theorems``: run seeded property suites.

``main`` opens and renders every run: it builds the ``ToleranceConfig``
from ``--rank-tol``/``--zero-tol``/``--eq-tol`` and the ``RunReport`` with
the command echo, calls the command, which only fills that report, then
prints it. A bad tolerance exits 2 before any file is read.

Reports are plain text, one machine-readable record per check, no
timestamps, so identical flags and seed give byte-identical output. Exit
status: 0 when the overall verdict passes, 1 when any check fails, 2 for
usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

from .classify import centered_order, is_binormal
from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _inverse_svd,
    numerical_rank,
    rank_margin,
    svd,
)
from .decomp import (
    PolarCheck,
    moore_penrose,
    mp_polar_parts,
    penrose_check,
    polar_decompose,
    polar_tolerance,
    verify_polar,
)
from .matrixio import read_matrix, write_matrix
from .shifts import (
    ShiftSpec,
    build_truncated,
    certify_blockwise,
    pattern_mismatches,
    subdiagonal_blocks,
    verify_predicted_structure,
)
from .suites import SUITES, CheckRecord, run_suite

__all__ = ["RunReport", "main"]


@dataclass
class RunReport:
    """Plain-text run report: command echo, tolerances, informational
    values, and named checks whose conjunction is the verdict."""

    command: str
    tolerances: ToleranceConfig
    values: list[tuple[str, str]] = field(default_factory=list)
    checks: list[CheckRecord] = field(default_factory=list)
    margin: float | None = None

    def add_value(self, name: str, value) -> None:
        self.values.append((name, str(value)))

    @property
    def verdict(self) -> bool:
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        cfg = self.tolerances
        lines = [
            f"command: {self.command}",
            "tolerances: "
            f"rank_rel_tol={cfg.rank_rel_tol:g} "
            f"zero_rel_tol={cfg.zero_rel_tol:g} "
            f"equality_rel_tol={cfg.equality_rel_tol:g}",
        ]
        if self.margin is not None:
            lines.append(f"rank_margin: {self.margin:.6e}")
        lines.extend(f"value {name} {value}" for name, value in self.values)
        lines.extend(
            f"check {check.name} residual={check.residual:.6e} "
            f"{'pass' if check.passed else 'fail'}"
            for check in self.checks
        )
        lines.append(f"verdict: {'pass' if self.verdict else 'fail'}")
        return "\n".join(lines)


def _polar_records(check: PolarCheck, cfg: ToleranceConfig, prefix: str) -> list[CheckRecord]:
    """The residuals of a ``verify_polar`` check, each against its
    ``polar_tolerance``, named with ``prefix``."""
    return [
        CheckRecord.bounded(prefix + name, residual, polar_tolerance(name, cfg))
        for name, residual in check.residuals.items()
    ]


def cmd_polar(args: argparse.Namespace, report: RunReport) -> None:
    cfg = report.tolerances
    t = read_matrix(args.input)
    parts = polar_decompose(t, cfg)
    check = verify_polar(t, parts, cfg)

    prefix = args.out if args.out else str(Path(args.input).with_suffix(""))
    write_matrix(f"{prefix}.u.json", parts.isometry)
    write_matrix(f"{prefix}.p.json", parts.modulus)

    report.margin = rank_margin(parts.singular_values, cfg)
    report.add_value("shape", "x".join(str(n) for n in t.shape))
    report.add_value("rank", parts.rank)
    report.add_value("factor_file", f"{prefix}.u.json")
    report.add_value("modulus_file", f"{prefix}.p.json")
    report.checks += _polar_records(check, cfg, "")


def cmd_mp(args: argparse.Namespace, report: RunReport) -> None:
    cfg = report.tolerances
    t = read_matrix(args.input)
    decomp = svd(t)  # the one factorization of T: pinv, margin, inverse polar
    pinv = moore_penrose(t, cfg, decomp=decomp)
    out = args.out if args.out else str(Path(args.input).with_suffix("")) + ".pinv.json"
    write_matrix(out, pinv)

    report.margin = rank_margin(decomp.singular_values, cfg)
    report.add_value("shape", "x".join(str(n) for n in t.shape))
    report.add_value("inverse_file", out)
    penrose = penrose_check(t, pinv, cfg)
    report.checks += [
        CheckRecord.bounded(name, residual, cfg.equality_rel_tol)
        for name, residual in zip(
            ("txt_minus_t", "xtx_minus_x", "tx_hermitian", "xt_hermitian"),
            penrose.residuals,
        )
    ]
    if t.shape[0] == t.shape[1]:
        # The SVD of pinv, read off that of T at the rank of pinv, and
        # dropped once its modulus is formed.
        rank = numerical_rank(decomp.singular_values, cfg)
        inverse_parts = mp_polar_parts(
            t, cfg, decomp=decomp, inverse_decomp=_inverse_svd(decomp, rank)
        )
        inverse_check = verify_polar(pinv, inverse_parts, cfg)
        report.checks += _polar_records(inverse_check, cfg, "inverse_polar_")


def cmd_classify(args: argparse.Namespace, report: RunReport) -> None:
    cfg = report.tolerances
    if args.max_n < 2:
        # Binormality is centered order 2; a lower bound cannot decide it.
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    t = read_matrix(args.input)
    result = centered_order(t, args.max_n, cfg)
    binormal_flag, binormal_norm = is_binormal(t, cfg)

    report.margin = result.rank_margin
    report.add_value("dimension", result.dimension)
    report.add_value("max_order_checked", result.max_order_checked)
    report.add_value("verified_order", result.verified_order)
    report.add_value("binormal", str(result.binormal).lower())
    for k, norm in enumerate(result.commutator_norms, start=1):
        report.add_value(f"commutator_norm_k{k}", f"{norm:.6e}")
    report.checks += [
        CheckRecord.count("oracle_agreement", int(not result.oracle_agrees)),
        CheckRecord(
            "binormal_consistency", float(binormal_norm), binormal_flag == result.binormal
        ),
    ]


def cmd_counterexample(args: argparse.Namespace, report: RunReport) -> None:
    cfg = report.tolerances
    spec = ShiftSpec.from_recipe(args.n, args.blocks)
    t = build_truncated(spec)
    out = args.out if args.out else f"shift-n{spec.n}.json"
    # The matrix written is checked as each certifier's public entry would
    # check it, in two scans: write_matrix's check stands for their
    # as_operator (finite entries), and the cut's count of its nonzero
    # entries for their check that nothing lies off the first block
    # subdiagonal. Both certificates are of the blocks cut once.
    write_matrix(out, t)
    blocks = subdiagonal_blocks.kernel(t)

    result = certify_blockwise.kernel(blocks, spec.blocks - 1, cfg)
    structure = verify_predicted_structure.kernel(blocks, spec, cfg)
    mismatches = pattern_mismatches(spec, result.commute_decisions())

    report.margin = result.rank_margin
    report.add_value("target_order", spec.n)
    report.add_value("blocks", spec.blocks)
    report.add_value("dimension", spec.dimension)
    report.add_value("weights", ",".join(f"{w:g}" for w in spec.g))
    report.add_value("matrix_file", out)
    report.add_value("verified_order", result.verified_order)
    for k, norm in enumerate(result.commutator_norms[: spec.n], start=1):
        report.add_value(f"commutator_norm_k{k}", f"{norm:.6e}")
    report.checks += [
        CheckRecord.count("order_exact", abs(result.verified_order - spec.n)),
        CheckRecord.count("oracle_agreement", int(not result.oracle_agrees)),
        CheckRecord("predicted_structure", float(structure.worst()), structure.ok),
        CheckRecord.count("pattern_consistency", mismatches),
    ]


def cmd_verify_theorems(args: argparse.Namespace, report: RunReport) -> None:
    if not 2 <= args.dim <= 12:
        raise ValueError(f"--dim must be in [2, 12], got {args.dim}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    results = run_suite(args.suite, args.seed, args.dim, args.trials, report.tolerances)

    report.add_value("seed", args.seed)
    report.add_value("dim", args.dim)
    report.add_value("trials", args.trials)
    for result in results:
        report.add_value(f"{result.name}_trials", result.trials)
        report.checks += [
            replace(record, name=f"{result.name}:{record.name}") for record in result.records
        ]


# The command functions by sub-command name, looked up on each call rather
# than held by the parser built once, so that a function replaced at run
# time (say, by a tracing wrapper) is the one called.
_COMMANDS = {
    "polar": cmd_polar,
    "mp": cmd_mp,
    "classify": cmd_classify,
    "counterexample": cmd_counterexample,
    "verify-theorems": cmd_verify_theorems,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` returns a fresh
    ``Namespace`` on each call, so no call sees another's options."""
    parser = argparse.ArgumentParser(
        prog="polarops",
        description=(
            "Polar decompositions, Moore-Penrose inverses, and centered/"
            "binormal classification of dense complex matrices."
        ),
    )
    tolerance_parent = argparse.ArgumentParser(add_help=False)
    tolerance_parent.add_argument(
        "--rank-tol",
        type=float,
        default=DEFAULT_TOLERANCES.rank_rel_tol,
        help="relative singular-value cutoff for rank decisions",
    )
    tolerance_parent.add_argument(
        "--zero-tol",
        type=float,
        default=DEFAULT_TOLERANCES.zero_rel_tol,
        help="relative threshold for commutator/PSD vanishing tests",
    )
    tolerance_parent.add_argument(
        "--eq-tol",
        type=float,
        default=DEFAULT_TOLERANCES.equality_rel_tol,
        help="relative threshold for matrix equality tests",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    polar = sub.add_parser(
        "polar",
        parents=[tolerance_parent],
        help="polar decomposition of a matrix file",
    )
    polar.add_argument("input", help="matrix file (JSON)")
    polar.add_argument(
        "--out", default=None, help="output prefix for the .u.json/.p.json files"
    )

    mp = sub.add_parser(
        "mp",
        parents=[tolerance_parent],
        help="Moore-Penrose inverse of a matrix file",
    )
    mp.add_argument("input", help="matrix file (JSON)")
    mp.add_argument("--out", default=None, help="output path for the inverse")

    classify = sub.add_parser(
        "classify",
        parents=[tolerance_parent],
        help="centered order and binormality of a square matrix file",
    )
    classify.add_argument("input", help="matrix file (JSON), square")
    classify.add_argument(
        "--max-n", type=int, default=6, help="largest centered order to check"
    )

    counter = sub.add_parser(
        "counterexample",
        parents=[tolerance_parent],
        help="generate and certify an n-centered block shift (n-centered "
        "to within the tolerance, as its entries are rounded)",
    )
    counter.add_argument(
        "--n", type=int, required=True, help="target centered order (>= 2)"
    )
    counter.add_argument(
        "--blocks",
        type=int,
        default=None,
        help="number of 3x3 block positions (default n+3, minimum n+2)",
    )
    counter.add_argument("--out", default=None, help="output path for the matrix")

    verify = sub.add_parser(
        "verify-theorems",
        parents=[tolerance_parent],
        help="run randomized property suites",
    )
    verify.add_argument(
        "--suite",
        default="all",
        choices=sorted([*SUITES, "all"]),
        help="which suite to run",
    )
    verify.add_argument("--seed", type=int, default=0, help="random seed")
    verify.add_argument(
        "--dim", type=int, default=4, help="largest operator dimension (2..12)"
    )
    verify.add_argument(
        "--trials", type=int, default=50, help="number of random trials"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    try:
        tolerances = ToleranceConfig(
            rank_rel_tol=args.rank_tol, zero_rel_tol=args.zero_tol, equality_rel_tol=args.eq_tol
        )
        report = RunReport("polarops " + " ".join(argv), tolerances)
        _COMMANDS[args.command](args, report)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
