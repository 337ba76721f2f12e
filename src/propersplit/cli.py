"""Command-line front end.

Subcommands
    pinv      pseudoinverse of a matrix file, with the four defining residuals
    spectrum  eigenvalues, spectral radius, dominant vector when applicable
    classify  single A U | double A P R S: validation, class tag, checks
    solve     single A U b | double A P R S b: run the stationary iteration
    compare   regular-vs-weak | weak-vs-regular | weak-vs-weak on two
              double splittings of one matrix

Exit codes: 0 report produced (verdicts may still be negative), 2 unreadable
or malformed input, an out-of-range tolerance flag or an unwritable ``--out``
path, 3 numerical failure, 4 invalid splitting (decomposition or subspace
mismatch, or square-corollary mode on a singular matrix).

Output is text by default; ``--format json`` emits one JSON document with the
same numeric values.  All tolerances are flag-overridable so a report is
reproducible from the command line alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .comparison import TheoremId, compare
from .core import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    eigenvalues,
    penrose_residuals,
    pinv,
)
from .double import check_convergence, make_pds
from .errors import (
    DecompositionFailure,
    DecompositionMismatchError,
    DifferentAError,
    MatrixFormatError,
    NonFiniteError,
    NotInvertibleError,
    NotProperError,
    NotSquareError,
    ShapeMismatchError,
)
from .matrixfile import format_matrix, read_matrix, read_vector
from .solvers import solve_double, solve_single
from .splitting import (
    SplittingClass,
    check_projector_identities,
    check_semimonotone_equivalence,
    classify_single,
    make_proper_splitting,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_INVALID_SPLITTING = 4

_THEOREMS = {
    "regular-vs-weak": TheoremId.REGULAR_VS_WEAK,
    "weak-vs-regular": TheoremId.WEAK_VS_REGULAR,
    "weak-vs-weak": TheoremId.WEAK_VS_WEAK,
}


def _num(x) -> str:
    """Render a float exactly as it would appear in the JSON output."""
    return json.dumps(float(x))


def _matrix_entries(a) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(a, dtype=float)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propersplit",
        description="Proper splittings of rectangular matrices: classify, solve, compare.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    common.add_argument("--echo-inputs", action="store_true", help="include input matrices in JSON output")
    common.add_argument("--tol-nonneg", type=float, metavar="T", help="entrywise nonnegativity slack")
    common.add_argument("--tol-eq", type=float, metavar="T", help="matrix equality tolerance")
    common.add_argument("--tol-spectral", type=float, metavar="T", help="spectral radius tolerance")
    common.add_argument("--tol-solve", type=float, metavar="T", help="solver step tolerance")
    common.add_argument("--max-iter", type=int, metavar="N", help="iteration cap")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv", parents=[common], help="pseudoinverse of a matrix file")
    p.add_argument("matrix")

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues and spectral radius")
    p.add_argument("matrix")

    p = sub.add_parser("classify", parents=[common], help="validate and classify a splitting")
    p.add_argument("kind", choices=("single", "double"))
    p.add_argument("files", nargs="+", metavar="FILE", help="single: A U; double: A P R S")

    p = sub.add_parser("solve", parents=[common], help="run the stationary iteration")
    p.add_argument("kind", choices=("single", "double"))
    p.add_argument("files", nargs="+", metavar="FILE", help="single: A U b; double: A P R S b")
    p.add_argument("--x0", metavar="FILE", help="starting vector (default zero)")
    p.add_argument("--x1", metavar="FILE", help="second starting vector, double scheme only")
    p.add_argument("--trace", action="store_true", help="dump every iterate")

    p = sub.add_parser("compare", parents=[common], help="comparison theorem checker")
    p.add_argument("theorem", choices=sorted(_THEOREMS))
    p.add_argument("files", nargs=7, metavar="FILE", help="A P1 R1 S1 P2 R2 S2")
    p.add_argument("--square-corollary", action="store_true", help="use the classical inverse (A must be square nonsingular)")

    return parser


def _config_from(args) -> ToleranceConfig:
    overrides = {}
    if args.tol_nonneg is not None:
        overrides["nonneg_slack"] = args.tol_nonneg
    if args.tol_eq is not None:
        overrides["eq_abs_tol"] = args.tol_eq
    if args.tol_spectral is not None:
        overrides["spectral_tol"] = args.tol_spectral
    if args.tol_solve is not None:
        overrides["solve_tol"] = args.tol_solve
    if args.max_iter is not None:
        overrides["max_iter"] = args.max_iter
    return dataclasses.replace(DEFAULT_TOLERANCES, **overrides)


def cmd_pinv(args, cfg):
    a = read_matrix(args.matrix)
    x = pinv(a, cfg)
    res = penrose_residuals(a, x)
    labels = ("axa", "xax", "ax_symmetry", "xa_symmetry")
    doc = {
        "command": "pinv",
        "input": args.matrix,
        "rows": x.shape[0],
        "cols": x.shape[1],
        "entries": _matrix_entries(x),
        "penrose_residuals": dict(zip(labels, (float(r) for r in res))),
    }
    comments = [f"pinv of {args.matrix}"] + [
        f"penrose residual {lab} = {_num(r)}" for lab, r in zip(labels, res)
    ]
    text = format_matrix(x, comments=comments)
    return doc, text, {"A": a}


def cmd_spectrum(args, cfg):
    m = read_matrix(args.matrix)
    spectrum = eigenvalues(m, cfg)
    doc = {
        "command": "spectrum",
        "input": args.matrix,
        "eigenvalues": [[ev.real, ev.imag] for ev in spectrum.eigenvalues],
        "spectral_radius": spectrum.spectral_radius,
        "dominant_vector": None
        if spectrum.dominant_vector is None
        else [float(x) for x in spectrum.dominant_vector],
    }
    lines = [f"spectral radius: {_num(spectrum.spectral_radius)}", "eigenvalues:"]
    for ev in spectrum.eigenvalues:
        lines.append(f"  {_num(ev.real)} {'+' if ev.imag >= 0 else '-'} {_num(abs(ev.imag))}j")
    if spectrum.dominant_vector is not None:
        lines.append("dominant vector (unit max entry): " + " ".join(_num(x) for x in spectrum.dominant_vector))
    return doc, "\n".join(lines) + "\n", {"M": m}


def _class_line(tag: str) -> str:
    return f"class: {tag}"


def cmd_classify(args, cfg):
    if args.kind == "single":
        if len(args.files) != 2:
            raise MatrixFormatError("classify single needs exactly two files: A U")
        a = read_matrix(args.files[0])
        u = read_matrix(args.files[1])
        s = make_proper_splitting(a, u, cfg)
        tag = classify_single(s, cfg)
        proj = check_projector_identities(s, cfg)
        doc = {
            "command": "classify",
            "kind": "single",
            "class": tag.value,
            "projector_range_residual": proj.range_residual,
            "projector_rowspace_residual": proj.rowspace_residual,
            "projector_identities_pass": proj.passed,
        }
        lines = [
            "proper splitting: valid",
            _class_line(tag.value),
            f"projector identity residuals: range {_num(proj.range_residual)}, row space {_num(proj.rowspace_residual)}",
        ]
        if tag is not SplittingClass.PROPER_ONLY:
            eq = check_semimonotone_equivalence(s, cfg)
            doc.update(
                {
                    "a_pinv_nonneg": eq.a_pinv_nonneg,
                    "a_pinv_v_nonneg": eq.a_pinv_v_nonneg,
                    "iteration_radius": eq.iteration_radius,
                    "radius_below_one": eq.radius_below_one,
                    "equivalence_agrees": eq.agree,
                }
            )
            lines.append(
                "three-way equivalence: "
                f"A^+>=0 {eq.a_pinv_nonneg}, A^+V>=0 {eq.a_pinv_v_nonneg}, "
                f"rho(U^+V)={_num(eq.iteration_radius)} (<1: {eq.radius_below_one}), "
                f"agree: {eq.agree}"
            )
        return doc, "\n".join(lines) + "\n", {"A": a, "U": u}

    if len(args.files) != 4:
        raise MatrixFormatError("classify double needs exactly four files: A P R S")
    a, p, r, s_ = (read_matrix(f) for f in args.files)
    conv = check_convergence(make_pds(a, p, r, s_, cfg), cfg)
    doc = {
        "command": "classify",
        "kind": "double",
        "class": conv.splitting_class.value,
        "rho_w": conv.rho_w,
        "rho_induced": conv.rho_induced,
        "semi_monotone": conv.semi_monotone,
        "biconditional_agrees": conv.biconditional_agrees,
        "guaranteed_convergent": conv.guaranteed_convergent,
        "converges": conv.converges,
    }
    lines = [
        "proper double splitting: valid",
        _class_line(conv.splitting_class.value),
        f"rho(W) = {_num(conv.rho_w)}",
        f"rho(P^+(R-S)) = {_num(conv.rho_induced)}",
        f"semi-monotone (A^+ >= 0): {conv.semi_monotone}",
        f"rho(W)<1 iff rho(P^+(R-S))<1 agrees: {conv.biconditional_agrees}",
        f"convergence guaranteed by hypotheses: {conv.guaranteed_convergent}",
        f"converges (rho(W) < 1): {conv.converges}",
    ]
    return doc, "\n".join(lines) + "\n", {"A": a, "P": p, "R": r, "S": s_}


def _trace_doc(trace, with_iterates: bool):
    doc = {
        "converged": trace.converged,
        "diverged": trace.diverged,
        "iterations_used": trace.iterations_used,
        "final_step_residual": trace.residual_history[-1] if trace.residual_history else 0.0,
        "distance_to_reference": trace.distance_to_reference,
        "limit": [float(x) for x in trace.limit],
        "reference_solution": [float(x) for x in trace.reference_solution],
        "x0_in_nullspace_v": trace.x0_in_nullspace_v,
    }
    if with_iterates:
        doc["iterates"] = [[float(x) for x in it] for it in trace.iterates]
    return doc


def _trace_text(trace, with_iterates: bool) -> str:
    final_step = trace.residual_history[-1] if trace.residual_history else 0.0
    lines = [
        f"iterations: {trace.iterations_used}",
        f"final step residual: {_num(final_step)}",
        f"distance to A^+ b: {_num(trace.distance_to_reference)}",
        f"converged: {trace.converged}",
        f"diverged: {trace.diverged}",
        f"x0 in nullspace of V: {trace.x0_in_nullspace_v}",
        "limit: " + " ".join(_num(x) for x in trace.limit),
        "reference A^+ b: " + " ".join(_num(x) for x in trace.reference_solution),
    ]
    if with_iterates:
        lines.append("iterates:")
        for k, it in enumerate(trace.iterates):
            lines.append(f"  {k}: " + " ".join(_num(x) for x in it))
    return "\n".join(lines) + "\n"


def cmd_solve(args, cfg):
    if args.kind == "single":
        if len(args.files) != 3:
            raise MatrixFormatError("solve single needs exactly three files: A U b")
        a = read_matrix(args.files[0])
        u = read_matrix(args.files[1])
        b = read_vector(args.files[2])
        x0 = read_vector(args.x0) if args.x0 else None
        if args.x1:
            raise MatrixFormatError("--x1 applies to the double scheme only")
        s = make_proper_splitting(a, u, cfg)
        trace = solve_single(s, b, x0=x0, cfg=cfg)
        inputs = {"A": a, "U": u}
    else:
        if len(args.files) != 5:
            raise MatrixFormatError("solve double needs exactly five files: A P R S b")
        a, p, r, s_ = (read_matrix(f) for f in args.files[:4])
        b = read_vector(args.files[4])
        x0 = read_vector(args.x0) if args.x0 else None
        x1 = read_vector(args.x1) if args.x1 else None
        d = make_pds(a, p, r, s_, cfg)
        trace = solve_double(d, b, x0=x0, x1=x1, cfg=cfg)
        inputs = {"A": a, "P": p, "R": r, "S": s_}
    doc = {"command": "solve", "kind": args.kind}
    doc.update(_trace_doc(trace, args.trace))
    return doc, _trace_text(trace, args.trace), inputs


def cmd_compare(args, cfg):
    theorem = _THEOREMS[args.theorem]
    mats = [read_matrix(f) for f in args.files]
    a, p1, r1, s1, p2, r2, s2 = mats
    d1 = make_pds(a, p1, r1, s1, cfg)
    d2 = make_pds(a, p2, r2, s2, cfg)
    rep = compare(theorem, d1, d2, cfg, square_corollary=args.square_corollary)
    doc = {
        "command": "compare",
        "theorem": rep.theorem_id.value,
        "square_corollary": rep.square_corollary,
        "hypotheses": [
            {"label": v.label, "passed": v.passed, "residual": v.residual}
            for v in rep.hypothesis_verdicts
        ],
        "branch_used": rep.branch_used.value,
        "rho1": rep.rho1,
        "rho2": rep.rho2,
        "conclusion_predicted": rep.conclusion_predicted,
        "conclusion_observed": rep.conclusion_observed,
        "notes": list(rep.notes),
    }
    lines = [f"theorem: {rep.theorem_id.value}"]
    if rep.square_corollary:
        lines.append("mode: square corollary (classical inverse)")
    lines.append("hypotheses:")
    for v in rep.hypothesis_verdicts:
        mark = "pass" if v.passed else "FAIL"
        lines.append(f"  [{mark}] {v.label} (residual {_num(v.residual)})")
    lines.append(f"branch used: {rep.branch_used.value}")
    lines.append(f"rho(W1) = {_num(rep.rho1)}")
    lines.append(f"rho(W2) = {_num(rep.rho2)}")
    lines.append(f"conclusion predicted: {rep.conclusion_predicted}")
    lines.append(f"conclusion observed (rho1 <= rho2 and rho2 < 1): {rep.conclusion_observed}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    inputs = {"A": a, "P1": p1, "R1": r1, "S1": s1, "P2": p2, "R2": r2, "S2": s2}
    return doc, "\n".join(lines) + "\n", inputs


_COMMANDS = {
    "pinv": cmd_pinv,
    "spectrum": cmd_spectrum,
    "classify": cmd_classify,
    "solve": cmd_solve,
    "compare": cmd_compare,
}


def _emit(args, doc, text, inputs) -> None:
    if args.format == "json":
        if args.echo_inputs:
            doc["inputs"] = {name: _matrix_entries(m) for name, m in inputs.items()}
        payload = json.dumps(doc, indent=2) + "\n"
    else:
        payload = text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except ValueError as exc:  # a tolerance flag out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        doc, text, inputs = _COMMANDS[args.command](args, cfg)
        _emit(args, doc, text, inputs)
    except (MatrixFormatError, NonFiniteError, ShapeMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DecompositionFailure, NotSquareError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (
        NotProperError,
        DecompositionMismatchError,
        DifferentAError,
        NotInvertibleError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPLITTING
    return EXIT_OK


def entrypoint() -> None:  # console script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
