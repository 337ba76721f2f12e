"""Command-line front end.

Subcommands
    pinv      pseudoinverse of a matrix file, with the four defining residuals
    spectrum  eigenvalues, spectral radius, dominant vector when applicable
    classify  single A U | double A P R S: validation, class tag, checks
    solve     single A U b | double A P R S b: run the stationary iteration
    compare   regular-vs-weak | weak-vs-regular | weak-vs-weak on two
              double splittings of one matrix

Exit codes: 0 report produced (verdicts may still be negative), 2 an
out-of-range tolerance flag, else the error's code in ``_EXIT_CODES``: 2
unreadable or malformed input or an unwritable ``--out`` path, 3 numerical
failure, 4 invalid splitting (decomposition or subspace mismatch, or
square-corollary mode on a singular matrix).

Output is text by default; the text report is rendered from the one JSON
document ``--format json`` prints.  For ``spectrum``, ``classify`` and
``compare`` that document is the library report encoded field by field, with
four keys renamed (``_RENAMED``); ``--echo-inputs`` adds every input, vectors
as flat lists.  JSON has no Infinity or NaN, so the JSON form writes every
non-finite number as ``null``; the text report prints it as is.  Every
tolerance but ``rank_rel_cutoff`` is flag-overridable; that one has no flag,
so the CLI always takes the default rank cutoff, ``max(m, n) * eps``, and a
report made with another cutoff cannot be reproduced from the command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import json
import math
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
    HypothesisUnmetError,
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
    make_proper_splitting,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_INVALID_SPLITTING = 4

_THEOREMS = {t.name.lower().replace("_", "-"): t for t in TheoremId}

# error class -> exit code; main reports the first class an error is an instance of
_EXIT_CODES = {
    **dict.fromkeys((MatrixFormatError, NonFiniteError, ShapeMismatchError, OSError), EXIT_PARSE),
    **dict.fromkeys((DecompositionFailure, NotSquareError), EXIT_NUMERICAL),
    **dict.fromkeys((NotProperError, DecompositionMismatchError, DifferentAError, NotInvertibleError), EXIT_INVALID_SPLITTING),
}


def _num(x) -> str:
    """Render a float exactly as it would appear in the JSON output."""
    return json.dumps(float(x))


# JSON keys that cannot equal the report field they encode
_RENAMED = {"splitting_class": "class", "theorem_id": "theorem",
            "hypothesis_verdicts": "hypotheses", "agree": "equivalence_agrees"}


def _plain(x):
    """``x`` as JSON data: a dataclass as a dict of its fields in field order,
    keys renamed by ``_RENAMED``; an enum as its value; an array, tuple, list
    or dict item by item; a complex number as ``[re, im]``."""
    if dataclasses.is_dataclass(x):
        return {_RENAMED.get(f.name, f.name): _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


@functools.cache  # parse_args keeps no state in the parser, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propersplit",
        description="Proper splittings of rectangular matrices: classify, solve, compare.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    common.add_argument("--echo-inputs", action="store_true", help="include input matrices in JSON output")
    # each dest is the ToleranceConfig field the flag overrides
    common.add_argument("--tol-nonneg", dest="nonneg_slack", type=float, metavar="T", help="entrywise nonnegativity slack")
    common.add_argument("--tol-eq", dest="eq_abs_tol", type=float, metavar="T", help="matrix equality tolerance")
    common.add_argument("--tol-spectral", dest="spectral_tol", type=float, metavar="T", help="spectral radius tolerance")
    common.add_argument("--tol-solve", dest="solve_tol", type=float, metavar="T", help="solver step tolerance")
    common.add_argument("--max-iter", dest="max_iter", type=int, metavar="N", help="iteration cap")

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
    p.add_argument("--square-corollary", action="store_true", help="A must be square nonsingular, whose inverses the splittings already hold; the two theorems ordering P1^+ >= P2^+ add the R1 >= R2 check")

    return parser


def _config_from(args) -> ToleranceConfig:
    fields = (f.name for f in dataclasses.fields(ToleranceConfig))
    overrides = {name: getattr(args, name) for name in fields if getattr(args, name, None) is not None}
    return dataclasses.replace(DEFAULT_TOLERANCES, **overrides)


def _read_files(args, names: str) -> dict[str, np.ndarray]:
    """Read ``args.files`` as the named inputs; a lower-case name is a vector."""
    names = names.split()
    if len(args.files) != len(names):
        raise MatrixFormatError(f"expected {len(names)} files ({' '.join(names)}), got {len(args.files)}")
    return {
        name: (read_vector if name.islower() else read_matrix)(path)
        for name, path in zip(names, args.files)
    }


def cmd_pinv(args, cfg):
    a = read_matrix(args.matrix)
    x = pinv(a, cfg)
    labels = ("axa", "xax", "ax_symmetry", "xa_symmetry")
    doc = {
        "command": "pinv",
        "input": args.matrix,
        "rows": x.shape[0],
        "cols": x.shape[1],
        "entries": _plain(x),
        "penrose_residuals": dict(zip(labels, penrose_residuals(a, x))),
    }
    return doc, {"A": a}


def text_pinv(doc):
    comments = [f"pinv of {doc['input']}"] + [
        f"penrose residual {lab} = {_num(r)}" for lab, r in doc["penrose_residuals"].items()
    ]
    yield from format_matrix(doc["entries"], comments=comments).splitlines()


def cmd_spectrum(args, cfg):
    m = read_matrix(args.matrix)
    return {"command": "spectrum", "input": args.matrix, **_plain(eigenvalues(m, cfg))}, {"M": m}


def text_spectrum(doc):
    yield f"spectral radius: {_num(doc['spectral_radius'])}"
    yield "eigenvalues:"
    for re, im in doc["eigenvalues"]:
        yield f"  {_num(re)} {'+' if im >= 0 else '-'} {_num(abs(im))}j"
    if doc["dominant_vector"] is not None:
        yield "dominant vector (unit max entry): " + " ".join(_num(x) for x in doc["dominant_vector"])


def cmd_classify(args, cfg):
    inputs = _read_files(args, "A U" if args.kind == "single" else "A P R S")
    if args.kind == "single":
        s = make_proper_splitting(*inputs.values(), cfg)
        try:  # classifies s, and raises exactly when s is ProperOnly
            eq = check_semimonotone_equivalence(s, cfg)
        except HypothesisUnmetError:
            eq = None
        proj = check_projector_identities(s, cfg)
        equivalence = _plain(eq) if eq is not None else {}
        doc = {
            "command": "classify",
            "kind": "single",
            "class": equivalence.pop("class", SplittingClass.PROPER_ONLY.value),
            "projector_range_residual": proj.range_residual,
            "projector_rowspace_residual": proj.rowspace_residual,
            "projector_identities_pass": proj.passed,
            **equivalence,
        }
        return doc, inputs

    conv = check_convergence(make_pds(*inputs.values(), cfg), cfg)
    return {"command": "classify", "kind": "double", **_plain(conv)}, inputs


def text_classify(doc):
    if doc["kind"] == "single":
        yield "proper splitting: valid"
        yield f"class: {doc['class']}"
        yield (
            f"projector identity residuals: range {_num(doc['projector_range_residual'])}, "
            f"row space {_num(doc['projector_rowspace_residual'])}"
        )
        if "equivalence_agrees" in doc:
            yield (
                "three-way equivalence: "
                f"A^+>=0 {doc['a_pinv_nonneg']}, A^+V>=0 {doc['a_pinv_v_nonneg']}, "
                f"rho(U^+V)={_num(doc['iteration_radius'])} (<1: {doc['radius_below_one']}), "
                f"agree: {doc['equivalence_agrees']}"
            )
        return
    yield "proper double splitting: valid"
    yield f"class: {doc['class']}"
    yield f"rho(W) = {_num(doc['rho_w'])}"
    yield f"rho(P^+(R-S)) = {_num(doc['rho_induced'])}"
    yield f"semi-monotone (A^+ >= 0): {doc['semi_monotone']}"
    yield f"rho(W)<1 iff rho(P^+(R-S))<1 agrees: {doc['biconditional_agrees']}"
    yield f"convergence guaranteed by hypotheses: {doc['guaranteed_convergent']}"
    yield f"converges (rho(W) < 1): {doc['converges']}"


def cmd_solve(args, cfg):
    inputs = _read_files(args, "A U b" if args.kind == "single" else "A P R S b")
    *mats, b = inputs.values()
    if args.x0:
        inputs["x0"] = read_vector(args.x0)
    if args.x1:
        if args.kind == "single":
            raise MatrixFormatError("--x1 applies to the double scheme only")
        inputs["x1"] = read_vector(args.x1)
    x0, x1 = inputs.get("x0"), inputs.get("x1")
    if args.kind == "single":
        trace = solve_single(make_proper_splitting(*mats, cfg), b, x0, cfg, keep_iterates=args.trace)
    else:
        trace = solve_double(make_pds(*mats, cfg), b, x0, x1, cfg, keep_iterates=args.trace)
    doc = {
        "command": "solve",
        "kind": args.kind,
        "converged": trace.converged,
        "diverged": trace.diverged,
        "iterations_used": trace.iterations_used,
        "final_step_residual": trace.residual_history[-1] if trace.residual_history else 0.0,
        "distance_to_reference": trace.distance_to_reference,
        "limit": _plain(trace.limit),
        "reference_solution": _plain(trace.reference_solution),
        "x0_in_nullspace_v": trace.x0_in_nullspace_v,
    }
    if args.trace:
        doc["iterates"] = _plain(trace.iterates)
    return doc, inputs


def text_solve(doc):
    yield f"iterations: {doc['iterations_used']}"
    yield f"final step residual: {_num(doc['final_step_residual'])}"
    yield f"distance to A^+ b: {_num(doc['distance_to_reference'])}"
    yield f"converged: {doc['converged']}"
    yield f"diverged: {doc['diverged']}"
    yield f"x0 in nullspace of V: {doc['x0_in_nullspace_v']}"
    yield "limit: " + " ".join(_num(x) for x in doc["limit"])
    yield "reference A^+ b: " + " ".join(_num(x) for x in doc["reference_solution"])
    if "iterates" in doc:
        yield "iterates:"
        for k, it in enumerate(doc["iterates"]):
            yield f"  {k}: " + " ".join(_num(x) for x in it)


def cmd_compare(args, cfg):
    inputs = _read_files(args, "A P1 R1 S1 P2 R2 S2")
    a, p1, r1, s1, p2, r2, s2 = inputs.values()
    d1 = make_pds(a, p1, r1, s1, cfg)
    d2 = make_pds(a, p2, r2, s2, cfg)
    report = compare(_THEOREMS[args.theorem], d1, d2, cfg, square_corollary=args.square_corollary)
    return {"command": "compare", **_plain(report)}, inputs


def text_compare(doc):
    yield f"theorem: {doc['theorem']}"
    if doc["square_corollary"]:
        yield "mode: square corollary (classical inverse)"
    yield "hypotheses:"
    for h in doc["hypotheses"]:
        yield f"  [{'pass' if h['passed'] else 'FAIL'}] {h['label']} (residual {_num(h['residual'])})"
    yield f"branch used: {doc['branch_used']}"
    yield f"rho(W1) = {_num(doc['rho1'])}"
    yield f"rho(W2) = {_num(doc['rho2'])}"
    yield f"conclusion predicted: {doc['conclusion_predicted']}"
    yield f"conclusion observed (rho1 <= rho2 and rho2 < 1): {doc['conclusion_observed']}"
    for note in doc["notes"]:
        yield f"note: {note}"


# subcommand -> (report builder, text lines rendered from its JSON document)
_COMMANDS = {
    "pinv": (cmd_pinv, text_pinv),
    "spectrum": (cmd_spectrum, text_spectrum),
    "classify": (cmd_classify, text_classify),
    "solve": (cmd_solve, text_solve),
    "compare": (cmd_compare, text_compare),
}


def _finite(x):
    """``x`` with every non-finite float, at any depth, as None, which JSON
    writes as ``null``: JSON has no Infinity or NaN (``JSON.stringify``'s
    rule)."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


def _emit(args, doc, render, inputs) -> None:
    if args.format == "json":
        if args.echo_inputs:
            doc["inputs"] = _plain(inputs)
        payload = json.dumps(_finite(doc), indent=2, allow_nan=False) + "\n"
    else:
        payload = "\n".join(render(doc)) + "\n"
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
        build, render = _COMMANDS[args.command]
        doc, inputs = build(args, cfg)
        _emit(args, doc, render, inputs)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    return EXIT_OK


def entrypoint() -> None:  # console script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
