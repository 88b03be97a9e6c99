"""Command-line surface.

Every command reads workbench JSON files, runs the corresponding operation,
and prints a canonical JSON report (sorted keys, two-space indent) on
standard output.  Exit codes: 0 success, 1 a validator produced a witness
or a check failed, 2 usage or input errors, 3 an internal consistency check
failed.  Every error report carries ``error_kind``: ``"input"`` for usage
and input errors, ``"internal"`` for internal consistency failures.  Pass
--no-timing for byte-reproducible reports.

``run_command`` may be called any number of times in one process.  The
argument parser does not depend on the input, so it is built once; each
command is dispatched by name to ``cmd_<name>``, and reads, parses and
validates its files afresh.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
import time

from .algebra import (
    Witness,
    _one_validation,
    _refuse_witness,
    check_rota_baxter,
    is_homomorphism,
    star_product,
    validate_algebra,
    yau_twist,
    zero_rb,
)
from .bimodule import _rbf_action_scan, regular_bimodule, validate_bimodule
from .cochain import cohomology_dims, dd_zero_witness
from .deformation import (
    DeformationJet,
    NijenhuisFamily,
    check_jet,
    check_nijenhuis,
    psi_of_checked,
    rigidity_report,
)
from .errors import InternalCheckError, MalformedInputError, ParseError, WorkbenchError
from .extension import CocyclePair, build_extension, compare_extensions, extract_cocycle
from .gerstenhaber import algebra_with_product, mc_residual, mu_cochain
from .monoid import validate_monoid
from .rationals import Rat
from .rbf import RbfContext, chain_map_check, combined_kernel, rbfa_cohomology_dims
from .search import DEFAULT_CAP, search_rbf
from .serialization import WorkbenchFile, _fmt_family, parse_workbench, workbench_to_json

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _load(path: str) -> WorkbenchFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path) from None
    return parse_workbench(text)


def _need(wf: WorkbenchFile, field: str, block: str | None = None):
    """``wf``'s ``field``, refused when the file has no such block (``block``, by default ``field``)."""
    value = getattr(wf, field)
    if value is None:
        raise MalformedInputError(f"file has no {block or field} block")
    return value


def _context_from(wf: WorkbenchFile) -> RbfContext:
    a, rb = _need(wf, "algebra"), _need(wf, "rota_baxter")
    if wf.bimodule is not None:
        bim = wf.bimodule
        if bim.tmap is None:
            raise MalformedInputError("bimodule block lacks the t family")
    else:
        bim = regular_bimodule(a, rb)
    return RbfContext.validated(a, rb, bim)


def _witness_exit(out: dict, witness: Witness | None) -> tuple[dict, int]:
    """The report ``out`` and EXIT_OK, or, given a witness, ``out`` with it and EXIT_WITNESS."""
    if witness is None:
        return out, EXIT_OK
    out["witness"] = witness.to_json()
    return out, EXIT_WITNESS


def cmd_validate(args) -> tuple[dict, int]:
    wf = _load(args.file)
    checks = {}
    violation = validate_monoid(wf.monoid)
    if violation is not None:
        return {"checks": {"monoid": violation.describe()}}, EXIT_WITNESS
    checks["monoid"] = "ok"
    witness = None
    with _one_validation():  # a stage skips the scans that an earlier one passed
        if wf.algebra is not None:
            witness = validate_algebra(wf.algebra)
            checks["algebra"] = "ok" if witness is None else "witness"
        if witness is None and wf.algebra is not None and wf.rota_baxter is not None:
            witness = check_rota_baxter(wf.algebra, wf.rota_baxter)
            checks["rota_baxter"] = "ok" if witness is None else "witness"
        if witness is None and wf.bimodule is not None:
            witness = validate_bimodule(wf.bimodule)
            checks["bimodule"] = "ok" if witness is None else "witness"
            if witness is None and wf.bimodule.tmap is not None and wf.rota_baxter is not None:
                witness = _rbf_action_scan(wf.bimodule, wf.rota_baxter)  # its preconditions passed above
                checks["rbf_bimodule"] = "ok" if witness is None else "witness"
    return _witness_exit({"checks": checks}, witness)


def cmd_cohomology(args) -> tuple[dict, int]:
    wf = _load(args.file)
    a = _need(wf, "algebra")
    if args.complex == "alg":
        bim = wf.bimodule if wf.bimodule is not None else regular_bimodule(a)
        with _one_validation():  # the bimodule's validation skips the scans the algebra's passed
            witness = validate_algebra(a)
            if witness is not None:
                return {"witness": witness.to_json()}, EXIT_WITNESS
            report = cohomology_dims(bim, args.max_degree)
        return {"tables": {"alg": report.to_json()}}, EXIT_OK
    ctx = _context_from(wf)
    reports = rbfa_cohomology_dims(ctx, args.max_degree)
    if args.complex == "rbf":
        return {"tables": {"rbf": reports["rbf"].to_json()}}, EXIT_OK
    return {"tables": {name: rep.to_json() for name, rep in reports.items()}}, EXIT_OK


def cmd_mc_check(args) -> tuple[dict, int]:
    wf = _load(args.file)
    a = _need(wf, "algebra")
    candidate = mu_cochain(a)
    residual = mc_residual(a, candidate, check=False)
    witness = validate_algebra(a)
    is_zero = residual.is_zero()
    if is_zero != (witness is None):
        raise InternalCheckError("bracket square and validator disagree")
    return _witness_exit({"residual_zero": is_zero}, witness)


def cmd_star(args) -> tuple[dict, int]:
    wf = _load(args.file)
    a, rb = _need(wf, "algebra"), _need(wf, "rota_baxter")
    star = star_product(a, rb)
    _refuse_witness(validate_algebra(star), "derived product failed validation", InternalCheckError)
    out_wf = WorkbenchFile(wf.monoid, algebra=star, rota_baxter=rb)
    return {"output": workbench_to_json(out_wf)}, EXIT_OK


def cmd_yau_twist(args) -> tuple[dict, int]:
    wf = _load(args.file)
    a, twist_p = _need(wf, "algebra"), _need(wf, "twist_p", "twist")
    rb = wf.rota_baxter if wf.rota_baxter is not None else zero_rb(a)
    twisted, rb_out = yau_twist(a, rb, twist_p, wf.twist_q)
    witness = validate_algebra(twisted)
    rb_witness = check_rota_baxter(twisted, rb_out) if witness is None else None
    out_wf = WorkbenchFile(wf.monoid, algebra=twisted, rota_baxter=rb_out)
    return _witness_exit({"output": workbench_to_json(out_wf)}, witness or rb_witness)


def cmd_nijenhuis(args) -> tuple[dict, int]:
    wf = _load(args.file)
    a = _need(wf, "algebra")
    nf = NijenhuisFamily(_need(wf, "nijenhuis"))
    witness = check_nijenhuis(a, nf)
    if witness is not None:
        return {"nijenhuis": "witness", "witness": witness.to_json()}, EXIT_WITNESS
    _, psi_report = psi_of_checked(a, nf, witness)
    deformed = psi_report.deformed
    out_wf = WorkbenchFile(wf.monoid, algebra=deformed)
    out = {
        "nijenhuis": "ok",
        "deformed_valid": psi_report.deformed_valid,
        "homomorphism": is_homomorphism(nf.maps, deformed, a) is None,
        "psi_zero": psi_report.psi_zero,
        "output": workbench_to_json(out_wf),
    }
    return out, EXIT_OK


def cmd_deform_check(args) -> tuple[dict, int]:
    wf = _load(args.file)
    ctx = _context_from(wf)
    jet = _need(wf, "jet")
    if args.order is not None:
        if args.order > jet.order:
            raise MalformedInputError("requested order exceeds the jet's order")
        jet = DeformationJet(args.order, jet.mu_orders[: args.order], jet.r_orders[: args.order])
    report = check_jet(ctx, jet)
    out = {
        "equivariant": report.equivariant,
        "orders": [
            {"order": o.order, "associativity": o.associativity, "operator_identity": o.operator_identity}
            for o in report.orders
        ],
        "rigidity": rigidity_report(ctx).to_json(),
    }
    return out, EXIT_OK if report.all_ok() else EXIT_WITNESS


def cmd_extend(args) -> tuple[dict, int]:
    wf = _load(args.file)
    ctx = _context_from(wf)
    build = build_extension(ctx, _need(wf, "cocycle_pair"))
    out_wf = WorkbenchFile(
        wf.monoid,
        algebra=wf.algebra,
        rota_baxter=wf.rota_baxter,
        bimodule=wf.bimodule,
        extension=build.presentation,
    )
    out = {
        "valid": build.valid(),
        "is_cocycle": build.is_cocycle,
        "output": workbench_to_json(out_wf),
    }
    return _witness_exit(out, build.algebra_witness or build.rb_witness)


def cmd_extract_cocycle(args) -> tuple[dict, int]:
    wf = _load(args.file)
    pair, bim = extract_cocycle(_need(wf, "extension"))
    out_wf = WorkbenchFile(
        wf.monoid,
        algebra=wf.algebra,
        rota_baxter=wf.rota_baxter,
        bimodule=bim,
        cocycle_pair=pair,
    )
    return {"output": workbench_to_json(out_wf)}, EXIT_OK


def cmd_compare_ext(args) -> tuple[dict, int]:
    wf1 = _load(args.file1)
    wf2 = _load(args.file2)
    if wf1.extension is None or wf2.extension is None:
        raise MalformedInputError("both files need extension blocks")
    report = compare_extensions(wf1.extension, wf2.extension)
    out = {"cohomologous": report.cohomologous}
    if report.iso is not None:
        out["iso"] = _fmt_family(report.iso)
    return out, EXIT_OK if report.cohomologous else EXIT_WITNESS


def cmd_search_rbf(args) -> tuple[dict, int]:
    if re.search(r"[eE][-+]?\d", args.weight):  # Fraction would expand the exponent into all its digits
        raise MalformedInputError(f"--weight takes no exponent: {args.weight!r}")
    try:
        weight = Rat(args.weight)
    except (ValueError, ZeroDivisionError):
        raise MalformedInputError(f"--weight is not a rational number: {args.weight!r}") from None
    wf = _load(args.file)
    a = _need(wf, "algebra")
    witness = validate_algebra(a)
    if witness is not None:
        return {"witness": witness.to_json()}, EXIT_WITNESS
    hits = search_rbf(a, args.bound, weight, cap=args.cap)
    return {"count": len(hits), "families": [_fmt_family(rb.maps) for rb in hits]}, EXIT_OK


def cmd_selftest(args) -> tuple[dict, int]:
    """The invariant battery on one e1 context: its algebra and regular
    bimodule serve every check and trial, so each δ block, basis and
    constraint system is compiled once per call."""
    from . import samples
    from .cochain import random_equivariant

    if args.samples < 0:
        raise MalformedInputError(f"--samples must be non-negative, got {args.samples}")
    rng = random.Random(args.seed)
    results = {}
    ctx = samples.e1_rbf_context()
    e1, reg = ctx.algebra, ctx.bimodule
    results["e1_valid"] = validate_algebra(e1) is None
    results["dd_zero_e1"] = dd_zero_witness(reg, range(0, 3)) is None
    results["chain_map_e1"] = chain_map_check(ctx, 2) is None
    kers = combined_kernel(ctx, 2)
    results["kernel_dim_2"] = len(kers)
    built = [build_extension(ctx, CocyclePair(k.alg, k.rbf)).valid() for k in kers]
    results["kernel_extensions_valid"] = all(built)
    agreement = True
    for _ in range(args.samples):
        f = random_equivariant(reg, 2, rng)
        valid = validate_algebra(algebra_with_product(e1, f)) is None
        agreement &= mc_residual(e1, f, check=False).is_zero() == valid
    results["mc_equivalence_trials"] = args.samples
    results["mc_equivalence"] = agreement
    all_ok = all(v is True for k, v in results.items() if isinstance(v, bool))
    return {"results": results, "seed": args.seed}, EXIT_OK if all_ok else EXIT_WITNESS


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Each subcommand ``name`` runs the module function ``cmd_<name>`` (``-``
    read as ``_``), looked up by :func:`run_command` at call time.
    """
    parser = argparse.ArgumentParser(prog="bihomega", description=__doc__)
    parser.add_argument("--no-timing", action="store_true", help="omit the timing field")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate every block in a file")
    p.add_argument("file")

    p = sub.add_parser("cohomology", help="cohomology dimension tables")
    p.add_argument("file")
    p.add_argument("--complex", choices=("alg", "rbf", "rbfa"), default="alg")
    p.add_argument("--max-degree", type=int, default=2)

    p = sub.add_parser("mc-check", help="bracket-square test of the product family")
    p.add_argument("file")

    p = sub.add_parser("star", help="derived product from the operator family")
    p.add_argument("file")

    p = sub.add_parser("yau-twist", help="twist an untwisted algebra by map families")
    p.add_argument("file")

    p = sub.add_parser("nijenhuis", help="check a Nijenhuis family and its deformed product")
    p.add_argument("file")

    p = sub.add_parser("deform-check", help="order-by-order deformation identities")
    p.add_argument("file")
    p.add_argument("--order", type=int, default=None)

    p = sub.add_parser("extend", help="build an extension from a cocycle pair")
    p.add_argument("file")

    p = sub.add_parser("extract-cocycle", help="extract the classifying pair of an extension")
    p.add_argument("file")

    p = sub.add_parser("compare-ext", help="decide whether two extensions share a class")
    p.add_argument("file1")
    p.add_argument("file2")

    p = sub.add_parser("search-rbf", help="bounded search for operator families")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--weight", default="0")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--samples", type=int, default=25)

    return parser


def run_command(argv) -> tuple[dict, int]:
    """Dispatch a command line; returns (report, exit_code)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        command = next((arg for arg in argv if not arg.startswith("-")), "")
        if exc.code == 0:  # --help
            return {"command": command, "status": "ok"}, EXIT_OK
        return {"command": command, "status": "error", "error": "usage", "error_kind": "input"}, EXIT_ERROR
    started = time.perf_counter()
    report = {"command": args.command}
    try:
        payload, code = globals()["cmd_" + args.command.replace("-", "_")](args)
    except ParseError as exc:
        report.update(status="error", error=f"parse error: {exc}", error_kind="input")
        code = EXIT_ERROR
    except InternalCheckError as exc:
        report.update(status="error", error=f"internal consistency failure: {exc}", error_kind="internal")
        code = EXIT_INTERNAL
    except WorkbenchError as exc:
        report.update(status="error", error=str(exc), error_kind="input")
        code = EXIT_ERROR
    else:
        report.update(payload)
        report["status"] = "ok" if code == EXIT_OK else ("witness" if code == EXIT_WITNESS else "error")
    if not args.no_timing:
        report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    return report, code


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main() -> None:
    report, code = run_command(sys.argv[1:])
    sys.stdout.write(render_report(report))
    sys.exit(code)


if __name__ == "__main__":
    main()
