"""Command-line interface.

Every command reads JSON files in the formats of the owning modules,
prints a report (text by default, machine-readable with --format json)
and uses the exit code contract: 0 for success/yes, 1 for a well-posed
no or failed check, 2 for malformed input, 3 for an internal failure (out
of memory, or an internal consistency check that failed).  Malformed input
and internal failures are reported as one "error: ..." line on stderr, not
as a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import serialize
from .bicomodule import CoalgebraMismatch, cotensor, validate_bicomodule
from .exactlin import DimensionMismatch, Subspace
from .coalgebra import (
    CoalgebraMap,
    NotBicomoduleMap,
    NotCoalgebraMap,
    NotSubcoalgebra,
    coradical,
    subcoalgebra_on,
    validate_coalgebra,
    wedge_filtration,
)
from .cohomology import (
    NotACocycle,
    cohomology,
    hochschild_extension,
    is_coseparable,
    is_formally_smooth,
    trivialize_extension,
)
from .cotensor import (
    NicholsViolated,
    TruncationTooSmall,
    build_iterative,
    build_truncated,
    graded_limit_check,
    universal_map,
    wedge_recovery_check,
)
from .quiver import MismatchReport, ParseError, deconcatenation_oracle, oracle_compare, parse_quiver
from .serialize import FormatError


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


class Report:
    def __init__(self, command):
        self.command = list(command)
        self.status = None
        self.witnesses = {}
        self.result = None
        self._t0 = time.monotonic()

    def finish(self, status):
        self.status = status
        self.timing_ms = round((time.monotonic() - self._t0) * 1000, 3)
        return self

    def to_obj(self):
        obj = {
            "command": self.command,
            "status": self.status,
            "witnesses": self.witnesses,
            "timing_ms": self.timing_ms,
        }
        if self.result is not None:
            obj["result"] = self.result
        return obj

    def render_text(self):
        lines = [f"command: {' '.join(self.command)}", f"status: {self.status}"]
        for key, val in self.witnesses.items():
            lines.append(f"{key}: {serialize.dumps(val).strip()}")
        if self.result is not None:
            lines.append(f"result: {serialize.dumps(self.result).strip()}")
        lines.append(f"timing_ms: {self.timing_ms}")
        return "\n".join(lines)


def _load(path):
    if not os.path.exists(path):
        raise CliError(f"no such file: {path}", 2)
    try:
        return serialize.load_json(path)
    except FormatError as exc:
        raise CliError(str(exc), 2)


def _load_coalgebra(path):
    try:
        return serialize.coalgebra_from_obj(_load(path))
    except (FormatError, DimensionMismatch) as exc:
        raise CliError(f"{path}: {exc}", 2)


def _require_axioms(path, kind, report):
    """Exit 1 naming every failed axiom of a loaded structure."""
    failures = report.failures()
    if failures:
        details = "; ".join(str(f) for f in failures)
        raise CliError(f"{path}: not a {kind}: {details}", 1)


def _load_valid_coalgebra(path):
    """A loaded coalgebra whose axioms hold; otherwise exit 1 naming the failure."""
    c = _load_coalgebra(path)
    _require_axioms(path, "coalgebra", validate_coalgebra(c))
    return c


def _require_nonnegative(value: int, flag: str):
    if value < 0:
        raise CliError(f"{flag} must be nonnegative, got {value}", 2)


def _load_bicomodule(path):
    try:
        return serialize.bicomodule_from_obj(_load(path), base_dir=os.path.dirname(path))
    except (FormatError, DimensionMismatch) as exc:
        raise CliError(f"{path}: {exc}", 2)


def _load_valid_bicomodule(path):
    """A loaded bicomodule whose axioms hold; otherwise exit 1 naming the failure."""
    m = _load_bicomodule(path)
    _require_axioms(path, "bicomodule", validate_bicomodule(m))
    return m


def _load_matrix(path):
    try:
        return serialize.matrix_from_obj(_load(path))
    except (FormatError, DimensionMismatch) as exc:
        raise CliError(f"{path}: {exc}", 2)


def _emit(report: Report, payload, out_path):
    if out_path:
        serialize.save_json(out_path, payload)
        report.witnesses["output"] = out_path
    else:
        report.result = payload


def cmd_validate(args, report):
    obj = _load(args.file)
    if not isinstance(obj, dict):
        raise CliError(f"{args.file}: not a structure object", 2)
    try:
        if {"rho_l", "rho_r"} <= set(obj):
            value = serialize.bicomodule_from_obj(obj, base_dir=os.path.dirname(args.file))
            result = validate_bicomodule(value)
        elif {"delta", "epsilon"} <= set(obj):
            result = validate_coalgebra(serialize.coalgebra_from_obj(obj))
        else:
            raise CliError(f"{args.file}: neither a coalgebra nor a bicomodule", 2)
    except (FormatError, DimensionMismatch) as exc:
        raise CliError(f"{args.file}: {exc}", 2)
    report.witnesses["checks"] = [
        {"axiom": c.axiom, "ok": c.ok, "witness": [str(w) for w in (c.witness or [])]}
        for c in result.checks
    ]
    report.finish("pass" if result.passed else "fail")
    return 0 if result.passed else 1


def cmd_coradical(args, report):
    c = _load_valid_coalgebra(args.file)
    sub = coradical(c)
    report.witnesses["dimension"] = sub.dim
    _emit(report, serialize.subspace_to_obj(sub), args.output)
    report.finish("value")
    return 0


def cmd_cotensor(args, report):
    c = _load_valid_coalgebra(args.over)
    left = _load_valid_bicomodule(args.left)
    right = _load_valid_bicomodule(args.right)
    if left.over != c or right.over != c:
        raise CliError("bicomodules are not over the given coalgebra", 2)
    result, chi = cotensor(left, right)
    payload = serialize.bicomodule_to_obj(result)
    payload["inclusion"] = serialize.matrix_to_obj(chi)
    _emit(report, payload, args.output)
    report.witnesses["dimension"] = result.dim
    report.finish("value")
    return 0


def cmd_wedge_filtration(args, report):
    c = _load_valid_coalgebra(args.amb)
    inc = _load_matrix(args.sub)
    if inc.rows != c.dim:
        raise CliError("subspace basis does not live in the coalgebra", 2)
    sub = subcoalgebra_on(c, Subspace.from_matrix(inc))
    filt = wedge_filtration(c, sub)
    payload = {
        "chain": [serialize.subspace_to_obj(s) for s in filt.chain],
        "stabilized": serialize.subspace_to_obj(filt.stabilized),
        "loewy_length": filt.loewy_length,
    }
    _emit(report, payload, args.output)
    report.witnesses["loewy_length"] = filt.loewy_length
    report.witnesses["chain_dims"] = [s.dim for s in filt.chain]
    report.finish("value")
    return 0


def cmd_build_t(args, report):
    _require_nonnegative(args.trunc, "--trunc")
    c = _load_valid_coalgebra(args.coalgebra)
    m = _load_valid_bicomodule(args.bicomodule)
    if m.over != c:
        raise CliError("bicomodule is not over the given coalgebra", 2)
    t = build_truncated(c, m, args.trunc)
    ok = True
    if args.check:
        iterative, _ = build_iterative(c, m, args.trunc)
        checks = {
            "iterative_equal": iterative.delta == t.total.delta
            and iterative.epsilon == t.total.epsilon,
            "wedge_recovery": all(
                wedge_recovery_check(t, k) for k in range(args.trunc + 2)
            ),
            "graded_limit": graded_limit_check(t),
        }
        report.witnesses["checks"] = checks
        ok = all(checks.values())
    _emit(report, serialize.truncated_to_obj(t, include_maps=args.include_maps), args.output)
    report.witnesses["grading"] = list(t.grading)
    report.finish("pass" if ok else "fail")
    return 0 if ok else 1


def cmd_quiver(args, report):
    _require_nonnegative(args.trunc, "--trunc")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            q = parse_quiver(fh.read())
    except FileNotFoundError:
        raise CliError(f"no such file: {args.file}", 2)
    except ParseError as exc:
        raise CliError(f"{args.file}: {exc}", 2)
    coalg, basis = deconcatenation_oracle(q, args.trunc)
    payload = serialize.coalgebra_to_obj(coalg)
    payload["paths"] = [
        {"arrows": list(p.arrows), "source": p.source, "target": p.target}
        for p in basis.paths
    ]
    _emit(report, payload, args.output)
    report.witnesses["dimension"] = coalg.dim
    if args.oracle_compare:
        try:
            oracle_compare(q, args.trunc)
        except MismatchReport as exc:
            report.witnesses["mismatch"] = str(exc)
            report.finish("fail")
            return 1
        report.witnesses["oracle_compare"] = "ok"
    report.finish("pass")
    return 0


def cmd_cohomology(args, report):
    _require_nonnegative(args.degree, "--degree")
    c = _load_valid_coalgebra(args.coalgebra)
    l = _load_valid_bicomodule(args.bicomodule)
    if l.over != c:
        raise CliError("bicomodule is not over the given coalgebra", 2)
    result = cohomology(c, l, args.degree)
    report.witnesses["dimension"] = result.dim
    payload = {
        "degree": args.degree,
        "dimension": result.dim,
        "representatives": [serialize.cochain_to_obj(r) for r in result.representatives],
    }
    _emit(report, payload, args.output)
    report.finish("value")
    return 0


def cmd_extension(args, report):
    c = _load_valid_coalgebra(args.coalgebra)
    l = _load_valid_bicomodule(args.bicomodule)
    if l.over != c:
        raise CliError("bicomodule is not over the given coalgebra", 2)
    try:
        z = serialize.cochain_from_obj(_load(args.cocycle))
    except FormatError as exc:
        raise CliError(f"{args.cocycle}: {exc}", 2)
    try:
        ext = hochschild_extension(c, l, z)
    except NotACocycle as exc:
        report.witnesses["obstruction_nnz"] = len(exc.witness.data)
        report.finish("fail")
        return 1
    payload = serialize.coalgebra_to_obj(ext.total)
    if args.trivialize:
        ret = trivialize_extension(ext)
        if ret is None:
            report.witnesses["trivializable"] = False
            _emit(report, payload, args.output)
            report.finish("fail")
            return 1
        report.witnesses["trivializable"] = True
        payload["retraction"] = serialize.matrix_to_obj(ret.map)
    _emit(report, payload, args.output)
    report.finish("pass")
    return 0


def cmd_coseparable(args, report):
    c = _load_valid_coalgebra(args.file)
    witness = is_coseparable(c)
    if witness is None:
        report.finish("fail")
        return 1
    report.witnesses["retraction"] = serialize.matrix_to_obj(witness)
    report.finish("pass")
    return 0


def cmd_formally_smooth(args, report):
    c = _load_valid_coalgebra(args.file)
    result = is_formally_smooth(c)
    report.witnesses["h2_dim"] = result.h2_dim
    if not result.smooth:
        report.finish("fail")
        return 1
    report.witnesses["splitting"] = serialize.matrix_to_obj(result.witness)
    report.finish("pass")
    return 0


def cmd_universal_map(args, report):
    e = _load_valid_coalgebra(args.E)
    f_c_mat = _load_matrix(args.fC)
    f_m = _load_matrix(args.fM)
    try:
        t = serialize.truncated_from_obj(_load(args.T))
    except FormatError as exc:
        raise CliError(f"{args.T}: {exc}", 2)
    try:
        f_c = CoalgebraMap(e, t.base, f_c_mat)
    except NotCoalgebraMap as exc:
        report.witnesses["precondition"] = f"fC is not a coalgebra map: {exc}"
        report.finish("fail")
        return 1
    try:
        f = universal_map(e, f_c, f_m, t)
    except (NicholsViolated, TruncationTooSmall, NotBicomoduleMap) as exc:
        report.witnesses["precondition"] = f"{type(exc).__name__}: {exc}"
        report.finish("fail")
        return 1
    _emit(report, serialize.matrix_to_obj(f.map), args.output)
    report.finish("pass")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coalgkit",
        description="Exact computations with coalgebras, bicomodules and their cotensor constructions.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    # accept --format after the subcommand as well, without clobbering a
    # value that was already parsed before it
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=lambda **kw: argparse.ArgumentParser(parents=[shared], **kw),
    )

    p = sub.add_parser("validate", help="check the axioms of a coalgebra or bicomodule file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("coradical", help="largest cosemisimple subcoalgebra")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_coradical)

    p = sub.add_parser("cotensor", help="cotensor product of two bicomodules")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--over", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_cotensor)

    p = sub.add_parser("wedge-filtration", help="wedge powers of a subcoalgebra until stabilization")
    p.add_argument("--sub", required=True, help="matrix file: columns span the subcoalgebra")
    p.add_argument("--amb", required=True, help="ambient coalgebra file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_wedge_filtration)

    p = sub.add_parser("build-T", help="build the truncated cotensor coalgebra")
    p.add_argument("--coalgebra", required=True)
    p.add_argument("--bicomodule", required=True)
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--check", action="store_true", help="run the cross-validation passes")
    p.add_argument("--include-maps", action="store_true", help="emit the slice inclusions and projections")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_build_t)

    p = sub.add_parser("quiver", help="build the path coalgebra of a quiver file")
    p.add_argument("--file", required=True)
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--oracle-compare", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_quiver)

    p = sub.add_parser("cohomology", help="cohomology of the standard complex")
    p.add_argument("--coalgebra", required=True)
    p.add_argument("--bicomodule", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("extension", help="build the extension defined by a 2-cocycle")
    p.add_argument("--coalgebra", required=True)
    p.add_argument("--bicomodule", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--trivialize", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_extension)

    p = sub.add_parser("coseparable", help="decide coseparability with a witness")
    p.add_argument("file")
    p.set_defaults(fn=cmd_coseparable)

    p = sub.add_parser("formally-smooth", help="decide formal smoothness with a witness")
    p.add_argument("file")
    p.set_defaults(fn=cmd_formally_smooth)

    p = sub.add_parser("universal-map", help="the coalgebra map determined by degree 0 and 1")
    p.add_argument("--E", required=True, help="source coalgebra file")
    p.add_argument("--fC", required=True, help="matrix file: degree-zero component")
    p.add_argument("--fM", required=True, help="matrix file: degree-one component")
    p.add_argument("--T", required=True, help="truncated cotensor coalgebra file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_universal_map)

    return parser


def _one_line(what: str, exc: BaseException) -> str:
    """error: what: the exception's message with its lines joined."""
    detail = "; ".join(line.strip() for line in str(exc).splitlines() if line.strip())
    return f"error: {what}: {detail}" if detail else f"error: {what}"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(argv)
    try:
        code = args.fn(args, report)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (CoalgebraMismatch, DimensionMismatch, NotSubcoalgebra, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(_one_line("out of memory", exc), file=sys.stderr)
        return 3
    except AssertionError as exc:  # InternalCheckFailed and every internal check
        print(_one_line("internal check failed", exc), file=sys.stderr)
        return 3
    if args.format == "json":
        sys.stdout.write(serialize.dumps(report.to_obj()))
    else:
        print(report.render_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
