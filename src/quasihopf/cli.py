"""Command-line front end.

Exit codes: 0 = everything checked out, 1 = some exact check failed,
2 = malformed input or a parse/type error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .linalg import rat_str
from .qha import (BUILTIN_NAMES, QuasiHopfAlgebra, algebra_from_json,
                  algebra_to_json, builtin, verify_derived_identities)
from .report import Report, VerificationFailure
from .repcat import end_over_regular, unit_module
from .mod_a import equivalence_report
from .dsl import Context, DslError, Elaborator, check, parse, parse_list
from . import qhio


class InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is malformed input: raise it, for main to report in one line."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _load_algebra(spec: str) -> QuasiHopfAlgebra:
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return algebra_from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise InputError(f"{spec}: {exc}") from exc
    if spec in BUILTIN_NAMES:
        return builtin(spec)
    raise InputError(f"no such file or builtin algebra: {spec!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_module(h: QuasiHopfAlgebra, path: str, label: str):
    try:
        return qhio.module_from_obj(h, _load_json(path), label=label)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(rep: Report, fmt: str) -> None:
    print(rep.render_json() if fmt == "json" else rep.render_text())


def _context_for(h: QuasiHopfAlgebra, path: str | None) -> Context:
    ctx = Context(h)
    if path is None:
        return ctx
    obj = _load_json(path)
    sections = ("modules", "center", "amodules", "morphisms")
    if not (isinstance(obj, dict) and all(isinstance(obj.get(s, {}), dict) for s in sections)):
        raise InputError(f"context {path}: expected an object whose "
                         f"{'/'.join(sections)} entries are objects")
    try:
        for name, data in obj.get("modules", {}).items():
            ctx.add_module(name, qhio.module_from_obj(h, data, label=name))
        for name, data in obj.get("center", {}).items():
            ctx.add_center(name, qhio.center_from_obj(h, data, label=name))
        for name, data in obj.get("amodules", {}).items():
            ctx.add_amodule(name, qhio.amodule_from_obj(ctx.algebra, data, label=name))
        for name, data in obj.get("morphisms", {}).items():
            ctx.add_morphism(name, qhio.morphism_from_obj(ctx, data))
    except (ValueError, VerificationFailure, DslError) as exc:
        raise InputError(f"context {path}: {exc}") from exc
    return ctx


def _expr_text(raw: str) -> str:
    return sys.stdin.read() if raw == "-" else raw


def cmd_verify(args) -> int:
    h = _load_algebra(args.algebra)
    rep = h.verify_axioms()
    if args.derived and rep.ok:
        rep2 = verify_derived_identities(h)
        combined = Report(title=rep.title)
        combined.extend(rep)
        combined.extend(rep2)
        rep = combined
    _emit(rep, args.report)
    return 0 if rep.ok else 1


def cmd_end(args) -> int:
    h = _load_algebra(args.algebra)
    try:
        h.require_valid()
    except VerificationFailure as exc:
        raise InputError(f"algebra failed axiom checks: {exc}") from exc
    p = _load_module(h, args.left, "P") if args.left else unit_module(h)
    q = _load_module(h, args.right, "Q") if args.right else unit_module(h)
    for m, name in ((p, "left"), (q, "right")):
        vrep = m.validate()
        if not vrep.ok:
            raise InputError(f"{name} module failed validation")
    comp = end_over_regular(h, p, q)
    _emit(comp.report, args.report)
    return 0 if comp.report.ok else 1


def cmd_equiv(args) -> int:
    h = _load_algebra(args.algebra)
    try:
        h.require_valid()
    except VerificationFailure as exc:
        raise InputError(f"algebra failed axiom checks: {exc}") from exc
    ctx = _context_for(h, args.context)
    objects = None
    if args.objects is not None:
        el = Elaborator(ctx)
        try:
            objects = [el.resolve_module(node) for node in parse_list(args.objects)]
        except DslError as exc:
            raise InputError(f"--objects: {exc}") from exc
        labels = [x.label or f"dim{x.dim}" for x in objects]
        if len(set(labels)) < len(labels):
            raise InputError(f"--objects: two objects share a report label in {labels}")
    rep = equivalence_report(h, objects)
    _emit(rep, args.report)
    return 0 if rep.ok else 1


# The most entries of a map that eval prints (densely, every zero included).
MAX_PRINT_ENTRIES = 2 ** 20


def cmd_eval(args) -> int:
    h = _load_algebra(args.algebra)
    ctx = _context_for(h, args.context)
    el = Elaborator(ctx)
    try:
        typed = el.elaborate(parse(_expr_text(args.expr)))
        rows, cols = typed.target.dim, typed.source.dim
        if rows * cols > MAX_PRINT_ENTRIES:
            raise InputError(f"the map is {rows} x {cols}, more than the "
                             f"{MAX_PRINT_ENTRIES} entries eval prints")
        f = el.evaluate(typed)
    except DslError as exc:
        raise InputError(str(exc)) from exc
    if args.report == "json":
        print(json.dumps({
            "source_dim": f.source.dim,
            "target_dim": f.target.dim,
            "entries": [rat_str(c) for c in f.matrix.to_flat()],
        }, indent=2, sort_keys=True))
    else:
        print(f"{f.source.label or '?'} -> {f.target.label or '?'} "
              f"({f.target.dim} x {f.source.dim})")
        flat = f.matrix.to_flat()
        for i in range(f.target.dim):
            row = flat[i * f.source.dim:(i + 1) * f.source.dim]
            print("  [" + ", ".join(rat_str(c) for c in row) + "]")
    return 0


def cmd_check(args) -> int:
    h = _load_algebra(args.algebra)
    ctx = _context_for(h, args.context)
    try:
        result = check(_expr_text(args.lhs), _expr_text(args.rhs), ctx)
    except DslError as exc:
        raise InputError(str(exc)) from exc
    rep = Report(title="check")
    details = result.message
    if result.witness is not None:
        details += f" (witness basis vector {result.witness})"
    rep.add("lhs_equals_rhs", result.ok, details)
    _emit(rep, args.report)
    return 0 if result.ok else 1


def cmd_builtins(args) -> int:
    for name in BUILTIN_NAMES:
        h = builtin(name)
        print(f"{name}: dimension {h.dim}, basis {', '.join(h.basis)}")
    return 0


def cmd_export(args) -> int:
    if args.name not in BUILTIN_NAMES:
        raise InputError(f"no builtin algebra {args.name!r}")
    text = algebra_to_json(builtin(args.name))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"{args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="qhopf",
        description="Exact verification of quasi-Hopf algebra module categories.")
    ap.add_argument("--report", choices=("text", "json"), default="text",
                    help="output format for check reports")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the defining axioms of an algebra file")
    p.add_argument("algebra", help="algebra JSON file or builtin name")
    p.add_argument("--derived", action="store_true",
                   help="also check the derived identity battery")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("end", help="compute the end over the regular generator")
    p.add_argument("algebra")
    p.add_argument("--left", help="module JSON file for the left tensor factor")
    p.add_argument("--right", help="module JSON file for the right tensor factor")
    p.set_defaults(func=cmd_end)

    p = sub.add_parser("equiv", help="instance-level monoidal equivalence report")
    p.add_argument("algebra")
    p.add_argument("--objects", help="comma-separated object expressions "
                                     "(default unit,C,C*C)")
    p.add_argument("--context", help="context JSON with extra named objects")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("eval", help="evaluate a morphism expression to a matrix")
    p.add_argument("algebra")
    p.add_argument("--context", help="context JSON with extra named objects")
    p.add_argument("--expr", required=True, help="expression ('-' reads stdin)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="compare two morphism expressions exactly")
    p.add_argument("algebra")
    p.add_argument("--context")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("builtins", help="list the built-in example algebras")
    p.set_defaults(func=cmd_builtins)

    p = sub.add_parser("export", help="write a built-in algebra as JSON")
    p.add_argument("name")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(exc.report.render_text(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
