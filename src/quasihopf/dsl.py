"""A small expression language over the structure maps.

Every displayed identity becomes a runnable script: morphisms are written
diagrammatically with ';' (first left, then right), tensored with '*', and
the named generators take arguments of four sorts: objects, centre objects,
right modules and morphisms.  Object expressions are names, '*' products,
heart(X), coinv(M) and innh(X,Y); heart(X) is also a centre object and a
right module.

Each name is one entry of GENERATORS: for every sort the name can be used
at, the sorts of its arguments, its endpoints and its evaluator.
Elaboration resolves each argument once, by its sort, and keeps the
results on the TypedExpr; evaluation runs the same spec on them.

Grammar (whitespace-insensitive, ';' binds looser than '*'):

    expr := seq ; seq := ten (';' ten)* ; ten := atom ('*' atom)*
    atom := NAME | NAME '(' list ')' | '(' expr ')' ; list := expr (',' expr)*
"""

from __future__ import annotations

import string
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import reduce

from .linalg import LinAlgError, first_difference
from .qha import QuasiHopfAlgebra
from .report import VerificationFailure
from .repcat import (HLinearMap, HModule, associator, associator_inv, eeps,
                     eeta, icomp, identity_map, in_map, inner_hom,
                     regular_module, tensor, unit_module)
from .center import CenterObject, braiding, braiding_inv
from .algebra_a import (AlgebraA, build_A, diamond, heart, heart_on_morphism,
                        pi_map, s_t_isos)
from .mod_a import (AModule, algebra_as_amodule, coinvariants,
                    coinvariants_on_morphism, heart_amodule, left_action, unit_iso)


class DslError(Exception):
    def __init__(self, message: str, pos: tuple[int, int] | None = None):
        if pos:
            message = f"{message} (line {pos[0]}, column {pos[1]})"
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# tokens and parsing

_NAME_START = set(string.ascii_letters + "_")
_NAME_CHARS = set(string.ascii_letters + string.digits + "_")


@dataclass(frozen=True)
class Token:
    kind: str   # NAME LP RP COMMA SEMI STAR EOF
    text: str
    pos: tuple[int, int]


def tokenize(text: str) -> list[Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        pos = (line, col)
        if ch in _NAME_START:
            j = i
            while j < len(text) and text[j] in _NAME_CHARS:
                j += 1
            out.append(Token("NAME", text[i:j], pos))
            col += j - i
            i = j
            continue
        kind = {"(": "LP", ")": "RP", ",": "COMMA", ";": "SEMI", "*": "STAR"}.get(ch)
        if kind is None:
            raise DslError(f"unexpected character {ch!r}", pos)
        out.append(Token(kind, ch, pos))
        i += 1
        col += 1
    out.append(Token("EOF", "", (line, col)))
    return out


@dataclass(frozen=True)
class Name:
    ident: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call:
    head: str
    args: tuple
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Ten:
    parts: tuple


@dataclass(frozen=True)
class Seq:
    parts: tuple


# Deepest parenthesis/argument-list nesting accepted.  Parsing spends three
# frames per level and elaboration and evaluation fewer, so an expression at
# the limit stays far below the interpreter's default recursion limit (1000).
MAX_NESTING = 100

# Largest dimension of an object or a morphism endpoint that elaboration
# accepts.  Elaboration only multiplies dimensions; evaluation builds maps on
# these spaces, and a product of a few dozen factors would exhaust memory.
MAX_DIM = 2 ** 16


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            what = t.text or "end of input"
            raise DslError(f"expected {kind}, found {what!r}", t.pos)
        return t

    def parse_expr(self):
        parts = [self.parse_ten()]
        while self.peek().kind == "SEMI":
            self.next()
            parts.append(self.parse_ten())
        return parts[0] if len(parts) == 1 else Seq(tuple(parts))

    def parse_ten(self):
        parts = [self.parse_atom()]
        while self.peek().kind == "STAR":
            self.next()
            parts.append(self.parse_atom())
        return parts[0] if len(parts) == 1 else Ten(tuple(parts))

    def open_paren(self) -> None:
        t = self.expect("LP")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DslError(f"expression nested deeper than {MAX_NESTING} levels", t.pos)

    def close_paren(self) -> None:
        self.expect("RP")
        self.depth -= 1

    def parse_atom(self):
        t = self.peek()
        if t.kind == "LP":
            self.open_paren()
            inner = self.parse_expr()
            self.close_paren()
            return inner
        if t.kind != "NAME":
            what = t.text or "end of input"
            raise DslError(f"expected a name or '(', found {what!r}", t.pos)
        self.next()
        if self.peek().kind != "LP":
            return Name(t.text, t.pos)
        self.open_paren()
        args = self.parse_list() if self.peek().kind != "RP" else []
        self.close_paren()
        return Call(t.text, tuple(args), t.pos)

    def parse_list(self) -> list:
        items = [self.parse_expr()]
        while self.peek().kind == "COMMA":
            self.next()
            items.append(self.parse_expr())
        return items

    def parse_all(self, rule):
        node = rule()
        self.expect("EOF")
        return node


def parse(text: str):
    p = _Parser(text)
    return p.parse_all(p.parse_expr)


def parse_list(text: str) -> list:
    """A non-empty comma-separated list of expressions, read to the end."""
    p = _Parser(text)
    return p.parse_all(p.parse_list)


def print_expr(node) -> str:
    """Canonical printing; parse(print_expr(ast)) == ast."""
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.head}({','.join(print_expr(a) for a in node.args)})"
    if isinstance(node, Ten):
        return "*".join(
            f"({print_expr(p)})" if isinstance(p, (Seq, Ten)) else print_expr(p)
            for p in node.parts)
    if isinstance(node, Seq):
        return " ; ".join(
            f"({print_expr(p)})" if isinstance(p, Seq) else print_expr(p)
            for p in node.parts)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# contexts

# The sorts of expression; an error for a wrong argument names the expected one.
OBJECT, CENTRE, RIGHT, MORPHISM = "object", "centre object", "right module", "morphism"


class Context:
    """Named objects and morphisms, everything validated on the way in.

    An unlabelled operand is registered as a copy labelled with its name."""

    def __init__(self, h: QuasiHopfAlgebra):
        self.h = h
        self.algebra: AlgebraA = build_A(h)
        c = regular_module(h)
        i = unit_module(h)
        self.modules: dict[str, HModule] = {
            "C": c, "I": i, "unit": i, "A": self.algebra.base,
        }
        self.centers: dict[str, CenterObject] = {"A": self.algebra.center}
        self.amodules: dict[str, AModule] = {"A": algebra_as_amodule(self.algebra)}
        self.morphisms: dict[str, HLinearMap] = {}
        self.named = {OBJECT: self.modules, CENTRE: self.centers, RIGHT: self.amodules,
                      MORPHISM: self.morphisms}

    def _claim(self, name: str) -> None:
        if any(name in names for names in self.named.values()):
            raise DslError(f"name {name!r} is already bound")

    def add_module(self, name: str, m: HModule) -> None:
        self._claim(name)
        m.validate().require(f"module {name!r} failed validation")
        self.modules[name] = m if m.label else HModule(m.h, m.dim, m.action, name, key=m._key)

    def add_center(self, name: str, m: CenterObject) -> None:
        self._claim(name)
        m = (m if m.label else replace(m, label=name)).require_valid()
        self.centers[name] = m
        self.modules[name] = m.base

    def add_amodule(self, name: str, m: AModule) -> None:
        self._claim(name)
        m = (m if m.label else replace(m, label=name)).require_valid()
        self.amodules[name] = m
        self.centers[name] = m.center
        self.modules[name] = m.base

    def add_morphism(self, name: str, f: HLinearMap) -> None:
        self._claim(name)
        if not f.is_h_linear():
            raise VerificationFailure(f"morphism {name!r} is not a module map")
        self.morphisms[name] = f

    def presentation_at(self, m: HModule):
        """The coinvariants presentation of the registered right module on m."""
        for am in self.amodules.values():
            if am.base == m:
                return coinvariants(am)
        raise DslError("coinv of a morphism needs registered right modules "
                       f"at both endpoints; none matches {_fmt(m)}")


def _fmt(m: HModule) -> str:
    return m.label or f"<module dim {m.dim}>"


# ---------------------------------------------------------------------------
# the generator table

@dataclass(frozen=True)
class Spec:
    """One generator at one sort.

    ``sorts`` is the sort of each argument.  For an object constructor,
    ``make(ctx, *args)`` is the object.  For a morphism it is
    ``(source, target, *extra)``, and ``run(ctx, typed, *values)`` is the map,
    where the values are the arguments (each morphism argument evaluated)
    and then the extras.  A DslError without a position raised by either
    function is reported at the call.
    """
    sorts: tuple[str, ...]
    make: Callable
    run: Callable | None = None


def _nonsingular(invert, *args) -> HLinearMap:
    try:
        return invert(*args)
    except LinAlgError as exc:
        raise DslError(f"inv of a singular morphism: {exc}")


def _square(ctx, f):
    if f.source.dim != f.target.dim:
        raise DslError("inv needs a square morphism")
    return f.target, f.source


def _assoc(ctx, x, y, z):
    return tensor(tensor(x, y), z), tensor(x, tensor(y, z))


def _braid(ctx, m, x):
    return tensor(m.base, x), tensor(x, m.base)


def _heart_free(ctx, m):
    return heart(ctx.h, m.base).base, tensor(m.base, ctx.algebra.base)


def _heart_coinv(ctx, m):
    return heart(ctx.h, coinvariants(m).module).base, m.base


def _projection(ctx, m):
    pres = coinvariants(m)
    return m.base, pres.module, HLinearMap(m.base, pres.module, pres.projection)


def _coinv_ends(ctx, f):
    pres_s, pres_d = ctx.presentation_at(f.source), ctx.presentation_at(f.target)
    return pres_s.module, pres_d.module, pres_s, pres_d


def _last(ctx, te, *values):
    """The map handed over as the last value: a named map, or p's projection."""
    return values[-1]


# name -> the spec at each sort it can be used at
GENERATORS: dict[str, dict[str, Spec]] = {
    "id": {MORPHISM: Spec((OBJECT,), lambda ctx, x: (x, x),
                          lambda ctx, te, x: identity_map(x))},
    "assoc": {MORPHISM: Spec((OBJECT,) * 3, _assoc,
                             lambda ctx, te, x, y, z: associator(x, y, z))},
    "assoc_inv": {MORPHISM: Spec((OBJECT,) * 3, lambda ctx, *xs: _assoc(ctx, *xs)[::-1],
                                 lambda ctx, te, x, y, z: associator_inv(x, y, z))},
    "eta": {MORPHISM: Spec((OBJECT,) * 2, lambda ctx, m, p: (m, inner_hom(p, tensor(m, p))),
                           lambda ctx, te, m, p: eeta(m, p))},
    "eps": {MORPHISM: Spec((OBJECT,) * 2, lambda ctx, n, p: (tensor(inner_hom(p, n), p), n),
                           lambda ctx, te, n, p: eeps(n, p))},
    "icomp": {MORPHISM: Spec(
        (OBJECT,) * 3,
        lambda ctx, x, y, z: (tensor(inner_hom(y, z), inner_hom(x, y)), inner_hom(x, z)),
        lambda ctx, te, x, y, z: icomp(x, y, z))},
    "inmap": {MORPHISM: Spec(
        (OBJECT,) * 3,
        lambda ctx, m, x, y: (tensor(m, inner_hom(x, y)), inner_hom(x, tensor(m, y))),
        lambda ctx, te, m, x, y: in_map(m, x, y))},
    "braid": {MORPHISM: Spec((CENTRE, OBJECT), _braid,
                             lambda ctx, te, m, x: braiding(m, x))},
    "braid_inv": {MORPHISM: Spec((CENTRE, OBJECT), lambda ctx, m, x: _braid(ctx, m, x)[::-1],
                                 lambda ctx, te, m, x: _nonsingular(braiding_inv, m, x))},
    "diamond": {MORPHISM: Spec(
        (OBJECT,) * 2, lambda ctx, m, x: (tensor(heart(ctx.h, m).base, x), tensor(x, m)),
        lambda ctx, te, m, x: diamond(ctx.h, m, x))},
    "pi": {MORPHISM: Spec((OBJECT,), lambda ctx, m: (heart(ctx.h, m).base, m),
                          lambda ctx, te, m: pi_map(ctx.h, m))},
    "mu": {MORPHISM: Spec((RIGHT,), lambda ctx, m: (tensor(m.base, ctx.algebra.base), m.base),
                          lambda ctx, te, m: HLinearMap(te.source, te.target, m.mu))},
    "lambda": {MORPHISM: Spec((RIGHT,),
                              lambda ctx, m: (tensor(ctx.algebra.base, m.base), m.base),
                              lambda ctx, te, m: left_action(m))},
    "s": {MORPHISM: Spec((CENTRE,), _heart_free,
                         lambda ctx, te, m: s_t_isos(m, ctx.algebra)[0])},
    "t": {MORPHISM: Spec((CENTRE,), lambda ctx, m: _heart_free(ctx, m)[::-1],
                         lambda ctx, te, m: s_t_isos(m, ctx.algebra)[1])},
    "xi": {MORPHISM: Spec((RIGHT,), _heart_coinv, lambda ctx, te, m: unit_iso(m)[0])},
    "zeta": {MORPHISM: Spec((RIGHT,), lambda ctx, m: _heart_coinv(ctx, m)[::-1],
                            lambda ctx, te, m: unit_iso(m)[1])},
    "p": {MORPHISM: Spec((RIGHT,), _projection, _last)},
    "heart": {
        MORPHISM: Spec((MORPHISM,),
                       lambda ctx, f: (heart(ctx.h, f.source).base, heart(ctx.h, f.target).base),
                       lambda ctx, te, f: heart_on_morphism(f)),
        OBJECT: Spec((OBJECT,), lambda ctx, x: heart(ctx.h, x).base),
        CENTRE: Spec((OBJECT,), lambda ctx, x: heart(ctx.h, x).center),
        RIGHT: Spec((OBJECT,), lambda ctx, x: heart_amodule(ctx.algebra, x)),
    },
    "coinv": {
        MORPHISM: Spec((MORPHISM,), _coinv_ends,
                       lambda ctx, te, f, pres_s, pres_d:
                       coinvariants_on_morphism(f, pres_s, pres_d)),
        OBJECT: Spec((RIGHT,), lambda ctx, m: coinvariants(m).module),
    },
    "inv": {MORPHISM: Spec((MORPHISM,), _square,
                           lambda ctx, te, f: _nonsingular(f.inverse))},
    "innh": {OBJECT: Spec((OBJECT,) * 2, lambda ctx, x, y: inner_hom(x, y))},
}

_UNKNOWN_NAME = {OBJECT: "unknown object {!r}", CENTRE: "{!r} does not name a centre object",
                 RIGHT: "{!r} does not name a right module", MORPHISM: "unknown morphism {!r}"}


def _at(node: Call, fn, *args):
    """fn(*args), with a DslError that has no position placed at the call."""
    try:
        return fn(*args)
    except DslError as exc:
        if exc.pos:
            raise
        raise DslError(str(exc), node.pos) from None


# ---------------------------------------------------------------------------
# elaboration: objects on every edge

@dataclass
class TypedExpr:
    node: object
    source: HModule
    target: HModule
    args: tuple     # what run is applied to; the TypedExprs among them are evaluated first
    run: Callable   # (ctx, typed, *values) -> HLinearMap


def _first_pos(node) -> tuple[int, int]:
    """The position of the first name in an expression."""
    while not isinstance(node, (Name, Call)):
        node = node.parts[0]
    return node.pos


def _compose(ctx, te, *maps):
    return reduce(HLinearMap.then, maps)


def _tensor_maps(ctx, te, *maps):
    return reduce(HLinearMap.tensor, maps)


class Elaborator:
    def __init__(self, ctx: Context):
        self.ctx = ctx

    def resolve(self, node, sort: str):
        """The value of an expression at a sort: the object, or for a
        morphism the TypedExpr with its endpoints, each at most MAX_DIM."""
        value = self._resolve(node, sort)
        for obj in (value.source, value.target) if sort == MORPHISM else (value,):
            if obj.dim > MAX_DIM:
                raise DslError(f"an object of dimension {obj.dim} is larger than the "
                               f"limit {MAX_DIM}", _first_pos(node))
        return value

    def _resolve(self, node, sort: str):
        if isinstance(node, Name):
            value = self.ctx.named[sort].get(node.ident)
            if value is None:
                raise DslError(_UNKNOWN_NAME[sort].format(node.ident), node.pos)
            if sort == MORPHISM:
                return TypedExpr(node, value.source, value.target, (value,), _last)
            return value
        if isinstance(node, Call):
            spec = GENERATORS.get(node.head, {}).get(sort)
            if spec is not None:
                return self._apply(node, sort, spec)
            if sort == OBJECT:
                raise DslError(f"{node.head!r} is not an object constructor", node.pos)
            if sort == MORPHISM:
                raise DslError(f"unknown operation {node.head!r}", node.pos)
        elif sort == MORPHISM:
            kids = tuple(self.resolve(p, MORPHISM) for p in node.parts)
            if isinstance(node, Seq):
                for left, right in zip(kids, kids[1:]):
                    if left.target != right.source:
                        raise DslError(
                            f"cannot compose: target {_fmt(left.target)} does not match "
                            f"source {_fmt(right.source)}")
                return TypedExpr(node, kids[0].source, kids[-1].target, kids, _compose)
            src, dst = kids[0].source, kids[0].target
            for k in kids[1:]:
                src = tensor(src, k.source)
                dst = tensor(dst, k.target)
            return TypedExpr(node, src, dst, kids, _tensor_maps)
        elif sort == OBJECT:
            if isinstance(node, Seq):
                raise DslError("';' is not allowed inside an object expression")
            out = self.resolve(node.parts[0], OBJECT)
            for p in node.parts[1:]:
                out = tensor(out, self.resolve(p, OBJECT))
            return out
        raise DslError(f"expected the name of a {sort}")

    def _apply(self, node: Call, sort: str, spec: Spec):
        if len(node.args) != len(spec.sorts):
            raise DslError(f"{node.head} takes {len(spec.sorts)} argument(s), "
                           f"got {len(node.args)}", node.pos)
        args = tuple(self.resolve(a, s) for a, s in zip(node.args, spec.sorts))
        made = _at(node, spec.make, self.ctx, *args)
        if sort != MORPHISM:
            return made
        src, dst, *extra = made
        return TypedExpr(node, src, dst, args + tuple(extra), spec.run)

    def resolve_module(self, node) -> HModule:
        return self.resolve(node, OBJECT)

    def elaborate(self, node) -> TypedExpr:
        return self.resolve(node, MORPHISM)

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, typed: TypedExpr) -> HLinearMap:
        out = self._eval(typed)
        if out.source.dim != typed.source.dim or out.target.dim != typed.target.dim:
            raise VerificationFailure(
                "evaluation produced a map with the wrong endpoints")
        if not out.is_h_linear():
            raise VerificationFailure("evaluated expression is not a module map")
        return out

    def _eval(self, te: TypedExpr) -> HLinearMap:
        values = [self._eval(a) if isinstance(a, TypedExpr) else a for a in te.args]
        return _at(te.node, te.run, self.ctx, te, *values)


def eval_expr(text: str, ctx: Context) -> HLinearMap:
    el = Elaborator(ctx)
    return el.evaluate(el.elaborate(parse(text)))


@dataclass
class CheckResult:
    ok: bool
    message: str
    witness: int | None = None  # a source basis index where the two sides differ


def check(lhs_text: str, rhs_text: str, ctx: Context) -> CheckResult:
    """Exact comparison of two morphism expressions (endpoints, then entries)."""
    el = Elaborator(ctx)
    lt = el.elaborate(parse(lhs_text))
    rt = el.elaborate(parse(rhs_text))
    if lt.source != rt.source or lt.target != rt.target:
        return CheckResult(
            False,
            f"endpoint mismatch: {_fmt(lt.source)} -> {_fmt(lt.target)} vs "
            f"{_fmt(rt.source)} -> {_fmt(rt.target)}")
    lm = el.evaluate(lt)
    rm = el.evaluate(rt)
    diff = first_difference(lm.matrix, rm.matrix)
    if diff is None:
        return CheckResult(True, "exactly equal")
    return CheckResult(False, f"matrices differ on source basis vector {diff[0]}", witness=diff[0])
