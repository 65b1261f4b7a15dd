"""A small expression language over the structure maps.

Every displayed identity becomes a runnable script: morphisms are written
diagrammatically with ';' (first left, then right), tensored with '*', and
the named generators take object arguments.  Object expressions are names,
'*' products, heart(X), coinv(M) and innh(X,Y).

Grammar (whitespace-insensitive, ';' binds looser than '*'):

    expr := seq ; seq := ten (';' ten)* ; ten := atom ('*' atom)*
    atom := NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

from .linalg import LinAlgError, inverse
from .qha import QuasiHopfAlgebra
from .report import VerificationFailure
from .repcat import (HLinearMap, HModule, associator, associator_inv, eeps,
                     eeta, icomp, identity_map, in_map, inner_hom,
                     regular_module, tensor, unit_module)
from .center import CenterObject, braiding
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
        args = []
        if self.peek().kind != "RP":
            args.append(self.parse_expr())
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.parse_expr())
        self.close_paren()
        return Call(t.text, tuple(args), t.pos)


def parse(text: str):
    p = _Parser(text)
    node = p.parse_expr()
    p.expect("EOF")
    return node


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

class Context:
    """Named objects and morphisms, everything validated on the way in."""

    def __init__(self, h: QuasiHopfAlgebra):
        h.require_valid()
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
        self._coinv_cache: dict[int, tuple] = {}

    def add_module(self, name: str, m: HModule) -> None:
        rep = m.validate()
        if not rep.ok:
            raise VerificationFailure(f"module {name!r} failed validation", rep)
        m.label = m.label or name
        self.modules[name] = m

    def add_center(self, name: str, m: CenterObject) -> None:
        m.require_valid()
        m.label = m.label or name
        self.centers[name] = m
        self.modules.setdefault(name, m.base)

    def add_amodule(self, name: str, m: AModule) -> None:
        m.require_valid()
        m.label = m.label or name
        self.amodules[name] = m
        self.centers.setdefault(name, m.center)
        self.modules.setdefault(name, m.base)

    def add_morphism(self, name: str, f: HLinearMap) -> None:
        if not f.is_h_linear():
            raise VerificationFailure(f"morphism {name!r} is not a module map")
        self.morphisms[name] = f

    def coinv_of(self, m: AModule):
        """(projection map, presentation) of the coinvariants of m, cached."""
        key = id(m)
        if key not in self._coinv_cache:
            _, p, pres = coinvariants(m)
            self._coinv_cache[key] = (m, p, pres)
        return self._coinv_cache[key][1:]


# ---------------------------------------------------------------------------
# elaboration: objects on every edge

@dataclass
class TypedExpr:
    node: object
    source: HModule
    target: HModule
    children: list["TypedExpr"]


def _fmt(m: HModule) -> str:
    return m.label or f"<module dim {m.dim}>"


class Elaborator:
    def __init__(self, ctx: Context):
        self.ctx = ctx

    # -- objects -------------------------------------------------------------

    def resolve_module(self, node) -> HModule:
        if isinstance(node, Name):
            m = self.ctx.modules.get(node.ident)
            if m is None:
                raise DslError(f"unknown object {node.ident!r}", node.pos)
            return m
        if isinstance(node, Ten):
            out = self.resolve_module(node.parts[0])
            for p in node.parts[1:]:
                out = tensor(out, self.resolve_module(p))
            return out
        if isinstance(node, Call):
            if node.head == "heart":
                self._arity(node, 1)
                hm = heart(self.ctx.h, self.resolve_module(node.args[0]))
                return hm.base
            if node.head == "coinv":
                self._arity(node, 1)
                am = self.resolve_amodule(node.args[0])
                _, pres = self.ctx.coinv_of(am)
                return pres.module
            if node.head == "innh":
                self._arity(node, 2)
                return inner_hom(self.resolve_module(node.args[0]),
                                 self.resolve_module(node.args[1]))
            raise DslError(f"{node.head!r} is not an object constructor", node.pos)
        raise DslError("';' is not allowed inside an object expression")

    def resolve_center(self, node) -> CenterObject:
        if isinstance(node, Name):
            m = self.ctx.centers.get(node.ident)
            if m is None:
                raise DslError(f"{node.ident!r} does not name a centre object", node.pos)
            return m
        if isinstance(node, Call) and node.head == "heart":
            self._arity(node, 1)
            return heart(self.ctx.h, self.resolve_module(node.args[0])).center
        raise DslError("expected the name of a centre object")

    def resolve_amodule(self, node) -> AModule:
        if isinstance(node, Name):
            m = self.ctx.amodules.get(node.ident)
            if m is None:
                raise DslError(f"{node.ident!r} does not name a right module", node.pos)
            return m
        if isinstance(node, Call) and node.head == "heart":
            self._arity(node, 1)
            return heart_amodule(self.ctx.algebra,
                                 self.resolve_module(node.args[0]))
        raise DslError("expected the name of a right module")

    @staticmethod
    def _arity(node: Call, k: int):
        if len(node.args) != k:
            raise DslError(f"{node.head} takes {k} argument(s), got {len(node.args)}",
                           node.pos)

    # -- morphisms -------------------------------------------------------------

    def elaborate(self, node) -> TypedExpr:
        h = self.ctx.h
        if isinstance(node, Seq):
            kids = [self.elaborate(p) for p in node.parts]
            for left, right in zip(kids, kids[1:]):
                if left.target != right.source:
                    raise DslError(
                        f"cannot compose: target {_fmt(left.target)} does not match "
                        f"source {_fmt(right.source)}")
            return TypedExpr(node, kids[0].source, kids[-1].target, kids)
        if isinstance(node, Ten):
            kids = [self.elaborate(p) for p in node.parts]
            src = kids[0].source
            dst = kids[0].target
            for k in kids[1:]:
                src = tensor(src, k.source)
                dst = tensor(dst, k.target)
            return TypedExpr(node, src, dst, kids)
        if isinstance(node, Name):
            f = self.ctx.morphisms.get(node.ident)
            if f is None:
                raise DslError(f"unknown morphism {node.ident!r}", node.pos)
            return TypedExpr(node, f.source, f.target, [])
        if isinstance(node, Call):
            return self._elaborate_call(node)
        raise DslError(f"not a morphism expression: {node!r}")

    def _elaborate_call(self, node: Call) -> TypedExpr:
        h = self.ctx.h
        head = node.head
        A = self.ctx.algebra

        def typed(src, dst, kids=()):
            return TypedExpr(node, src, dst, list(kids))

        if head == "id":
            self._arity(node, 1)
            m = self.resolve_module(node.args[0])
            return typed(m, m)
        if head in ("assoc", "assoc_inv"):
            self._arity(node, 3)
            x, y, z = (self.resolve_module(a) for a in node.args)
            src = tensor(tensor(x, y), z)
            dst = tensor(x, tensor(y, z))
            return typed(src, dst) if head == "assoc" else typed(dst, src)
        if head == "eta":
            self._arity(node, 2)
            m, p = (self.resolve_module(a) for a in node.args)
            return typed(m, inner_hom(p, tensor(m, p)))
        if head == "eps":
            self._arity(node, 2)
            nmod, p = (self.resolve_module(a) for a in node.args)
            return typed(tensor(inner_hom(p, nmod), p), nmod)
        if head == "icomp":
            self._arity(node, 3)
            x, y, z = (self.resolve_module(a) for a in node.args)
            return typed(tensor(inner_hom(y, z), inner_hom(x, y)), inner_hom(x, z))
        if head == "inmap":
            self._arity(node, 3)
            m, x, y = (self.resolve_module(a) for a in node.args)
            return typed(tensor(m, inner_hom(x, y)), inner_hom(x, tensor(m, y)))
        if head in ("braid", "braid_inv"):
            self._arity(node, 2)
            m = self.resolve_center(node.args[0])
            x = self.resolve_module(node.args[1])
            src, dst = tensor(m.base, x), tensor(x, m.base)
            return typed(src, dst) if head == "braid" else typed(dst, src)
        if head == "diamond":
            self._arity(node, 2)
            m = self.resolve_module(node.args[0])
            x = self.resolve_module(node.args[1])
            return typed(tensor(heart(h, m).base, x), tensor(x, m))
        if head == "pi":
            self._arity(node, 1)
            m = self.resolve_module(node.args[0])
            return typed(heart(h, m).base, m)
        if head == "mu":
            self._arity(node, 1)
            m = self.resolve_amodule(node.args[0])
            return typed(tensor(m.base, A.base), m.base)
        if head == "lambda":
            self._arity(node, 1)
            m = self.resolve_amodule(node.args[0])
            return typed(tensor(A.base, m.base), m.base)
        if head in ("s", "t"):
            self._arity(node, 1)
            m = self.resolve_center(node.args[0])
            hb = heart(h, m.base).base
            free = tensor(m.base, A.base)
            return typed(hb, free) if head == "s" else typed(free, hb)
        if head in ("xi", "zeta"):
            self._arity(node, 1)
            m = self.resolve_amodule(node.args[0])
            _, pres = self.ctx.coinv_of(m)
            hb = heart(h, pres.module).base
            return typed(hb, m.base) if head == "xi" else typed(m.base, hb)
        if head == "p":
            self._arity(node, 1)
            m = self.resolve_amodule(node.args[0])
            _, pres = self.ctx.coinv_of(m)
            return typed(m.base, pres.module)
        if head == "heart":
            self._arity(node, 1)
            inner = self.elaborate(node.args[0])
            return typed(heart(h, inner.source).base, heart(h, inner.target).base,
                         [inner])
        if head == "coinv":
            self._arity(node, 1)
            inner = self.elaborate(node.args[0])
            src_am = self._amodule_for(inner.source, node)
            dst_am = self._amodule_for(inner.target, node)
            _, pres_s = self.ctx.coinv_of(src_am)
            _, pres_d = self.ctx.coinv_of(dst_am)
            return typed(pres_s.module, pres_d.module, [inner])
        if head == "inv":
            self._arity(node, 1)
            inner = self.elaborate(node.args[0])
            if inner.source.dim != inner.target.dim:
                raise DslError("inv needs a square morphism", node.pos)
            return typed(inner.target, inner.source, [inner])
        raise DslError(f"unknown operation {head!r}", node.pos)

    def _amodule_for(self, m: HModule, node: Call) -> AModule:
        for am in self.ctx.amodules.values():
            if am.base == m:
                return am
        raise DslError("coinv of a morphism needs registered right modules "
                       f"at both endpoints; none matches {_fmt(m)}", node.pos)

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
        node = te.node
        h = self.ctx.h
        A = self.ctx.algebra
        if isinstance(node, Seq):
            out = self._eval(te.children[0])
            for k in te.children[1:]:
                out = out.then(self._eval(k))
            return out
        if isinstance(node, Ten):
            out = self._eval(te.children[0])
            for k in te.children[1:]:
                out = out.tensor(self._eval(k))
            return out
        if isinstance(node, Name):
            return self.ctx.morphisms[node.ident]
        head = node.head
        args = node.args
        if head == "id":
            return identity_map(te.source)
        if head == "assoc":
            x, y, z = (self.resolve_module(a) for a in args)
            return associator(x, y, z)
        if head == "assoc_inv":
            x, y, z = (self.resolve_module(a) for a in args)
            return associator_inv(x, y, z)
        if head == "eta":
            m, p = (self.resolve_module(a) for a in args)
            return eeta(m, p)
        if head == "eps":
            nmod, p = (self.resolve_module(a) for a in args)
            return eeps(nmod, p)
        if head == "icomp":
            x, y, z = (self.resolve_module(a) for a in args)
            return icomp(x, y, z)
        if head == "inmap":
            m, x, y = (self.resolve_module(a) for a in args)
            return in_map(m, x, y)
        if head == "braid":
            return braiding(self.resolve_center(args[0]), self.resolve_module(args[1]))
        if head == "braid_inv":
            b = braiding(self.resolve_center(args[0]), self.resolve_module(args[1]))
            return HLinearMap(b.target, b.source, inverse(b.matrix))
        if head == "diamond":
            return diamond(h, self.resolve_module(args[0]), self.resolve_module(args[1]))
        if head == "pi":
            return pi_map(h, self.resolve_module(args[0]))
        if head == "mu":
            m = self.resolve_amodule(args[0])
            return HLinearMap(tensor(m.base, A.base), m.base, m.mu)
        if head == "lambda":
            return left_action(self.resolve_amodule(args[0]))
        if head in ("s", "t"):
            m = self.resolve_center(args[0])
            s_map, t_map, _ = s_t_isos(m, A)
            return s_map if head == "s" else t_map
        if head in ("xi", "zeta"):
            m = self.resolve_amodule(args[0])
            xi, zeta, _ = unit_iso(m)
            return xi if head == "xi" else zeta
        if head == "p":
            m = self.resolve_amodule(args[0])
            p, _ = self.ctx.coinv_of(m)
            return p
        if head == "heart":
            return heart_on_morphism(self._eval(te.children[0]))
        if head == "coinv":
            inner = self._eval(te.children[0])
            src_am = self._amodule_for(te.children[0].source, node)
            dst_am = self._amodule_for(te.children[0].target, node)
            _, pres_s = self.ctx.coinv_of(src_am)
            _, pres_d = self.ctx.coinv_of(dst_am)
            return coinvariants_on_morphism(inner, pres_s, pres_d)
        if head == "inv":
            inner = self._eval(te.children[0])
            try:
                return HLinearMap(inner.target, inner.source, inverse(inner.matrix))
            except LinAlgError as exc:
                raise DslError(f"inv of a singular morphism: {exc}", node.pos)
        raise DslError(f"unknown operation {head!r}", node.pos)


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
    if lm.matrix == rm.matrix:
        return CheckResult(True, "exactly equal")
    for j in range(lm.matrix.cols):
        if lm.matrix.col(j) != rm.matrix.col(j):
            return CheckResult(
                False, f"matrices differ on source basis vector {j}", witness=j)
    return CheckResult(False, "matrices differ")
