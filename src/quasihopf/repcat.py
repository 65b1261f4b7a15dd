"""The monoidal category of finite-dimensional left modules.

Modules are given by one action matrix per basis element of the algebra;
tensor products act through the coproduct, and the associator is the action
of the associator element (both bracketings of a triple product share one
flat index set, so the associator is that single matrix and nothing else).

Also here: inner homs with their adjunction unit/counit, the inner
composition, the hom-tensor interchange map, left and right duals, and the
end of x |-> innhom(x, P (x) x (x) Q) computed over the regular generator two
independent ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import (LinearSystem, Matrix, ONE, ZERO, _canon, _div, _lcm_denominator,
                     _scaled, inverse, spans_equal, vec_add_scaled)
from .qha import QuasiHopfAlgebra, TensorElement
from .report import Report


class HModule:
    """A finite-dimensional left module: one action matrix per basis element.

    Action matrices may be supplied directly or through a builder thunk;
    derived modules (tensor products, inner homs) stay cheap wrappers until
    someone actually asks for their action.
    """

    def __init__(self, h: QuasiHopfAlgebra, dim: int, action: list[Matrix] | None = None,
                 label: str = "", builder=None):
        self.h = h
        self.dim = dim
        self.label = label
        self._action = None
        self._builder = builder
        if action is not None:
            self._action = self._check_action(action)
        elif builder is None:
            raise ValueError("module needs action matrices or a builder")

    def _check_action(self, action: list[Matrix]) -> list[Matrix]:
        if len(action) != self.h.dim:
            raise ValueError("need one action matrix per algebra basis element")
        for m in action:
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("action matrix shape does not match module dimension")
        return action

    @property
    def action(self) -> list[Matrix]:
        if self._action is None:
            self._action = self._check_action(self._builder())
            self._builder = None
        return self._action

    def action_of(self, v: dict) -> Matrix:
        """The action of an algebra element with coefficient vector v."""
        out = Matrix.zero(self.dim, self.dim)
        for i, c in v.items():
            out = out + c * self.action[i]
        return out

    def action_of_elem(self, t: TensorElement) -> Matrix:
        if t.legs != 1:
            raise ValueError("expected a 1-leg element")
        return self.action_of({i: c for (i,), c in t.coeffs.items()})

    def validate(self) -> Report:
        rep = Report(title=f"module[{self.label or 'M'}]")
        rep.add("unit_acts_as_identity", self.action_of(self.h.unit).is_identity())
        ok = True
        for i in range(self.h.dim):
            for j in range(self.h.dim):
                prod = self.action_of(self.h.mult[i][j])
                if self.action[i] * self.action[j] != prod:
                    ok = False
        rep.add("action_respects_product", ok)
        return rep

    def same_space(self, other: "HModule") -> bool:
        return self.h is other.h and self.dim == other.dim

    def __eq__(self, other):
        if not isinstance(other, HModule):
            return NotImplemented
        return self.h is other.h and self.dim == other.dim and self.action == other.action

    def __hash__(self):
        return hash((id(self.h), self.dim))

    def __repr__(self):
        return f"HModule({self.label or '?'}, dim={self.dim})"


@dataclass(eq=False)
class HLinearMap:
    """A linear map between two modules (H-linearity checkable, not assumed)."""

    source: HModule
    target: HModule
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.target.dim}x{self.source.dim}")

    def then(self, other: "HLinearMap") -> "HLinearMap":
        """Diagrammatic composition: first self, then other."""
        if other.source.dim != self.target.dim:
            raise ValueError("composition endpoint mismatch")
        return HLinearMap(self.source, other.target, self.matrix.then(other.matrix))

    def tensor(self, other: "HLinearMap") -> "HLinearMap":
        return HLinearMap(tensor(self.source, other.source),
                          tensor(self.target, other.target),
                          self.matrix.kron(other.matrix))

    def is_h_linear(self) -> bool:
        return all(self.matrix * self.source.action[i] == self.target.action[i] * self.matrix
                   for i in range(self.source.h.dim))

    def inverse(self) -> "HLinearMap":
        return HLinearMap(self.target, self.source, inverse(self.matrix))

    def __eq__(self, other):
        if not isinstance(other, HLinearMap):
            return NotImplemented
        return self.matrix == other.matrix and self.source.same_space(other.source) \
            and self.target.same_space(other.target)

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"HLinearMap({self.source.label or '?'} -> {self.target.label or '?'})"


def identity_map(m: HModule) -> HLinearMap:
    return HLinearMap(m, m, Matrix.identity(m.dim))


def zero_map(m: HModule, n: HModule) -> HLinearMap:
    return HLinearMap(m, n, Matrix.zero(n.dim, m.dim))


# ---------------------------------------------------------------------------
# basic objects

def regular_module(h: QuasiHopfAlgebra) -> HModule:
    """The algebra acting on itself by left multiplication."""
    return HModule(h, h.dim, [h.left_mult_matrix({i: ONE}) for i in range(h.dim)],
                   label="C")


def unit_module(h: QuasiHopfAlgebra) -> HModule:
    return HModule(h, 1, [Matrix.from_rows([[h.counit[i]]]) for i in range(h.dim)],
                   label="I")


def _kron_into(cols: list[dict], a: Matrix, b: Matrix, coeff) -> None:
    """cols += coeff * (a kron b), accumulating in place."""
    bcols = b.columns()
    brows = b.rows
    for ja, ca in enumerate(a.columns()):
        if not ca:
            continue
        base_j = ja * b.cols
        for jb, cb in enumerate(bcols):
            if not cb:
                continue
            col = cols[base_j + jb]
            for ia, xa in ca.items():
                base_i = ia * brows
                cxa = _canon(coeff * xa)
                for ib, xb in cb.items():
                    k = base_i + ib
                    y = col.get(k, 0) + cxa * xb
                    if y:
                        col[k] = y if type(y) is int else _canon(y)
                    else:
                        del col[k]


def tensor(m: HModule, n: HModule) -> HModule:
    """Tensor product acting through the coproduct (leftmost factor slowest)."""
    if m.h is not n.h:
        raise ValueError("tensor factors over different algebras")
    h = m.h

    def build():
        action = []
        for i in range(h.dim):
            cols: list[dict] = [dict() for _ in range(m.dim * n.dim)]
            for (j, k), c in h.comult[i].items():
                _kron_into(cols, m.action[j], n.action[k], c)
            action.append(Matrix(m.dim * n.dim, m.dim * n.dim, cols))
        return action

    return HModule(h, m.dim * n.dim, builder=build,
                   label=_paren(m.label) + "*" + _paren(n.label))


def _paren(lbl: str) -> str:
    return f"({lbl})" if "*" in lbl else lbl


def elem_action_matrix(t: TensorElement, mods: list[HModule]) -> Matrix:
    """The legwise action of a tensor-power element on a product of modules.

    The element's coefficients are scaled to integers by the lcm of their
    denominators before they meet the action matrices, and each entry of the
    sum is divided by that lcm once at the end.
    """
    if t.legs != len(mods):
        raise ValueError("leg count does not match module count")
    if not mods:
        c = t.coeffs.get((), 0)
        return Matrix(1, 1, [{0: c} if c else {}])
    total = 1
    for m in mods:
        total *= m.dim
    den = _lcm_denominator(t.coeffs.values()) or 1
    cols: list[dict] = [dict() for _ in range(total)]
    heads: dict[tuple, Matrix] = {}  # action on all legs but the last, per index prefix
    for idx, c in _scaled(t.coeffs, den).items():
        lead = idx[:-1]
        if lead not in heads:
            head = None
            for i, m in zip(lead, mods):
                head = m.action[i] if head is None else head.kron(m.action[i])
            heads[lead] = Matrix.identity(1) if head is None else head
        _kron_into(cols, heads[lead], mods[-1].action[idx[-1]], c)
    if den != 1:
        cols = [{i: _div(x, den) for i, x in col.items()} for col in cols]
    return Matrix(total, total, cols)


def associator(m: HModule, n: HModule, p: HModule) -> HLinearMap:
    """(m (x) n) (x) p -> m (x) (n (x) p), the action of the associator element."""
    h = m.h
    src = tensor(tensor(m, n), p)
    dst = tensor(m, tensor(n, p))
    return HLinearMap(src, dst, elem_action_matrix(h.phi, [m, n, p]))


def associator_inv(m: HModule, n: HModule, p: HModule) -> HLinearMap:
    h = m.h
    src = tensor(m, tensor(n, p))
    dst = tensor(tensor(m, n), p)
    return HLinearMap(src, dst, elem_action_matrix(h.phi_inv, [m, n, p]))


def unit_left_elim(m: HModule) -> HLinearMap:
    """I (x) m -> m by coefficient extraction (flat spaces coincide)."""
    return HLinearMap(tensor(unit_module(m.h), m), m, Matrix.identity(m.dim))


def unit_right_elim(m: HModule) -> HLinearMap:
    return HLinearMap(tensor(m, unit_module(m.h)), m, Matrix.identity(m.dim))


# ---------------------------------------------------------------------------
# hom spaces

def hom_space(m: HModule, n: HModule) -> list[HLinearMap]:
    """An exact basis of the module maps m -> n."""
    if m.h is not n.h:
        raise ValueError("modules over different algebras")
    h = m.h
    nv = n.dim * m.dim  # unknown F[i, j] at index i*m.dim + j
    sys = LinearSystem(nv)
    for t in range(h.dim):
        p_cols = m.action[t].columns()
        q = n.action[t]
        q_rows = q.row_view()
        # (F . rho_m(e_t) - rho_n(e_t) . F)[i, j] = 0
        for i in range(n.dim):
            qr = q_rows[i]
            for j in range(m.dim):
                coeffs: dict[int, Fraction] = {}
                for k, x in p_cols[j].items():
                    coeffs[i * m.dim + k] = coeffs.get(i * m.dim + k, ZERO) + x
                for k, x in qr.items():
                    key = k * m.dim + j
                    acc = coeffs.get(key, ZERO) - x
                    if acc:
                        coeffs[key] = acc
                    else:
                        coeffs.pop(key, None)
                if coeffs:
                    sys.add_equation(coeffs)
    out = []
    for vec in sys.kernel_basis():
        cols = [dict() for _ in range(m.dim)]
        for idx, c in vec.items():
            i, j = divmod(idx, m.dim)
            cols[j][i] = c
        out.append(HLinearMap(m, n, Matrix(n.dim, m.dim, cols)))
    return out


def hom_dim(m: HModule, n: HModule) -> int:
    return len(hom_space(m, n))


# ---------------------------------------------------------------------------
# inner hom

class InnerHomModule(HModule):
    """Lin(src, tgt) with the antipode-twisted action; basis E_ij at i*dim(src)+j."""

    def __init__(self, h, dim, action=None, label="", builder=None, src=None, tgt=None):
        super().__init__(h, dim, action, label, builder)
        self.src = src
        self.tgt = tgt

    def map_to_flat(self, mat: Matrix) -> dict:
        out = {}
        for j, col in enumerate(mat.columns()):
            for i, x in col.items():
                out[i * self.src.dim + j] = x
        return out

    def flat_to_map(self, vec: dict) -> HLinearMap:
        cols = [dict() for _ in range(self.src.dim)]
        for idx, c in vec.items():
            i, j = divmod(idx, self.src.dim)
            cols[j][i] = c
        return HLinearMap(self.src, self.tgt, Matrix(self.tgt.dim, self.src.dim, cols))


def inner_hom(m: HModule, n: HModule) -> InnerHomModule:
    """innhom(m, n): the full linear maps with (h |> f) = h_(1) |> f(S(h_(2)) |> -)."""
    h = m.h

    def build():
        action = []
        for t in range(h.dim):
            cols: list[dict] = [dict() for _ in range(m.dim * n.dim)]
            for (j, k), c in h.comult[t].items():
                _kron_into(cols, n.action[j],
                           m.action_of(h.s_vec({k: ONE})).transpose(), c)
            action.append(Matrix(m.dim * n.dim, m.dim * n.dim, cols))
        return action

    return InnerHomModule(h, m.dim * n.dim, builder=build,
                          label=f"innH({m.label or '?'},{n.label or '?'})",
                          src=m, tgt=n)


def eeta(m: HModule, p: HModule) -> HLinearMap:
    """The adjunction unit m -> innhom(p, m (x) p)."""
    h = m.h
    mp = tensor(m, p)
    ih = inner_hom(p, mp)
    cols = []
    for u in range(m.dim):
        col: dict[int, Fraction] = {}
        for (a, b, c), cf in h.phi_inv.coeffs.items():
            va = m.action[a].col(u)
            w = h.prod_chain([{b: ONE}, h.beta_vec, h.s_vec({c: ONE})])
            wmat = p.action_of(w)
            for i, xi in va.items():
                for (q2, src), val in _iter_entries(wmat):
                    key = ((i * p.dim + q2) * p.dim) + src
                    acc = col.get(key, ZERO) + cf * xi * val
                    if acc:
                        col[key] = acc
                    else:
                        col.pop(key, None)
        cols.append(col)
    return HLinearMap(m, ih, Matrix(ih.dim, m.dim, cols))


def _iter_entries(mat: Matrix):
    for j, col in enumerate(mat.columns()):
        for i, x in col.items():
            yield (i, j), x


def eeps(n: HModule, p: HModule) -> HLinearMap:
    """The adjunction counit innhom(p, n) (x) p -> n."""
    h = n.h
    ih = inner_hom(p, n)
    src = tensor(ih, p)
    cols = [dict() for _ in range(src.dim)]
    for (a, b, c), cf in h.phi.coeffs.items():
        z = p.action_of(h.prod_chain([h.s_vec({b: ONE}), h.alpha_vec, {c: ONE}]))
        r = n.action[a]
        rcols = r.columns()
        zcols = z.columns()
        for u in range(p.dim):
            for w, zwu in zcols[u].items():
                # basis f = E_{v,w} eats z and leaves e_v, then rho_n(Phi^1)
                for v in range(n.dim):
                    col = cols[(v * p.dim + w) * p.dim + u]
                    vec_add_scaled(col, rcols[v], cf * zwu)
    return HLinearMap(src, n, Matrix(n.dim, src.dim, cols))


def icomp(x: HModule, y: HModule, z: HModule) -> HLinearMap:
    """Inner composition innhom(y,z) (x) innhom(x,y) -> innhom(x,z)."""
    h = x.h
    ihyz, ihxy, ihxz = inner_hom(y, z), inner_hom(x, y), inner_hom(x, z)
    src = tensor(ihyz, ihxy)
    cols = [dict() for _ in range(src.dim)]
    for (A, B, C), cphi in h.phi.coeffs.items():
        for (r, s), cdel in h.comult[C].items():
            for (a, b, c), cpsi in h.phi_inv.coeffs.items():
                coeff0 = cphi * cdel * cpsi
                m1 = x.action_of(h.s_vec(h.mul_vec({c: ONE}, {s: ONE})))
                m2 = y.action_of(h.prod_chain(
                    [h.s_vec(h.mul_vec({a: ONE}, {B: ONE})), h.alpha_vec, {b: ONE}, {r: ONE}]))
                m3cols = z.action[A].columns()
                m1rows = m1.row_view()
                for v in range(z.dim):
                    zcol = m3cols[v]
                    if not zcol:
                        continue
                    for w in range(y.dim):
                        gidx = v * y.dim + w
                        for p in range(y.dim):
                            m2wp = m2.entry(w, p)
                            if not m2wp:
                                continue
                            cc = coeff0 * m2wp
                            for q in range(x.dim):
                                row = m1rows[q]
                                if not row:
                                    continue
                                col = cols[gidx * x.dim * y.dim + p * x.dim + q]
                                for zz, zv in zcol.items():
                                    for xx, xv in row.items():
                                        key = zz * x.dim + xx
                                        acc = col.get(key, ZERO) + cc * zv * xv
                                        if acc:
                                            col[key] = acc
                                        else:
                                            col.pop(key, None)
    return HLinearMap(src, ihxz, Matrix(ihxz.dim, src.dim, cols))


def inner_post(f: HLinearMap, p: HModule) -> HLinearMap:
    """innhom(p, src f) -> innhom(p, tgt f) by postcomposition with f."""
    src = inner_hom(p, f.source)
    dst = inner_hom(p, f.target)
    return HLinearMap(src, dst, f.matrix.kron(Matrix.identity(p.dim)))


def adjunction_report(m: HModule, p: HModule) -> Report:
    """Both triangle identities of the tensor-hom adjunction, exactly."""
    rep = Report(title=f"adjunction[{m.label or 'M'},{p.label or 'P'}]")
    mp = tensor(m, p)
    unit_map = eeta(m, p)
    counit_map = eeps(mp, p)
    rep.add("eta_h_linear", unit_map.is_h_linear())
    rep.add("eps_h_linear", counit_map.is_h_linear())
    tri1 = unit_map.tensor(identity_map(p)).then(counit_map)
    rep.add("triangle_on_tensor", tri1.matrix == Matrix.identity(mp.dim))

    ih = inner_hom(p, m)
    tri2 = eeta(ih, p).then(inner_post(eeps(m, p), p))
    rep.add("triangle_on_innhom", tri2.matrix == Matrix.identity(ih.dim))
    return rep


def in_map(m: HModule, x: HModule, y: HModule) -> HLinearMap:
    """The interchange m (x) innhom(x,y) -> innhom(x, m (x) y)."""
    h = m.h
    ihxy = inner_hom(x, y)
    my = tensor(m, y)
    ih2 = inner_hom(x, my)
    src = tensor(m, ihxy)
    cols = [dict() for _ in range(src.dim)]
    for (a, b, c), cf in h.phi_inv.coeffs.items():
        am = m.action[a]
        bm = y.action[b]
        cm = x.action_of(h.s_vec({c: ONE}))
        cmrows = cm.row_view()
        bcols = bm.columns()
        for u in range(m.dim):
            acol = am.col(u)
            if not acol:
                continue
            for p in range(y.dim):
                bp = bcols[p]
                for q in range(x.dim):
                    row = cmrows[q]
                    if not row:
                        continue
                    col = cols[u * ihxy.dim + p * x.dim + q]
                    for mm, mv in acol.items():
                        for yy, yv in bp.items():
                            tgt = mm * y.dim + yy
                            for xx, xv in row.items():
                                key = tgt * x.dim + xx
                                acc = col.get(key, ZERO) + cf * mv * yv * xv
                                if acc:
                                    col[key] = acc
                                else:
                                    col.pop(key, None)
    return HLinearMap(src, ih2, Matrix(ih2.dim, src.dim, cols))


# ---------------------------------------------------------------------------
# duals

def left_dual(m: HModule) -> tuple[HModule, HLinearMap, HLinearMap]:
    """(dual module, evaluation, coevaluation) for the left dual."""
    h = m.h
    dual = HModule(h, m.dim, [m.action_of(h.s_vec({i: ONE})).transpose()
                              for i in range(h.dim)],
                   label=f"ldual({m.label or '?'})")
    unit = unit_module(h)
    ev_mat = Matrix(1, m.dim * m.dim, [dict() for _ in range(m.dim * m.dim)])
    alpha_act = m.action_of(h.alpha_vec)
    cols = []
    for j in range(m.dim):
        for mm in range(m.dim):
            x = alpha_act.entry(j, mm)
            cols.append({0: x} if x else {})
    ev = HLinearMap(tensor(dual, m), unit, Matrix(1, m.dim * m.dim, cols))
    beta_act = m.action_of(h.beta_vec)
    coev_col: dict[int, Fraction] = {}
    for (mm, j), x in _iter_entries(beta_act):
        coev_col[mm * m.dim + j] = x
    coev = HLinearMap(unit, tensor(m, dual), Matrix(m.dim * m.dim, 1, [coev_col]))
    return dual, ev, coev


def right_dual(m: HModule) -> tuple[HModule, HLinearMap, HLinearMap]:
    h = m.h
    dual = HModule(h, m.dim, [m.action_of(h.s_inv_vec({i: ONE})).transpose()
                              for i in range(h.dim)],
                   label=f"rdual({m.label or '?'})")
    unit = unit_module(h)
    a_act = m.action_of(h.s_inv_vec(h.alpha_vec))
    cols = []
    for mm in range(m.dim):
        for j in range(m.dim):
            x = a_act.entry(j, mm)
            cols.append({0: x} if x else {})
    ev = HLinearMap(tensor(m, dual), unit, Matrix(1, m.dim * m.dim, cols))
    b_act = m.action_of(h.s_inv_vec(h.beta_vec))
    coev_col: dict[int, Fraction] = {}
    for (mm, j), x in _iter_entries(b_act):
        coev_col[j * m.dim + mm] = x
    coev = HLinearMap(unit, tensor(dual, m), Matrix(m.dim * m.dim, 1, [coev_col]))
    return dual, ev, coev


def snake_report(m: HModule) -> Report:
    """Both zig-zag composites for both duals, with associators inserted."""
    rep = Report(title=f"duals[{m.label or 'M'}]")
    h = m.h
    ld, ev, coev = left_dual(m)
    idm, idd = identity_map(m), identity_map(ld)

    z1 = coev.tensor(idm).then(associator(m, ld, m)).then(idm.tensor(ev))
    rep.add("left_snake_on_M", z1.matrix == Matrix.identity(m.dim))
    z2 = idd.tensor(coev).then(associator_inv(ld, m, ld)).then(ev.tensor(idd))
    rep.add("left_snake_on_dual", z2.matrix == Matrix.identity(ld.dim))

    rd, rev, rcoev = right_dual(m)
    idr = identity_map(rd)
    z3 = idm.tensor(rcoev).then(associator_inv(m, rd, m)).then(rev.tensor(idm))
    rep.add("right_snake_on_M", z3.matrix == Matrix.identity(m.dim))
    z4 = rcoev.tensor(idr).then(associator(rd, m, rd)).then(idr.tensor(rev))
    rep.add("right_snake_on_dual", z4.matrix == Matrix.identity(rd.dim))
    return rep


# ---------------------------------------------------------------------------
# the end over the regular generator

@dataclass
class EndComputation:
    """The end of x -> innhom(x, P (x) x (x) Q) computed over the generator.

    ``kernel_basis`` is the intersection of the kernels of f* - f_* inside
    innhom(C, P (x) C (x) Q), over a hom-space basis of C; ``closed_form`` is
    the span of the middle-leg left multiplications; the report records their
    exact agreement.
    """

    p: HModule
    q: HModule
    kernel_basis: list[dict]
    closed_form: list[dict]
    report: Report


def end_over_regular(h: QuasiHopfAlgebra, p: HModule, q: HModule) -> EndComputation:
    c = regular_module(h)
    n = h.dim
    inner_dim = p.dim * n * q.dim       # target P (x) C (x) Q
    w_dim = inner_dim * n               # Lin(C, target)
    homs = hom_space(c, c)

    sys = LinearSystem(w_dim)
    for f in homs:
        fm = f.matrix
        amid = Matrix.identity(p.dim).kron(fm).kron(Matrix.identity(q.dim))
        # equations ((id x f x id) . g - g . f)[t, s] = 0
        arows = amid.row_view()
        fcols = fm.columns()
        for t in range(inner_dim):
            arow = arows[t]
            for s in range(n):
                coeffs: dict[int, Fraction] = {}
                for t2, x in arow.items():
                    coeffs[t2 * n + s] = coeffs.get(t2 * n + s, ZERO) + x
                for s2, x in fcols[s].items():
                    key = t * n + s2
                    acc = coeffs.get(key, ZERO) - x
                    if acc:
                        coeffs[key] = acc
                    else:
                        coeffs.pop(key, None)
                if coeffs:
                    sys.add_equation(coeffs)
    kernel = sys.kernel_basis()

    closed = []
    for pp in range(p.dim):
        for a in range(n):
            for qq in range(q.dim):
                vec: dict[int, Fraction] = {}
                for s in range(n):
                    for k, cc in h.mult[a][s].items():
                        tgt = (pp * n + k) * q.dim + qq
                        vec[tgt * n + s] = cc
                closed.append(vec)

    rep = Report(title=f"end[{p.label or 'P'},{q.label or 'Q'}]")
    expected = p.dim * n * q.dim
    rep.add("kernel_dimension", len(kernel) == expected,
            f"got {len(kernel)}, expected {expected}")
    rep.add("closed_form_dimension", len(closed) == expected)
    rep.add("spans_agree", spans_equal(kernel, closed))
    return EndComputation(p, q, kernel, closed, rep)
