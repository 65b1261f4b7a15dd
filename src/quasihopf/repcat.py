"""The monoidal category of finite-dimensional left modules.

Modules are given by one action matrix per basis element of the algebra;
tensor products act through the coproduct, and the associator is the action
of the associator element (both bracketings of a triple product share one
flat index set, so the associator is that single matrix and nothing else).

Also here: inner homs with their adjunction unit/counit, the inner
composition, the hom-tensor interchange map, left and right duals, and the
end of x |-> innhom(x, P (x) x (x) Q) computed over the regular generator two
independent ways.

Everything that acts by a tensor element goes through one primitive,
qha.elem_action_matrix (imported here, a module being one kind of slot):
tensor products, associators, the inner-hom actions, the adjunction unit and
counit, the inner composition and the interchange are each one such call.

Hom spaces, centre hom spaces and right-module hom spaces share one solver,
intertwiners: the maps F with F . P = Q . F for a list of pairs (P, Q).  It
spins the source module from a few unit-vector generators instead of solving
for all dim(m) * dim(n) entries of F: the unknowns are the values of F on
the generators, every image of a spanning vector that adds nothing new is a
relation, and each relation gives dim(n) equations, of which the solver
adds each distinct nonzero one once.  The kernel is mapped back to matrices
and certified exactly, all at once, with the basis side by side in one
matrix [F_1 | F_2 | ...] checked against every pair.

The same pairs define membership: intertwines(F, pairs) is the one morphism
test, behind is_h_linear, the solver's certificate and every coaction and
right-action check (center.coaction_pairs, AlgebraA.mu_pairs, mod_a.amodule_pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import (Echelon, LinearSystem, Matrix, ONE, _add_shifted, _int_rows, inverse,
                     spans_equal)
from .qha import (Frozen, QuasiHopfAlgebra, TensorElement, alpha_contraction,
                  beta_contraction, elem_action_matrix, product_element)
from .report import Report, VerificationFailure


class HModule(Frozen):
    """A finite-dimensional left module: one action matrix per basis element.

    Action matrices may be supplied directly or through a builder thunk;
    derived modules (tensor products, inner homs) stay cheap wrappers until
    someone actually asks for their action.  A module is immutable; its
    memo holds heart(m) and heart_amodule(a, m).

    Equality is decided by construction first and by action second.  A
    derived module carries a construction key such as ("tensor", m, n); two
    modules over the same algebra with the same dimension and equal keys
    (operands compared by ==, recursively) are equal without building either
    action.  Otherwise == compares the action matrices, so (C*C)*C and
    C*(C*C) stay equal whenever their actions are.  A key may name only
    operands of which the action is a pure function (given h); a module
    built any other way (quotients, duals, modules read from files) has none.
    """

    def __init__(self, h: QuasiHopfAlgebra, dim: int, action: list[Matrix] | None = None,
                 label: str = "", builder=None, key: tuple | None = None):
        if action is None and builder is None:
            raise ValueError("module needs action matrices or a builder")
        # one update, _memo last (see Frozen): the per-attribute freeze check
        # would triple the cost of the thousands of modules a check builds
        vars(self).update(h=h, dim=dim, label=label, _action=action, _builder=builder,
                          _key=key, _memo={})
        if action is not None:
            self._check_action(action)

    def _check_action(self, action: list[Matrix]) -> list[Matrix]:
        if len(action) != self.h.dim:
            raise ValueError("need one action matrix per algebra basis element")
        for m in action:
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("action matrix shape does not match module dimension")
        return action

    @property
    def action(self) -> list[Matrix]:
        if self._action is None:  # built once, on first use: the one write after freezing
            vars(self).update(_action=self._check_action(self._builder()), _builder=None)
        return self._action

    def action_of(self, v: dict) -> Matrix:
        """The action of an algebra element with coefficient vector v."""
        return elem_action_matrix(TensorElement(self.h.dim, 1, v), [self])

    def validate(self) -> Report:
        """The action act: H (x) M -> M (column i d + v is e_i |> v) is unital
        and associative: act(u (x) 1) = 1 and act(m (x) 1) = act(1 (x) act)."""
        rep = Report(title=f"module[{self.label or 'M'}]")
        act, maps, one = Matrix.hstack(self.action), self.h.structure(), Matrix.identity(self.dim)
        rep.add("unit_acts_as_identity", (act * maps.u.kron(one)).is_identity())
        rep.add("action_respects_product",
                act * maps.m.kron(one) == act * Matrix.identity(self.h.dim).kron(act))
        return rep

    def same_space(self, other: "HModule") -> bool:
        return self.h is other.h and self.dim == other.dim

    def __eq__(self, other):
        if not isinstance(other, HModule):
            return NotImplemented
        if self is other:
            return True
        if not self.same_space(other):
            return False
        return (self._key is not None and self._key == other._key) \
            or self.action == other.action

    def __hash__(self):
        return hash((id(self.h), self.dim))

    def __repr__(self):
        return f"HModule({self.label or '?'}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
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
        return intertwines(self.matrix, zip(self.source.action, self.target.action))

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


# ---------------------------------------------------------------------------
# basic objects

def regular_module(h: QuasiHopfAlgebra) -> HModule:
    """The algebra acting on itself by left multiplication."""
    return HModule(h, h.dim, [h.left_mult_matrix(h.basis_elem(i)) for i in range(h.dim)],
                   label="C", key=("C",))


def unit_module(h: QuasiHopfAlgebra) -> HModule:
    return HModule(h, 1, [Matrix.from_rows([[h.counit[i]]]) for i in range(h.dim)],
                   label="I", key=("I",))


def tensor(m: HModule, n: HModule) -> HModule:
    """Tensor product acting through the coproduct (leftmost factor slowest)."""
    if m.h is not n.h:
        raise ValueError("tensor factors over different algebras")
    return HModule(m.h, m.dim * n.dim, builder=lambda: list(tensor_actions(m, n)),
                   label=_paren(m.label) + "*" + _paren(n.label), key=("tensor", m, n))


def tensor_actions(m: HModule, n: HModule):
    """The actions of Delta(e_i) on m (x) n, one at a time in basis order: the
    action of tensor(m, n), for a caller that needs each matrix only once."""
    h = m.h
    for i in range(h.dim):
        yield elem_action_matrix(TensorElement._of(h.dim, 2, h.comult[i]), [m, n])


def _paren(lbl: str) -> str:
    return f"({lbl})" if "*" in lbl else lbl


def _flattened(mats: list[Matrix], as_row: bool) -> list[Matrix]:
    """Each r x c matrix as one row (1 x rc) or one column (rc x 1), entry
    (i, j) at i * c + j: a functional on, or a vector of, the maps."""
    out = []
    for m in mats:
        den, icols = m._int_form()
        flat = {i * m.cols + j: x for j, col in enumerate(icols) for i, x in col.items()}
        size = m.rows * m.cols
        if as_row:
            out.append(Matrix._of(1, size, den, [{0: flat[k]} if k in flat else {}
                                                 for k in range(size)]))
        else:
            out.append(Matrix._of(size, 1, den, [flat]))
    return out


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


# ---------------------------------------------------------------------------
# hom spaces

def intertwines(f: Matrix, pairs) -> bool:
    """F . P = Q . F for every (P, Q) in pairs: the condition intertwiners solves."""
    return all(f * p == q * f for p, q in pairs)


def intertwiners(m: HModule, n: HModule, pairs) -> list[HLinearMap]:
    """An exact basis of the linear maps F: m -> n with F . P = Q . F for every
    (P, Q) in pairs (P an endomorphism of m's space, Q of n's).

    Spinning (the MeatAxe route to hom spaces): m is spanned by images
    s_j = P_w g_i of a few unit-vector generators g_i under words w in the
    P's, so F is fixed by the values u_i = F(g_i): F(s_j) = Q_w u_i = W_j u_i.
    Every image P_k s_j that is not a new spanning vector is a relation
    t P_k s_j + sum_l t_l s_l = 0, read off the spinning echelon through
    negative tags (as LinearSystem does for right hand sides), and gives the
    equations t Q_k W_j u_i + sum_l t_l W_l u_{i_l} = 0 over G * dim(n)
    unknowns, each distinct nonzero one added once.  The kernel is mapped
    back to the standard basis, and the whole basis is certified at once,
    exactly, against every pair.
    """
    dm, dn = m.dim, n.dim
    pairs = [(p, q) for p, q in pairs if not (p.is_identity() and q.is_identity())]
    q_ints = [q._int_row_view() for _, q in pairs]
    ech = Echelon()
    # spanning vectors (s_j, i_j, W_j, den_j, rows_j), W_j = rows_j / den_j
    # with integer rows; s_j carries the tag -1-j in the echelon
    spin: list[tuple[dict, int, Matrix, int, list[dict]]] = []
    sys = LinearSystem(0)  # u_i[a] at index i * dn + a
    added: set[frozenset] = set()  # the equations in sys: a repeat would reduce to zero

    def reduce(v: dict) -> dict:
        """t v + sum_l t_l s_l with t at tag -1-len(spin): a new spanning vector
        when an index >= 0 survives, otherwise a relation."""
        return ech.reduce({**v, -1 - len(spin): ONE})

    def grow(r: dict, v: dict, gen: int, w: Matrix) -> None:
        ech.insert(r)
        spin.append((v, gen, w, *w._int_row_view()))

    def relation(r: dict, gen: int, k: int, j: int) -> None:
        """t Q_k W_j u_gen + sum_l t_l W_l u_{i_l} = 0, cleared of denominators."""
        t = r.pop(-1 - len(spin))
        dq, q_rows = q_ints[k]
        *_, dw, w_rows = spin[j]
        den = lcm(dq * dw, *(spin[-1 - l][3] for l in r))
        eqs: list[dict] = [dict() for _ in range(dn)]
        t *= den // (dq * dw)
        for a, q_row in enumerate(q_rows):
            for b, x in q_row.items():
                _add_shifted(eqs[a], w_rows[b], t * x, gen * dn)
        for l, x in r.items():
            _, i, _, d_l, rows = spin[-1 - l]
            x *= den // d_l
            for a, row in enumerate(rows):
                _add_shifted(eqs[a], row, x, i * dn)
        for eq in eqs:
            if eq and (key := frozenset(eq.items())) not in added:
                added.add(key)
                sys.add_equation(eq)

    gens = 0
    for c in range(dm):
        r = reduce({c: ONE})
        if max(r) < 0:
            continue  # e_c is spanned already; that is no relation of the module
        grow(r, {c: ONE}, gens, Matrix.identity(dn))
        j = len(spin) - 1
        while j < len(spin):
            v, _, w, _, _ = spin[j]
            for k, (p, q) in enumerate(pairs):
                pv = p.apply(v)
                r = reduce(pv)
                if max(r) >= 0:
                    grow(r, pv, gens, q * w)
                else:
                    relation(r, gens, k, j)
            j += 1
        gens += 1
    sys.nvars = gens * dn  # the number of unknowns is known once m is spun
    kernel = [_int_rows(u) for u in sys.kernel_basis()]
    if not kernel:
        return []

    # den * F(s_l) for every kernel vector at once, vector rho stacked at
    # rho * dn; then F(e_c) = sum_l c_l F(s_l), with c the coordinates of
    # e_c in the spanning vectors, read off their tags
    den = lcm(*(s[3] for s in spin))
    by_unknown: list[list[tuple[int, int]]] = [[] for _ in range(gens * dn)]
    for rho, u in enumerate(kernel):
        for k, x in u.items():
            by_unknown[k].append((rho * dn, x))
    stacked = []
    for _, i, w, d, _ in spin:
        y: dict = {}
        for b, col in enumerate(w._int_form()[1]):
            for base, x in by_unknown[i * dn + b]:
                _add_shifted(y, col, x * (den // d), base)
        stacked.append(y)
    fs = Matrix._of(len(kernel) * dn, dm, den, stacked) * Matrix._of(
        dm, dm, *ech.coordinates(dm, -1 - dm))
    # side by side, [F_0 | F_1 | ...] (dn x K dm): F P = Q F for every basis
    # map F at once, without the padded I_K (x) Q
    flat = _unstacked(fs, dn)
    if not all(_unstacked(fs * p, dn) == q * flat for p, q in pairs):
        raise VerificationFailure("spun hom-space basis fails its exact certificate")
    return [HLinearMap(m, n, flat.select(range(rho * dm, (rho + 1) * dm)))
            for rho in range(len(kernel))]


def _unstacked(fs: Matrix, dn: int) -> Matrix:
    """The blocks of dn rows of fs, side by side: row rho * dn + a, column c
    goes to row a, column rho * fs.cols + c."""
    den, icols = fs._int_form()
    out = [dict() for _ in range(fs.rows // dn * fs.cols)]
    for c, col in enumerate(icols):
        for k, x in col.items():
            rho, a = divmod(k, dn)
            out[rho * fs.cols + c][a] = x
    return Matrix._of(dn, len(out), den, out)


def hom_space(m: HModule, n: HModule) -> list[HLinearMap]:
    """An exact basis of the module maps m -> n."""
    if m.h is not n.h:
        raise ValueError("modules over different algebras")
    return intertwiners(m, n, zip(m.action, n.action))


# ---------------------------------------------------------------------------
# inner hom

def inner_hom(m: HModule, n: HModule) -> HModule:
    """innhom(m, n): the full linear maps with (h |> f) = h_(1) |> f(S(h_(2)) |> -);
    the map with matrix F is the vector with entry F[i, j] at i * dim(m) + j."""
    h = m.h

    def build():
        m_t = [a.transpose() for a in m.action]
        return [elem_action_matrix(h.apply_leg(TensorElement._of(h.dim, 2, h.comult[t]), 2,
                                               h.antipode), [n, m_t])
                for t in range(h.dim)]

    return HModule(h, m.dim * n.dim, builder=build,
                   label=f"innH({m.label or '?'},{n.label or '?'})", key=("innh", m, n))


def eeta(m: HModule, p: HModule) -> HLinearMap:
    """The adjunction unit m -> innhom(p, m (x) p): u |-> q1 u (x) (q2 beta S(q3) |> -)."""
    ih = inner_hom(p, tensor(m, p))
    return HLinearMap(m, ih, elem_action_matrix(beta_contraction(m.h),
                                                [m, _flattened(p.action, as_row=False)]))


def eeps(n: HModule, p: HModule) -> HLinearMap:
    """The adjunction counit innhom(p, n) (x) p -> n: f (x) u |-> P1 f(S(P2) alpha P3 |> u)."""
    src = tensor(inner_hom(p, n), p)
    return HLinearMap(src, n, elem_action_matrix(alpha_contraction(n.h),
                                                 [n, _flattened(p.action, as_row=True)]))


def icomp(x: HModule, y: HModule, z: HModule) -> HLinearMap:
    """Inner composition innhom(y,z) (x) innhom(x,y) -> innhom(x,z):
    f (x) g |-> E1 f (S(E2) alpha E3) g (S(E4)), see qha.product_element."""
    src = tensor(inner_hom(y, z), inner_hom(x, y))
    ihxz = inner_hom(x, z)
    return HLinearMap(src, ihxz, elem_action_matrix(
        product_element(x.h), [z, _flattened(y.action, as_row=True),
                               [a.transpose() for a in x.action]]))


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
    """The interchange m (x) innhom(x,y) -> innhom(x, m (x) y):
    u (x) f |-> (q1 |> u) (x) q2 f(S(q3) -)."""
    h = m.h
    src = tensor(m, inner_hom(x, y))
    ih2 = inner_hom(x, tensor(m, y))
    return HLinearMap(src, ih2, elem_action_matrix(
        h.apply_leg(h.phi_inv, 3, h.antipode), [m, y, [a.transpose() for a in x.action]]))


# ---------------------------------------------------------------------------
# duals

def left_dual(m: HModule) -> tuple[HModule, HLinearMap, HLinearMap]:
    """(dual module, evaluation, coevaluation) for the left dual."""
    h = m.h
    dual = HModule(h, m.dim, [m.action_of(h.antipode.col(i)).transpose() for i in range(h.dim)],
                   label=f"ldual({m.label or '?'})")
    unit = unit_module(h)
    a_act, b_act = (elem_action_matrix(c, [m]) for c in (h.alpha, h.beta))
    ev = HLinearMap(tensor(dual, m), unit, _flattened([a_act], True)[0])
    coev = HLinearMap(unit, tensor(m, dual), _flattened([b_act], False)[0])
    return dual, ev, coev


def right_dual(m: HModule) -> tuple[HModule, HLinearMap, HLinearMap]:
    h, s_inv = m.h, m.h.antipode_inv
    dual = HModule(h, m.dim, [m.action_of(s_inv.col(i)).transpose() for i in range(h.dim)],
                   label=f"rdual({m.label or '?'})")
    unit = unit_module(h)
    a_act, b_act = (elem_action_matrix(h.apply_leg(c, 1, s_inv), [m]).transpose()
                    for c in (h.alpha, h.beta))   # S^-1(alpha), S^-1(beta) acting, transposed
    ev = HLinearMap(tensor(m, dual), unit, _flattened([a_act], True)[0])
    coev = HLinearMap(unit, tensor(dual, m), _flattened([b_act], False)[0])
    return dual, ev, coev


def snake_report(m: HModule) -> Report:
    """Both zig-zag composites for both duals, with associators inserted."""
    rep = Report(title=f"duals[{m.label or 'M'}]")
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
    target = tensor(tensor(p, c), q)        # P (x) C (x) Q
    pairs = [(f.matrix, Matrix.identity(p.dim).kron(f.matrix).kron(Matrix.identity(q.dim)))
             for f in hom_space(c, c)]
    # g . f = (id (x) f (x) id) . g, with g[i, j] flattened row-major to i * n + j
    kernel = [{k: x for k, x in enumerate(g.matrix.to_flat()) if x}
              for g in intertwiners(c, target, pairs)]

    # the middle-leg left multiplications e_pp (x) L_a (x) e_qq, read off the table
    # (independently of regular_module) and flattened the same way
    closed = [{((pp * n + k) * q.dim + qq) * n + s: cc
               for s in range(n) for k, cc in h.mult[a][s].items()}
              for pp in range(p.dim) for a in range(n) for qq in range(q.dim)]

    rep = Report(title=f"end[{p.label or 'P'},{q.label or 'Q'}]")
    expected = p.dim * n * q.dim
    rep.add("kernel_dimension", len(kernel) == expected,
            f"got {len(kernel)}, expected {expected}")
    rep.add("closed_form_dimension", len(closed) == expected)
    rep.add("spans_agree", spans_equal(kernel, closed))
    return EndComputation(p, q, kernel, closed, rep)
