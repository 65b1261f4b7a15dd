"""The canonical algebra on the underlying space of H, and the heart functor.

The end of x -> innhom(x, x) is realized on H itself (by the generator
computation): the module structure is the adjoint action, the product and
the action on every module come out as explicit sandwich formulas in the
associator, and the braiding against everything is extracted through the
bijection between maps into Y (x) heart(M) and natural families
X (x) T -> Y (x) T (x) M.

heart(M) is the end of x -> innhom(x, x (x) M), realized on H (x) M.  Its
right action by the algebra, the "evaluation" family heart(M) (x) X ->
X (x) M, the projection to M, the lax monoidal composition, and the
comparison isomorphisms with the free module M (x) A all live here.
The coaction of heart(M) is its braiding past C at the unit of C, built on
those columns only (extract_center_structure); nat_to_hom reads end
coordinates through the same certificate, _end_coordinates.

Each sandwich formula (the action and right action of heart(M), the
evaluation, the product of the algebra, the twist comparing Y (x) heart(M)
with the end) is a tensor element built from the associator in qha
(spreading, antipodes, fused legs) and acted through
repcat.elem_action_matrix, followed by a fixed structure map: the product of
two H legs or a reordering of columns.  heart_mu_direct
keeps the raw product formula as an independent route.

build_A, (kappa, lambda, kappa^-1) and the extraction element are built once
per algebra, in its memo; heart(m) once per module, in the module's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import Matrix, ONE, ZERO, vec_add_scaled
from .qha import (Frozen, QuasiHopfAlgebra, TensorElement, _s_alpha, alpha_contraction,
                  beta_contraction, kappa_inverse, kappa_lambda, product_element)
from .report import Report, VerificationFailure
from .center import (CenterObject, _h_leg_blocks, braiding, braiding_inv, coaction_pairs,
                     tensor_center)
from .repcat import (HLinearMap, HModule, elem_action_matrix, hom_space, intertwines,
                     regular_module, tensor, unit_module)


# ---------------------------------------------------------------------------
# heart spaces and their structure maps (A-independent layer)

def heart_base(h: QuasiHopfAlgebra, m: HModule) -> HModule:
    """The module underlying heart(m): H (x) m with the conjugation action.

    h |> (a (x) v) = (h_(1)(1) . a . S(h_(2))) (x) (h_(1)(2) |> v), read off
    from the twisted action on Lin(C, C (x) m) at the left-multiplication
    representatives.
    """
    def build():
        return [elem_action_matrix(h.apply_leg(h.spread(h.basis_elem(i), [(1, 3, 2)], 3),
                                               2, h.antipode), [h.sandwich, m])
                for i in range(h.dim)]

    return HModule(h, h.dim * m.dim, builder=build, label=f"heart({m.label or '?'})",
                   key=("heart", m))


def _mult_outer(h: QuasiHopfAlgebra, d: int) -> Matrix:
    """H (x) V (x) H -> H (x) V, a (x) v (x) b |-> ab (x) v, for a space V of dimension d."""
    return Matrix(h.dim * d, h.dim * d * h.dim,
                  [{k * d + v: c for k, c in h.mult[a][b].items()}
                   for a in range(h.dim) for v in range(d) for b in range(h.dim)])


def _cached_kappa_lambda(h: QuasiHopfAlgebra):
    """(kappa, lambda, kappa^-1), computed once per algebra (memoized on h)."""
    def make():
        kappa, lam = kappa_lambda(h)
        return kappa, lam, kappa_inverse(h, kappa)
    return h.memo("kappa_lambda", make)


def heart_mu(h: QuasiHopfAlgebra, m: HModule) -> Matrix:
    """Right action of the algebra on heart(m), through the five-leg element:

    (a (x) v) . b = (k1 a S(k2) alpha k3 b S(k4)) (x) (k5 |> v).
    """
    # (k1 a S(k2) alpha) (x) (k5 |> v) (x) (k3 b S(k4)), then multiply the H legs
    kappa = _cached_kappa_lambda(h)[0]
    t = h.apply_leg(h.apply_leg(kappa, 2, _s_alpha(h)), 4, h.antipode)
    return _mult_outer(h, m.dim) * elem_action_matrix(
        t.permute_legs((1, 2, 5, 3, 4)), [h.sandwich, m, h.sandwich])


def heart_mu_direct(h: QuasiHopfAlgebra, m: HModule) -> Matrix:
    """The same right action from the raw product formula (independent route):

    (a (x) v) . b = (P1_(1) a S(p1 P2) alpha p2 P3_(1) b S(p3 P3_(2))) (x) (P1_(2) |> v).
    """
    n, d = h.dim, m.dim
    s, alpha = h.antipode.apply, h.alpha.as_vector()
    cols = [dict() for _ in range(n * d * n)]
    for (p1, p2, p3), cphi in h.phi.coeffs.items():
        for (q1, q2, q3), cpsi in h.phi_inv.coeffs.items():
            for (x1, x2), cd1 in h.comult[p1].items():
                for (y1, y2), cd2 in h.comult[p3].items():
                    coeff = cphi * cpsi * cd1 * cd2
                    mid = _naive_chain(h, [s(_naive_chain(h, [{q1: ONE}, {p2: ONE}])),
                                           alpha, {q2: ONE}, {y1: ONE}])
                    right = s(_naive_chain(h, [{q3: ONE}, {y2: ONE}]))
                    for a, b in product(range(n), repeat=2):
                        hvec = _naive_chain(h, [{x1: ONE}, {a: ONE}, mid, {b: ONE}, right])
                        for v in range(d):
                            vec_add_scaled(cols[(a * d + v) * n + b],
                                           {hh * d + mm: hc * mc for hh, hc in hvec.items()
                                            for mm, mc in m.action[x2].col(v).items()}, coeff)
    return Matrix(n * d, n * d * n, cols)


def _naive_chain(h: QuasiHopfAlgebra, vecs) -> dict:
    """The product of sparse coefficient vectors, left to right from the
    unit, one table entry per pair of terms: heart_mu_direct's own product."""
    acc = dict(h.unit)
    for v in vecs:
        out: dict = {}
        for (i, c), (j, x) in product(acc.items(), v.items()):
            vec_add_scaled(out, h.mult[i][j], c * x)
        acc = out
    return acc


def diamond(h: QuasiHopfAlgebra, m: HModule, x: HModule) -> HLinearMap:
    """The evaluation family heart(m) (x) x -> x (x) m:

    (a (x) v) (x) u  |->  (P1_(1) a S(P2) alpha P3 |> u) (x) (P1_(2) |> v).
    """
    d, dx = m.dim, x.dim
    t = h.spread(alpha_contraction(h), [(1, 3), (2,)], 3)   # P1_(1) (x) S(P2) alpha P3 (x) P1_(2)
    # per basis element a, the block x (x) m -> x (x) m of sum (P1_(1) a S(P2) alpha P3) (x) P1_(2)
    # with its source reordered from x (x) m to m (x) x
    order = [u * d + v for v in range(d) for u in range(dx)]
    blocks = [elem_action_matrix(h.fuse_legs(h.fuse_legs(
        t.tensor(h.basis_elem(a)).permute_legs((1, 4, 2, 3)), 1), 1), [x, m]).select(order)
        for a in range(h.dim)]
    return HLinearMap(tensor(heart_base(h, m), x), tensor(x, m), Matrix.hstack(blocks))


def pi_map(h: QuasiHopfAlgebra, m: HModule) -> HLinearMap:
    """The natural projection heart(m) -> m: (a (x) v) -> eps(a alpha) v."""
    row = h.right_mult_matrix(h.alpha).then(h.structure().eps)
    return HLinearMap(heart_base(h, m), m, row.kron(Matrix.identity(m.dim)))


# ---------------------------------------------------------------------------
# natural families <-> maps into Y (x) heart(M)

def _end_twist(h: QuasiHopfAlgebra, y: HModule, m: HModule,
               element: TensorElement) -> Matrix:
    """The comparison of Y (x) heart(M) with the end of
    x -> innhom(x, Y (x) (x (x) M)), driven by a three-leg element u:

    y (x) a (x) v |-> (u1 |> y) (x) (u2_(1) a S(u3)) (x) (u2_(2) |> v).

    The assignment u -> twist(u) is multiplicative (the coproduct is an
    algebra map and the antipode reverses products), so the twist at the
    inverse associator and the twist at the associator are mutually inverse.
    """
    t = h.apply_leg(h.spread(element, [(1,), (2, 4), (3,)], 4), 3, h.antipode)
    return elem_action_matrix(t, [y, h.sandwich, m])


def _end_coordinates(h: QuasiHopfAlgebra, y_mod: HModule, m_mod: HModule,
                     adj: Matrix) -> Matrix:
    """The map X -> Y (x) heart(M) behind an adjunct (columns x (x) e_p):
    evaluate at the unit to read the end coordinates, certify for every p
    that the adjunct at e_p is those coordinates followed by right
    multiplication by e_p (end membership), then untwist the end."""
    n = h.dim
    ends = adj * Matrix.identity(adj.cols // n).kron(h.structure().u)
    for p in range(n):
        right = Matrix.identity(y_mod.dim).kron(h.right_mult_matrix(h.basis_elem(p))) \
            .kron(Matrix.identity(m_mod.dim))
        if right * ends != adj.select(range(p, adj.cols, n)):
            raise VerificationFailure(
                "family is not natural: adjunct does not land in the end")
    return _end_twist(h, y_mod, m_mod, h.phi) * ends


def nat_to_hom(x_mod: HModule, y_mod: HModule, m_mod: HModule, fam: HLinearMap) -> HLinearMap:
    """Reconstruct g: X -> Y (x) heart(M) from the regular-module component
    of a natural family X (x) T -> Y (x) (T (x) M).

    The family is pulled through the adjunction unit, and _end_coordinates
    certifies that it lands in the end and inverts the twist comparing
    Y (x) heart(M) with the end.  A posteriori the reconstructed g is checked
    to reproduce the family at the regular module.

    The adjunct is one matrix product, the family after the action of a
    two-leg element, so it runs on the integer columns of the matrices (see
    Matrix.then and elem_action_matrix) rather than on Fractions; when the
    element is 1 (x) 1 the adjunct is the family itself: the one test made on
    an element being 1, so X must be unital; it spares building X's action,
    often heart(M) (x) heart(N)'s, only to find an identity.
    """
    h = x_mod.h
    n = h.dim
    if fam.matrix.cols != x_mod.dim * n or fam.matrix.rows != y_mod.dim * n * m_mod.dim:
        raise ValueError("family has wrong endpoints for nat_to_hom")

    # adjunct g~(x)(p) = fam((q1 |> x) (x) (q2 beta S(q3) . p)), for all x and
    # p at once: fam after the action of sum q1 (x) q2 beta S(q3), which is
    # the identity when that element is 1 (x) 1 (phi = 1 and beta = 1)
    b = beta_contraction(h)
    adj = fam.matrix if b == h.unit_elem(2) else \
        fam.matrix * elem_action_matrix(b, [x_mod, regular_module(h)])
    g = HLinearMap(x_mod, tensor(y_mod, heart_base(h, m_mod)),
                   _end_coordinates(h, y_mod, m_mod, adj))

    back = hom_to_nat(g, regular_module(h), y_mod, m_mod)
    if back.matrix != fam.matrix:
        raise VerificationFailure(
            "family is not natural: reconstruction does not reproduce it")
    return g


def hom_to_nat(g: HLinearMap, t_mod: HModule, y_mod: HModule,
               m_mod: HModule) -> HLinearMap:
    """The natural family attached to g: X -> Y (x) heart(M), at object T."""
    h = g.source.h
    hb = heart_base(h, m_mod)
    dia = diamond(h, m_mod, t_mod)
    assoc = elem_action_matrix(h.phi, [y_mod, hb, t_mod])
    step = g.matrix.kron(Matrix.identity(t_mod.dim))
    mat = Matrix.identity(y_mod.dim).kron(dia.matrix) * assoc * step
    src = tensor(g.source, t_mod)
    dst = tensor(y_mod, tensor(t_mod, m_mod))
    return HLinearMap(src, dst, mat)


def extract_center_structure(h: QuasiHopfAlgebra, m: HModule) -> CenterObject:
    """The coaction of heart(m): its braiding past C, at the unit of C only.

    The adjunct of that braiding's family at (s (x) 1) (x) e_p is phi . diamond
    after the action of phi . (Delta (x) id)(beta_contraction) with the middle
    slot cut to the unit column, so 1/n of the full adjunct's columns are
    built, and _end_coordinates certifies end membership on all of them.  The
    product runs from that thin cut end, phi . (diamond . cut): each step
    then multiplies a wide map by a thin one, never two wide maps.  The
    centre validation is left to CenterObject.require_valid (report kept).
    """
    hb = heart_base(h, m)
    c = regular_module(h)
    u = h.structure().u
    e = h.memo("phi_beta", lambda: h.mul(
        h.phi, h.spread(beta_contraction(h), [(1, 2), (3,)], 3)))
    cut = elem_action_matrix(e, [hb, [a * u for a in c.action], c])
    adj = elem_action_matrix(h.phi, [c, c, m]) * (diamond(h, m, tensor(c, c)).matrix * cut)
    return CenterObject(hb, _h_leg_blocks(_end_coordinates(h, c, m, adj), h.dim),
                        label=f"heart({m.label or '?'})")


# ---------------------------------------------------------------------------
# the heart functor proper

@dataclass(eq=False)
class HeartModule(Frozen):
    """heart(M) with everything attached: base module on H (x) M, right
    action by the algebra, and the extracted centre structure (kept in the
    memo once asked for)."""

    h: QuasiHopfAlgebra
    inner: HModule
    base: HModule
    mu: Matrix

    def __post_init__(self):
        self._memo = {}

    @property
    def center(self) -> CenterObject:
        return self.memo("center", lambda: extract_center_structure(self.h, self.inner))

    def __repr__(self):
        return f"HeartModule({self.inner.label or '?'})"


def heart(h: QuasiHopfAlgebra, m: HModule) -> HeartModule:
    """heart(m), built once per module object (memoized on m)."""
    return m.memo("heart", lambda: HeartModule(h, m, heart_base(h, m), heart_mu(h, m)))


def heart_on_morphism(f: HLinearMap) -> HLinearMap:
    """heart is the identity on the new H leg: f |-> id_H (x) f."""
    h = f.source.h
    return HLinearMap(heart_base(h, f.source), heart_base(h, f.target),
                      Matrix.identity(h.dim).kron(f.matrix))


def heart_compose(h: QuasiHopfAlgebra, m: HModule, n_mod: HModule) -> HLinearMap:
    """The lax monoidal structure heart(M) (x) heart(N) -> heart(M (x) N),
    computed as the inner composition of left-multiplication representatives
    (evaluate the inner one, rebracket, evaluate the outer one, rebracket)."""
    hm, hn = heart_base(h, m), heart_base(h, n_mod)
    c = regular_module(h)
    mn = tensor(m, n_mod)
    chain = elem_action_matrix(h.phi, [c, m, n_mod]) \
        * (diamond(h, m, c).matrix.kron(Matrix.identity(n_mod.dim))) \
        * elem_action_matrix(h.phi_inv, [hm, c, n_mod]) \
        * (Matrix.identity(hm.dim).kron(diamond(h, n_mod, c).matrix)) \
        * elem_action_matrix(h.phi, [hm, hn, c])
    fam = HLinearMap(tensor(tensor(hm, hn), c),
                     tensor(unit_module(h), tensor(c, mn)),
                     chain)
    g = nat_to_hom(tensor(hm, hn), unit_module(h), mn, fam)
    return HLinearMap(tensor(hm, hn), heart_base(h, mn), g.matrix)


# ---------------------------------------------------------------------------
# the algebra A

@dataclass(frozen=True, eq=False)
class AlgebraA:
    """The end of x -> innhom(x,x) on the space of H: a commutative algebra
    in the centre, with its augmentation and canonical action on everything."""

    h: QuasiHopfAlgebra
    center: CenterObject      # base: adjoint action on H; coaction blocks: extracted
    product: Matrix           # A (x) A -> A
    unit_vec: dict            # element of A
    eps_row: Matrix           # 1 x n, the augmentation
    report: Report

    @property
    def base(self) -> HModule:
        return self.center.base

    def harpoon(self, x: HModule) -> HLinearMap:
        """The canonical action A (x) X -> X: a |> via P1 a S(P2) alpha P3, which is
        the evaluation family of heart(I) = A."""
        ev = diamond(self.h, unit_module(self.h), x)
        return HLinearMap(tensor(self.base, x), x, ev.matrix)

    def free_mu(self, x: HModule) -> Matrix:
        """The right action on the free module x (x) A: rebracket by the
        associator, then multiply in the algebra leg."""
        return Matrix.identity(x.dim).kron(self.product) \
            * elem_action_matrix(self.h.phi, [x, self.base, self.base])

    def mu_pairs(self, mu_m: Matrix, mu_n: Matrix) -> list[tuple[Matrix, Matrix]]:
        """The pairs (see repcat.intertwines) of F . mu_m = mu_n . (F (x) id_A),
        one basis element b at a time: the column blocks v |-> v . b."""
        n = self.h.dim
        return [(mu_m.select(range(b, mu_m.cols, n)), mu_n.select(range(b, mu_n.cols, n)))
                for b in range(n)]

    def __repr__(self):
        return f"AlgebraA(over {self.h.name or 'H'})"


def build_A(h: QuasiHopfAlgebra) -> AlgebraA:
    """Construct the algebra with all its invariants verified exactly, once
    per algebra (memoized on h; a failed verification is not kept)."""
    return h.memo("A", lambda: _verified_A(h))


def _verified_A(h: QuasiHopfAlgebra) -> AlgebraA:
    h.require_valid()
    n = h.dim
    rep = Report(title=f"algebraA[{h.name or 'H'}]")

    base = HModule(h, n, [h.adjoint_action_of(h.basis_elem(i)) for i in range(n)], label="A")
    rep.add("adjoint_action_is_module", base.validate().ok)

    unit_mod = unit_module(h)
    hb_unit = heart_base(h, unit_mod)
    rep.add("heart_of_unit_is_adjoint",
            all(hb_unit.action[i] == base.action[i] for i in range(n)))

    center_obj = CenterObject(base, extract_center_structure(h, unit_mod).blocks, label="A")
    rep.add("center_structure", center_obj.validation().ok)

    # the product: a . b = (E1 a S(E2) alpha E3) (b S(E4)), see qha.product_element
    c_mod = regular_module(h)
    t = product_element(h).tensor(h.unit_elem(1)).permute_legs((1, 2, 4, 3))
    product = _mult_outer(h, 1) * elem_action_matrix(t, [h.sandwich, h.sandwich])

    prod_map = HLinearMap(tensor(base, base), base, product)
    rep.add("product_h_linear", prod_map.is_h_linear())

    # unit: the adjunct of the identity at the unit object
    unit = h.counit_legs(beta_contraction(h), [1])
    rep.add("unit_is_beta", unit == h.beta)
    uvec, u_col = unit.as_vector(), unit.as_column()
    rep.add("unit_laws", (product * u_col.kron(Matrix.identity(n))).is_identity()
            and (product * Matrix.identity(n).kron(u_col)).is_identity())

    assoc_twist = elem_action_matrix(h.phi, [base, base, base])
    lhs = product * product.kron(Matrix.identity(n))
    rhs = product * Matrix.identity(n).kron(product) * assoc_twist
    rep.add("associativity_with_twist", lhs == rhs)

    eps_row = h.structure().eps * h.counit_legs(h.alpha, [1]).coeffs.get((), ZERO)
    rep.add("augmentation_multiplicative",
            eps_row * product == (eps_row.kron(eps_row)))

    bAA = braiding(center_obj, base)
    rep.add("commutative_in_center", product * bAA.matrix == product)

    # the right action of A on heart(unit) is the product itself
    rep.add("heart_unit_mu_is_product", heart_mu(h, unit_mod) == product)

    out = AlgebraA(h, center_obj, product, uvec, eps_row, rep)

    # the canonical action: associativity with twist, unit, augmentation
    harp = out.harpoon(c_mod)
    rep.add("harpoon_h_linear", harp.is_h_linear())
    lhs = harp.matrix * product.kron(Matrix.identity(c_mod.dim))
    rhs = harp.matrix * Matrix.identity(n).kron(harp.matrix) \
        * elem_action_matrix(h.phi, [base, base, c_mod])
    rep.add("harpoon_action_law", lhs == rhs)
    rep.add("harpoon_unital",
            (harp.matrix * u_col.kron(Matrix.identity(c_mod.dim))).is_identity())
    harp_unit = out.harpoon(unit_mod)
    rep.add("harpoon_on_unit_is_augmentation", harp_unit.matrix == eps_row)

    rep.add("morphisms_are_A_linear", intertwines(harp.matrix, [
        (Matrix.identity(n).kron(f.matrix), f.matrix) for f in hom_space(c_mod, c_mod)]))

    # the counit-after-braiding identity (the picture-only observation)
    for x, xname in ((unit_mod, "I"), (c_mod, "C"), (tensor(c_mod, c_mod), "CC")):
        bx = braiding(center_obj, x)
        lhs = Matrix.identity(x.dim).kron(eps_row) * bx.matrix
        rep.add(f"harpoon_from_braiding[{xname}]", lhs == out.harpoon(x).matrix)

    rep.require(f"algebra A failed verification over {h.name}")
    return out


# ---------------------------------------------------------------------------
# the free-module comparison

def s_t_isos(m: CenterObject, a: AlgebraA) -> tuple[HLinearMap, HLinearMap, Report]:
    """The mutually inverse comparisons s: heart(M) -> M (x) A and
    t: M (x) A -> heart(M), both right A-linear centre morphisms.

    t is pinned down by: evaluate heart(M) on T after t = braid M past T
    after letting A act on T; s by the inverse requirement.  Both are
    reconstructed through nat_to_hom at the regular module.
    """
    h = a.h
    m.require_valid()
    rep = Report(title=f"s_t[{m.label or '?'}]")
    c = regular_module(h)
    unit_mod = unit_module(h)
    hm = heart(h, m.base)

    # t: family (M x A) x C -> I x (C x M)
    fam_t_mat = braiding(m, c).matrix \
        * Matrix.identity(m.dim).kron(a.harpoon(c).matrix) \
        * elem_action_matrix(h.phi, [m.base, a.base, c])
    fam_t = HLinearMap(tensor(tensor(m.base, a.base), c),
                       tensor(unit_mod, tensor(c, m.base)), fam_t_mat)
    t_map_raw = nat_to_hom(tensor(m.base, a.base), unit_mod, m.base, fam_t)
    t_map = HLinearMap(tensor(m.base, a.base), hm.base, t_map_raw.matrix)

    # s: family heart(M) x C -> M x (C x I)
    fam_s_mat = braiding_inv(m, c).matrix * diamond(h, m.base, c).matrix
    fam_s = HLinearMap(tensor(hm.base, c),
                       tensor(m.base, tensor(c, unit_mod)), fam_s_mat)
    s_map_raw = nat_to_hom(hm.base, m.base, unit_mod, fam_s)
    s_map = HLinearMap(hm.base, tensor(m.base, a.base), s_map_raw.matrix)

    rep.add("s_then_t_is_identity", s_map.then(t_map).matrix.is_identity())
    rep.add("t_then_s_is_identity", t_map.then(s_map).matrix.is_identity())
    rep.add("s_h_linear", s_map.is_h_linear())
    rep.add("t_h_linear", t_map.is_h_linear())

    free_mu = a.free_mu(m.base)
    rep.add("t_right_A_linear", intertwines(t_map.matrix, a.mu_pairs(free_mu, hm.mu)))
    rep.add("s_right_A_linear", intertwines(s_map.matrix, a.mu_pairs(hm.mu, free_mu)))
    free = tensor_center(m, a.center)
    rep.add("t_center_morphism",
            intertwines(t_map.matrix, coaction_pairs(free, hm.center)))
    rep.add("s_center_morphism",
            intertwines(s_map.matrix, coaction_pairs(hm.center, free)))
    rep.require(f"free-module comparison failed for {m.label or 'M'}")
    return s_map, t_map, rep
