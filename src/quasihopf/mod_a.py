"""Right modules over the canonical algebra inside the centre.

An object is a centre object with a right action map; the four validity
conditions (module-map linearity, twisted associativity over the product,
unitality, compatibility with the coactions) are checked exactly.  A
morphism intertwines amodule_pairs (actions, coactions, right actions):
amodule_hom_space solves for them, and every morphism check tests them, or
a part of them, with repcat.intertwines.  The category is monoidal by
coequalizing mu_M (x) id against id (x) lambda_N, the left action through
center.braiding_inv.  A quotient is a (projection, section) pair plus its
module, and every induced map on one (action, coaction, right action, a
morphism between coinvariants, the counit, the monoidal comparisons) comes
from linalg.descend, which returns the map or reports that it does not
exist.  Quotient bases are pivot-based and non-canonical; every assertion
made downstream is basis-independent.

The two functors of the equivalence live here: heart(-) into right modules
and the coinvariants functor (- tensored over the algebra with the unit
object) back, together with the unit and counit isomorphisms and the
aggregated instance-level equivalence report.  heart_amodule(a, x) is
built once per module x, in x's memo, and coinvariants once per right
module, in its own memo (see qha.Frozen).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import Matrix, cokernel_of_columns, descend, first_difference, rank, vec_add_scaled
from .qha import Frozen, QuasiHopfAlgebra
from .report import Report, VerificationFailure
from .center import (CenterObject, braiding_inv, center_pairs, coaction_pairs, tensor_center,
                     tensor_coaction_blocks)
from .repcat import (HLinearMap, HModule, elem_action_matrix, hom_space, intertwiners,
                     intertwines, regular_module, tensor, tensor_actions, unit_module)
from .algebra_a import (AlgebraA, _cached_kappa_lambda, build_A, heart, heart_compose,
                        pi_map, s_t_isos)


@dataclass(eq=False)
class AModule(Frozen):
    """A centre object with a right action by the canonical algebra.

    Immutable; its memo holds the validation report and the coinvariants."""

    a: AlgebraA
    center: CenterObject
    mu: Matrix  # (d * n) -> d, module leg slowest
    label: str = ""

    def __post_init__(self):
        d, n = self.center.dim, self.a.h.dim
        if self.mu.rows != d or self.mu.cols != d * n:
            raise ValueError(f"mu must be {d}x{d * n}, got {self.mu.rows}x{self.mu.cols}")
        self._memo = {}

    @property
    def base(self) -> HModule:
        return self.center.base

    @property
    def dim(self) -> int:
        return self.center.dim

    def require_valid(self) -> "AModule":
        self.memo("validation", lambda: validate_amodule(self)).require(
            f"right-module validation failed for {self.label or '?'}")
        return self

    def __repr__(self):
        return f"AModule({self.label or self.center.label or '?'}, dim={self.dim})"


def validate_amodule(m: AModule) -> Report:
    """The four defining conditions, each as an exact matrix identity."""
    a, h = m.a, m.a.h
    n = h.dim
    rep = Report(title=f"amodule[{m.label or m.center.label or '?'}]")
    rep.add("center_structure", m.center.validation().ok)

    mu_map = HLinearMap(tensor(m.base, a.base), m.base, m.mu)
    rep.add("mu_h_linear", mu_map.is_h_linear())

    rep.add("mu_associative_with_twist",
            m.mu * m.mu.kron(Matrix.identity(n)) == m.mu * a.free_mu(m.base))

    u_col = Matrix(n, 1, [dict(a.unit_vec)])
    rep.add("mu_unital", (m.mu * Matrix.identity(m.dim).kron(u_col)).is_identity())

    rep.add("mu_center_morphism",
            intertwines(m.mu, coaction_pairs(tensor_center(m.center, a.center), m.center)))
    return rep


def free_amodule(a: AlgebraA, m: CenterObject) -> AModule:
    """The free module M (x) A: multiply in the algebra leg."""
    return AModule(a, tensor_center(m, a.center), a.free_mu(m.base),
                   label=f"({m.label or '?'})*A")


def algebra_as_amodule(a: AlgebraA) -> AModule:
    return AModule(a, a.center, a.product, label="A")


def heart_amodule(a: AlgebraA, x: HModule) -> AModule:
    """heart(x) as a right module, built once per (a, x) (memoized on x)."""
    def make():
        hm = heart(a.h, x)
        return AModule(a, hm.center, hm.mu, label=f"heart({x.label or '?'})")
    return x.memo(("heart_amodule", a), make)


def left_action(m: AModule) -> HLinearMap:
    """The induced left action: the algebra strand passes behind the module.

    lambda = mu . (beta_{M,A})^{-1}, the inverse from center.braiding_inv; with
    the over-crossing instead, the lax structure on heart(-) fails to
    coequalize even in the Hopf case.
    """
    return HLinearMap(tensor(m.a.base, m.base), m.base,
                      m.mu * braiding_inv(m.center, m.a.base).matrix)


# ---------------------------------------------------------------------------
# quotients

@dataclass(frozen=True)
class QuotientPresentation:
    """A quotient of an ambient module: projection onto it, a section back
    (projection . section = id) and the quotient module."""

    projection: Matrix
    section: Matrix
    module: HModule


def _quotient_module(ambient: HModule, relations: list[dict], label: str) -> QuotientPresentation:
    """The quotient of ambient by the span of the relations (the integer
    columns of a matrix will do: scaling does not change a span)."""
    proj, sec = cokernel_of_columns(ambient.dim, relations)
    action = _descend_each(ambient.action, proj, sec,
                           f"relation subspace of {label} is not stable under the action",
                           "action")
    return QuotientPresentation(proj, sec, HModule(ambient.h, proj.rows, action, label=label))


def _descend_each(maps, proj: Matrix, sec: Matrix, failure: str, kind: str) -> list[Matrix]:
    """descend(f, proj, sec, proj) for each endomorphism f of the ambient
    space, in turn.  At the first that has none, VerificationFailure: the
    failure text, then the kind and index of that map and the first column
    and row where P f S P differs from P f (computed on failure only)."""
    out = []
    for i, f in enumerate(maps):
        g = descend(f, proj, sec, proj)
        if g is None:
            top = proj * f
            col, row = first_difference(top * sec * proj, top)
            raise VerificationFailure(
                f"{failure}: {kind} {i} differs at column {col}, row {row}")
        out.append(g)
    return out


def _fused_slot(mu: Matrix, left: HModule, right: HModule, used) -> list[list[Matrix]]:
    """mu . (L_i (x) R_j) as a two-leg operator family for elem_action_matrix,
    built at the index pairs (i, j) in used only; every other pair holds a
    zero of the same shape, which is never picked."""
    zero = Matrix.zero(mu.rows, mu.cols)
    n = left.h.dim
    return [[mu * left.action[i].kron(right.action[j]) if (i, j) in used else zero
             for j in range(n)] for i in range(n)]


def _coequalizer_relations(m: AModule, n_mod: AModule) -> list[dict]:
    """The integer columns of (mu_M (x) id) . Phi^-1 - id (x) lambda_N on
    M (x) (A (x) N), zero columns kept: the first term through the fused slot
    mu_M . (M_i (x) A_j), the second subtracted column by column."""
    h, dn = m.a.h, n_mod.dim
    used = {idx[:2] for idx in h.phi_inv.coeffs}
    top = elem_action_matrix(h.phi_inv, [_fused_slot(m.mu, m.base, m.a.base, used), n_mod.base])
    tden, tcols = top._int_form()
    lden, lcols = left_action(n_mod).matrix._int_form()
    den = lcm(tden, lden)
    st, sl = den // tden, -(den // lden)
    width = len(lcols)  # dim (A (x) N)
    relations = []
    for c, col in enumerate(tcols):
        mm, r = divmod(c, width)
        rel = {i: st * x for i, x in col.items()}
        vec_add_scaled(rel, {mm * dn + i: x for i, x in lcols[r].items()}, sl)
        relations.append(rel)
    return relations


def tensor_over_A(m: AModule, n_mod: AModule) -> tuple[AModule, QuotientPresentation]:
    """The coequalizer of mu_M (x) id and id (x) lambda_N on M (x) (A (x) N),
    the first after rebracketing by the inverse associator, with lambda_N the
    left action through the inverse braiding (the quotient is validated by
    whoever requires it, see AModule.require_valid).

    No padded map is built: the relations come from the fused slot
    mu_M . (M_i (x) A_j) (see _coequalizer_relations), and the right action
    of M (x) N from the fused slot mu_N . (N_j (x) A_k).  The quotient's
    action, the H-leg blocks of its coaction and the column blocks of its
    right action are each descended by descend(f, P, S, P) on the ambient
    endomorphism f.  No ambient map is held whole beside another: the
    relations exist before the ambient actions and coaction, each of which
    is dropped once descended (see _descended_center), and the ambient
    right action is built last.
    """
    a, h = m.a, m.a.h
    n = h.dim
    label = f"({m.label or '?'})(x)A({n_mod.label or '?'})"
    proj, sec = cokernel_of_columns(m.dim * n_mod.dim, _coequalizer_relations(m, n_mod))
    qcenter = _descended_center(m, n_mod, proj, sec, label)

    # the right action of M (x) N is (id (x) mu_N) . Phi on (M (x) N) (x) A
    used = {idx[1:] for idx in h.phi.coeffs}
    mu_amb = elem_action_matrix(h.phi, [m.base, _fused_slot(n_mod.mu, n_mod.base, a.base, used)])
    blocks = _descend_each((mu_amb.select(range(k, mu_amb.cols, n)) for k in range(n)),
                           proj, sec, "right action does not descend to the quotient",
                           "right action block")
    q = proj.rows
    mu_q = Matrix.hstack(blocks).select([k * q + c for c in range(q) for k in range(n)])
    return AModule(a, qcenter, mu_q, label=label), \
        QuotientPresentation(proj, sec, qcenter.base)


def _descended_center(m: AModule, n_mod: AModule, proj: Matrix, sec: Matrix,
                      label: str) -> CenterObject:
    """The quotient proj of the centre tensor M (x) N, one ambient map at a
    time.  First the actions: each action of Delta(e_i) on M (x) N
    (repcat.tensor_actions, the formula of repcat.tensor) is built,
    descended and dropped, and the ambient module's action list is never
    built.  Then the coaction: its n H-leg blocks come from the block
    formula (center.tensor_coaction_blocks, whose oracle is
    center.tensor_center), each built just before it is descended (the
    coaction descends iff the relations span a subcomodule) and dropped
    after: the descended blocks are the quotient's coaction."""
    h = m.a.h
    action = _descend_each(tensor_actions(m.base, n_mod.base), proj, sec,
                           f"relation subspace of {label} is not stable under the action",
                           "action")
    blocks = _descend_each(tensor_coaction_blocks(m.center, n_mod.center), proj, sec,
                           "coaction does not descend to the quotient", "coaction block")
    return CenterObject(HModule(h, proj.rows, action, label=label), blocks, label=label)


def coinvariants(m: AModule) -> tuple[HModule, HLinearMap, QuotientPresentation]:
    """Tensor with the unit object over the algebra: kill mu - (id (x) eps).

    Built once per right-module object (memoized on m), so the quotient
    module is the same object on every call.
    """
    def make():
        diff = m.mu - Matrix.identity(m.dim).kron(m.a.eps_row)
        pres = _quotient_module(m.base, diff._int_form()[1], label=f"coinv({m.label or '?'})")
        return pres.module, HLinearMap(m.base, pres.module, pres.projection), pres
    return m.memo("coinvariants", make)


def coinvariants_on_morphism(f: HLinearMap, pres_src: QuotientPresentation,
                         pres_dst: QuotientPresentation) -> HLinearMap:
    g = descend(f.matrix, pres_src.projection, pres_src.section, pres_dst.projection)
    if g is None:
        raise VerificationFailure("morphism does not descend to the quotients")
    return HLinearMap(pres_src.module, pres_dst.module, g)


def coinvariants_monoidal(m: AModule, n_mod: AModule) -> tuple[HLinearMap, Report]:
    """The comparison coinv(M) (x) coinv(N) -> coinv(M (x)_A N), with exact inverse.

    Both sides are quotients of M (x) N, by u1 = coinv (x) coinv and by
    u2 = the coinvariants of the quotient (x)_A; each projection descends
    along the other (so they have the same kernel), and the two induced maps
    are a two-sided inverse pair.
    """
    rep = Report(title=f"monoidal[{m.label or '?'},{n_mod.label or '?'}]")
    _, _, pres_m = coinvariants(m)
    _, _, pres_n = coinvariants(n_mod)
    u1 = pres_m.projection.kron(pres_n.projection)
    sec1 = pres_m.section.kron(pres_n.section)
    mn, pres_q = tensor_over_A(m, n_mod)
    mn.require_valid()
    _, _, pres_b = coinvariants(mn)
    u2 = pres_b.projection * pres_q.projection
    sec2 = pres_q.section * pres_b.section

    v = descend(u2, u1, sec1)
    w = descend(u1, u2, sec2)
    rep.add("relations_agree_forward", v is not None)
    rep.add("relations_agree_backward", w is not None)
    rep.require("monoidal comparison failed")
    rep.add("round_trip_identity", (w * v).is_identity() and (v * w).is_identity())
    fwd = HLinearMap(tensor(pres_m.module, pres_n.module), pres_b.module, v)
    rep.add("comparison_h_linear", fwd.is_h_linear())
    rep.require("monoidal comparison failed")
    return fwd, rep


# ---------------------------------------------------------------------------
# the two natural isomorphisms of the equivalence

def counit_iso(x: HModule, a: AlgebraA) -> tuple[HLinearMap, Report]:
    """coinv(heart(X)) -> X, induced by the projection; verified invertible,
    with the comparison-to-free-module windows of the exactness diagram."""
    h = a.h
    n = h.dim
    rep = Report(title=f"counit_iso[{x.label or 'X'}]")
    am = heart_amodule(a, x)
    _, _, pres = coinvariants(am)
    mat = descend(pi_map(h, x).matrix, pres.projection, pres.section)
    rep.add("projection_kills_relations", mat is not None)
    rep.require(f"counit comparison failed for {x.label}")
    rep.add("dimensions_match", pres.module.dim == x.dim)
    iso = HLinearMap(pres.module, x, mat)
    rep.add("induced_h_linear", iso.is_h_linear())
    rep.add("invertible", mat.rows == mat.cols and rank(mat) == mat.rows)

    # comparison with the free module M (x) A via the five-leg elements
    _, lam, kbar = _cached_kappa_lambda(h)
    nu = h.mul(kbar, lam.permute_legs((2, 3, 4, 5, 1)))
    d = x.dim
    # M (x) A -> heart(X): m (x) a -> a (x) m
    swap = Matrix.identity(n * d).select([aa * d + mm for mm in range(d) for aa in range(n)])

    # m (x) a (x) b |-> (n1 a S(n2)) (x) (n5 |> m) (x) (n3 b S(n4))
    t = h.apply_leg(h.apply_leg(nu, 2, h.antipode), 4, h.antipode)
    vleft = swap.kron(Matrix.identity(n)) * elem_action_matrix(
        t.permute_legs((5, 1, 2, 3, 4)), [x, h.sandwich, h.sandwich])

    rep.add("window_product", am.mu * vleft == swap * a.free_mu(x))
    rep.add("window_augmentation",
            Matrix.identity(n * d).kron(a.eps_row) * vleft
            == swap * Matrix.identity(d * n).kron(a.eps_row))
    rep.require(f"counit comparison failed for {x.label}")
    return iso, rep


def unit_iso(m: AModule) -> tuple[HLinearMap, HLinearMap, Report]:
    """xi: heart(coinv(M)) -> M and zeta back, mutually inverse in the category.

    xi is solved from the factorization of mu . s through heart of the
    projection (right-exactness of heart); zeta is the composite through
    the free module at the unit.
    """
    a, h = m.a, m.a.h
    n = h.dim
    rep = Report(title=f"unit_iso[{m.label or '?'}]")
    m.require_valid()
    s_map, t_map, _ = s_t_isos(m.center, a)
    big_xi = s_map.matrix.then(m.mu)  # heart(M) -> M

    cm, _, pres = coinvariants(m)
    hp = Matrix.identity(n).kron(pres.projection)       # heart M ->> heart coinv M
    hsec = Matrix.identity(n).kron(pres.section)
    # factorization well-defined: big_xi kills heart of the relations
    diff = m.mu - Matrix.identity(m.dim).kron(a.eps_row)
    rep.add("factorization_well_defined",
            (big_xi * Matrix.identity(n).kron(diff)).is_zero())
    xi_mat = big_xi * hsec
    rep.add("factorization_recovers", xi_mat * hp == big_xi)

    u_embed = Matrix.identity(m.dim).kron(Matrix(n, 1, [dict(a.unit_vec)]))  # M -> M (x) A
    zeta_mat = hp * t_map.matrix * u_embed

    rep.add("zeta_then_xi", (xi_mat * zeta_mat).is_identity())
    rep.add("xi_then_zeta", (zeta_mat * xi_mat).is_identity())

    hb_coinv = heart_amodule(a, cm)
    xi = HLinearMap(hb_coinv.base, m.base, xi_mat)
    zeta = HLinearMap(m.base, hb_coinv.base, zeta_mat)
    rep.add("xi_h_linear", xi.is_h_linear())
    rep.add("zeta_h_linear", zeta.is_h_linear())
    rep.add("xi_A_linear", intertwines(xi_mat, a.mu_pairs(hb_coinv.mu, m.mu)))
    rep.add("zeta_A_linear", intertwines(zeta_mat, a.mu_pairs(m.mu, hb_coinv.mu)))
    rep.add("xi_center_morphism",
            intertwines(xi_mat, coaction_pairs(hb_coinv.center, m.center)))
    rep.add("zeta_center_morphism",
            intertwines(zeta_mat, coaction_pairs(m.center, hb_coinv.center)))
    rep.require(f"unit isomorphism failed for {m.label}")
    return xi, zeta, rep


# ---------------------------------------------------------------------------
# module maps in the category, and the aggregated equivalence report

def amodule_pairs(m: AModule, n_mod: AModule) -> list[tuple[Matrix, Matrix]]:
    """The pairs (see repcat.intertwines) of the morphisms of right modules in
    the centre: actions, coactions and right actions."""
    return center_pairs(m.center, n_mod.center) + m.a.mu_pairs(m.mu, n_mod.mu)


def amodule_hom_space(m: AModule, n_mod: AModule) -> list[HLinearMap]:
    """Basis of maps respecting action, coaction and the right module structure."""
    return intertwiners(m.base, n_mod.base, amodule_pairs(m, n_mod))


def equivalence_report(h: QuasiHopfAlgebra, test_objects=None) -> Report:
    """Instance-level verification that heart(-) is a monoidal equivalence.

    For each test object: the counit comparison is an isomorphism (with the
    exactness-diagram windows), the unit comparison holds for the free and
    heart modules, hom dimensions match across the functor, and the
    descended lax structure is invertible.  Every id is always reported: a
    check that raises VerificationFailure is a FAIL item whose details name
    the failed sub-checks.
    """
    a = build_A(h)
    rep = Report(title=f"equivalence[{h.name or 'H'}]")
    if test_objects is None:
        c = regular_module(h)
        test_objects = [unit_module(h), c, tensor(c, c)]

    def check(check_id: str, run) -> None:
        """Add run()'s (ok, details); a failure raised inside is a FAIL item
        naming the failed sub-checks, and the report goes on."""
        try:
            ok, details = run()
        except VerificationFailure as exc:
            failed = exc.report.failures() if exc.report is not None else []
            ok, details = False, ("failed: " + ", ".join(i.id for i in failed)
                                  if failed else str(exc))
        rep.add(check_id, ok, details)

    for x in test_objects:
        check(f"counit_iso[{x.label or f'dim{x.dim}'}]",
              lambda: (counit_iso(x, a)[1].ok, ""))

    unit_tests = [algebra_as_amodule(a),
                  free_amodule(a, a.center),
                  heart_amodule(a, test_objects[1] if len(test_objects) > 1
                                else regular_module(h))]
    for mm in unit_tests:
        check(f"unit_iso[{mm.label}]", lambda: (unit_iso(mm)[2].ok, ""))

    def hom_dims(x, y):
        d_h = len(hom_space(x, y))
        d_a = len(amodule_hom_space(heart_amodule(a, x), heart_amodule(a, y)))
        return d_h == d_a, f"H-side {d_h}, A-side {d_a}"

    pairs = [(x, y, f"{x.label or '?'};{y.label or '?'}")
             for x in test_objects for y in test_objects]
    for x, y, names in pairs:
        check(f"hom_dims[{names}]", lambda: hom_dims(x, y))
    for x, y, names in pairs:
        check(f"monoidal_heart[{names}]", lambda: (_descended_compose_iso(a, x, y), ""))
    return rep


def _descended_compose_iso(a: AlgebraA, x: HModule, y: HModule) -> bool:
    """heart(X) (x)_A heart(Y) -> heart(X (x) Y) via the descended composition:
    True, or VerificationFailure naming the first stage that fails.

    Only the matrix of heart_compose is kept, and it and the quotient
    presentation are dropped once the composition has descended, so that
    neither is alive while heart(X (x) Y), the stage that bounds the
    check's peak, is built."""
    h = a.h
    comp = heart_compose(h, x, y).matrix
    quot, pres = tensor_over_A(heart_amodule(a, x), heart_amodule(a, y))
    descended = descend(comp, pres.projection, pres.section)
    del comp, pres
    if descended is None:
        raise VerificationFailure("the composition does not kill the relations of (x)_A")
    if descended.rows != descended.cols:
        raise VerificationFailure(
            f"the descended map is not square: {descended.rows}x{descended.cols}")
    r = rank(descended)
    if r != descended.rows:
        raise VerificationFailure(f"the descended map has rank {r} < {descended.rows}")
    # it must also be a morphism of right modules in the centre
    pairs = amodule_pairs(quot, heart_amodule(a, tensor(x, y)))
    for k, (p, q) in enumerate(pairs):
        col_row = first_difference(descended * p, q * descended)
        if col_row is not None:
            kind = ("action", "coaction block", "right action block")[k // h.dim]
            raise VerificationFailure(
                f"the descended map is not a morphism: {kind} {k % h.dim} differs "
                f"at column {col_row[0]}, row {col_row[1]}")
    return True
