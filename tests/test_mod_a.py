import functools
import gc
import types
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from quasihopf.linalg import Echelon, Matrix, cokernel_of_columns, inverse, kernel
from quasihopf.report import VerificationFailure
from quasihopf.repcat import (HLinearMap, elem_action_matrix, hom_space, intertwines,
                              regular_module, tensor, unit_module)
from quasihopf import mod_a
from quasihopf.center import (CenterObject, braiding, center_hom_space,
                              coaction_pairs, tensor_center, validate_center)
from quasihopf.algebra_a import build_A, heart, heart_compose, heart_on_morphism
from quasihopf.mod_a import (AModule, algebra_as_amodule, amodule_hom_space,
                             coinvariants, coinvariants_monoidal, coinvariants_on_morphism,
                             counit_iso, equivalence_report, free_amodule,
                             heart_amodule, left_action,
                             _quotient_module, tensor_over_A, unit_iso, validate_amodule)

from conftest import get_algebra
from helpers import (left_action_report, mul_vec, naive_tensor_center, naive_tensor_over_A,
                     stacked, stage_peaks, traced_peak)


def test_algebra_is_a_module(any_h):
    a = build_A(any_h)
    assert validate_amodule(algebra_as_amodule(a)).ok


def test_free_module_validates(any_h):
    a = build_A(any_h)
    fr = free_amodule(a, a.center)
    assert validate_amodule(fr).ok


def test_heart_modules_validate(any_h):
    a = build_A(any_h)
    c = regular_module(any_h)
    for x in (unit_module(any_h), c):
        rep = validate_amodule(heart_amodule(a, x))
        assert rep.ok, rep.render_text()


def test_twisted_mu_fails_associativity(sw):
    # corrupt the action by an antipode twist on the algebra leg (S != id here)
    a = build_A(sw)
    hc = heart_amodule(a, regular_module(sw))
    twist = Matrix.identity(hc.dim).kron(sw.antipode)
    bad = AModule(a, hc.center, hc.mu * twist, label="bad")
    rep = validate_amodule(bad)
    fails = {i.id for i in rep.failures()}
    assert "mu_associative_with_twist" in fails


def test_left_action_laws(any_h):
    a = build_A(any_h)
    for m in (algebra_as_amodule(a), heart_amodule(a, regular_module(any_h))):
        rep = left_action_report(m)
        assert rep.ok, rep.render_text()


def test_left_action_on_hopf_group_algebra(z2):
    # commutative + cocommutative: the left action is plain multiplication
    a = build_A(z2)
    am = algebra_as_amodule(a)
    lam = left_action(am)
    n = z2.dim
    for x in range(n):
        for y in range(n):
            assert lam.matrix.apply({x * n + y: 1}) == mul_vec(z2, {x: 1}, {y: 1})


# -- tensor over the algebra ----------------------------------------------------

def test_free_tensor_free_dimension(any_h):
    a = build_A(any_h)
    c = regular_module(any_h)
    hx = heart_amodule(a, c)
    fr = free_amodule(a, a.center)
    q = tensor_over_A(fr, fr).module
    assert q.dim == a.center.dim * a.center.dim * any_h.dim
    q.require_valid()


def test_A_tensor_A_is_A(any_h):
    a = build_A(any_h)
    am = algebra_as_amodule(a)
    q = tensor_over_A(am, am).module
    assert q.dim == any_h.dim
    assert validate_amodule(q).ok


def test_heart_tensor_heart_matches_heart_of_tensor(any_h):
    from quasihopf.mod_a import _descended_compose_iso
    a = build_A(any_h)
    c = regular_module(any_h)
    assert _descended_compose_iso(a, c, c)


# -- coinvariants ----------------------------------------------------------------

def test_coinv_of_A_is_unit(any_h):
    a = build_A(any_h)
    am = algebra_as_amodule(a)
    pres = coinvariants(am)
    assert pres.module.dim == 1
    assert HLinearMap(am.base, pres.module, pres.projection).is_h_linear()


def test_coinv_of_free_module(any_h):
    a = build_A(any_h)
    fr = free_amodule(a, a.center)
    assert coinvariants(fr).module.dim == a.center.dim


def test_coinv_kills_the_action(any_h):
    a = build_A(any_h)
    am = heart_amodule(a, regular_module(any_h))
    p = coinvariants(am).projection
    eps_part = Matrix.identity(am.dim).kron(a.eps_row)
    assert p * am.mu == p * eps_part


def test_coinv_functorial(z2):
    a = build_A(z2)
    c = regular_module(z2)
    hc = heart_amodule(a, c)
    pres = coinvariants(hc)
    for f in amodule_hom_space(hc, hc):
        g = coinvariants_on_morphism(f, pres, pres)
        assert g.is_h_linear()


def test_coinv_rejects_maps_that_do_not_descend(z2):
    """The right-module maps heart(C) -> heart(C) pass to the coinvariants
    (test_coinv_functorial); no basis map of the plain hom space does."""
    a = build_A(z2)
    hc = heart_amodule(a, regular_module(z2))
    pres = coinvariants(hc)
    maps = hom_space(hc.base, hc.base)
    assert len(maps) == 8
    for f in maps:
        with pytest.raises(VerificationFailure, match="does not descend"):
            coinvariants_on_morphism(f, pres, pres)


def test_quotient_by_an_unstable_subspace_is_rejected(z2):
    # span(e) in the regular module of Z/2 is not stable under g, which sends
    # e to g: the witness is column 0 (e) of the quotient's row 0 (g)
    with pytest.raises(VerificationFailure, match="not stable under the action") as exc:
        _quotient_module(z2, 2, regular_module(z2).action, [{0: 1}], "C/e")
    assert str(exc.value) == ("relation subspace of C/e is not stable under the action: "
                              "action 1 differs at column 0, row 0")


def test_coinvariants_monoidal(any_h):
    a = build_A(any_h)
    am = algebra_as_amodule(a)
    hc = heart_amodule(a, regular_module(any_h))
    fwd, rep = coinvariants_monoidal(am, am)
    assert rep.ok
    assert fwd.source.dim == 1 and fwd.target.dim == 1
    assert fwd.matrix.is_identity()
    fwd2, rep2 = coinvariants_monoidal(hc, am)
    assert rep2.ok
    fwd3, rep3 = coinvariants_monoidal(hc, hc)
    assert rep3.ok
    assert fwd3.matrix.rows == regular_module(any_h).dim ** 2


# -- the two isomorphisms ----------------------------------------------------------

def test_counit_iso_unit_object(any_h_tw):
    a = build_A(any_h_tw)
    iso, rep = counit_iso(unit_module(any_h_tw), a)
    assert rep.ok
    assert iso.source.dim == 1 and iso.target.dim == 1


def test_counit_iso_regular(any_h_tw):
    a = build_A(any_h_tw)
    iso, rep = counit_iso(regular_module(any_h_tw), a)
    assert rep.ok, rep.render_text()
    assert iso.source.dim == any_h_tw.dim
    assert inverse(iso.matrix) is not None


def test_counit_iso_tensor_square_on_twist(tw):
    a = build_A(tw)
    c = regular_module(tw)
    iso, rep = counit_iso(tensor(c, c), a)
    assert rep.ok, rep.render_text()
    assert iso.source.dim == c.dim ** 2


def test_counit_iso_natural(z2):
    a = build_A(z2)
    c = regular_module(z2)
    iso_c, _ = counit_iso(c, a)
    for f in hom_space(c, c):
        hf = heart_on_morphism(f)
        # push heart(f) through the coinvariants of both sides
        src_am = heart_amodule(a, c)
        pres = coinvariants(src_am)
        bf = coinvariants_on_morphism(hf, pres, pres)
        lhs = iso_c.matrix * bf.matrix
        rhs = f.matrix * iso_c.matrix
        assert lhs == rhs


def test_unit_iso_for_A_and_free_and_heart(any_h):
    a = build_A(any_h)
    for m in (algebra_as_amodule(a),
              free_amodule(a, a.center),
              heart_amodule(a, regular_module(any_h))):
        xi, zeta, rep = unit_iso(m)
        assert rep.ok, rep.render_text()
        assert zeta.then(xi).matrix.is_identity()
        assert xi.then(zeta).matrix.is_identity()


def test_unit_iso_natural(z2):
    a = build_A(z2)
    c = regular_module(z2)
    m = heart_amodule(a, c)
    n_mod = algebra_as_amodule(a)
    xi_m, zeta_m, _ = unit_iso(m)
    xi_n, zeta_n, _ = unit_iso(n_mod)
    pres_m, pres_n = coinvariants(m), coinvariants(n_mod)
    for g in amodule_hom_space(m, n_mod):
        hbg = heart_on_morphism(coinvariants_on_morphism(g, pres_m, pres_n))
        assert zeta_m.matrix.then(hbg.matrix) == g.matrix.then(zeta_n.matrix)
        assert xi_m.matrix.then(g.matrix) == hbg.matrix.then(xi_n.matrix)


def test_amodule_hom_dimensions_match(z2, dr):
    for h in (z2, dr):
        a = build_A(h)
        c = regular_module(h)
        i = unit_module(h)
        pattern = []
        for x in (i, c):
            for y in (i, c):
                d_h = len(hom_space(x, y))
                d_a = len(amodule_hom_space(heart_amodule(a, x),
                                            heart_amodule(a, y)))
                assert d_h == d_a
                pattern.append(d_h)
        assert pattern == [1, 1, 1, 2]


@pytest.mark.parametrize("xs,ys,dim", [("C", "C", 4), ("C", "CC", 16), ("CC", "C", 16)])
def test_hom_dims_on_twist(tw, xs, ys, dim):
    # the hom_dims check of equivalence_report on a dense 17-term associator
    a = build_A(tw)
    c = regular_module(tw)
    objs = {"C": c, "CC": tensor(c, c)}
    x, y = objs[xs], objs[ys]
    d_a = len(amodule_hom_space(heart_amodule(a, x), heart_amodule(a, y)))
    assert d_a == len(hom_space(x, y)) == dim


def test_equivalence_report_small(z2):
    rep = equivalence_report(z2)
    assert rep.ok, rep.render_text()


# -- the memo on the algebra ---------------------------------------------------------

def test_constructions_are_memoized_per_operand(dr):
    a = build_A(dr)
    assert build_A(dr) is a
    c = regular_module(dr)
    am = heart_amodule(a, c)
    assert heart_amodule(a, c) is am
    assert coinvariants(am).module is coinvariants(am).module
    # operands are told apart by identity: an equal module object of its own is a new entry
    assert regular_module(dr) == c and heart_amodule(a, regular_module(dr)) is not am


def _operands(h):
    """One object of each operand type, by type name."""
    a = build_A(h)
    c = regular_module(h)
    am = heart_amodule(a, c)
    return {"HModule": c, "HLinearMap": hom_space(c, c)[0], "CenterObject": am.center,
            "AModule": am, "HeartModule": heart(h, c), "AlgebraA": a,
            "QuotientPresentation": coinvariants(am)}


@pytest.mark.parametrize("kind", ["HModule", "HLinearMap", "CenterObject", "AModule",
                                  "HeartModule", "AlgebraA", "QuotientPresentation"])
def test_operands_are_immutable(dr, kind):
    obj = _operands(dr)[kind]
    assert type(obj).__name__ == kind
    for attr in [*vars(obj), "label", "fresh"]:
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
        if attr in vars(obj):
            with pytest.raises(AttributeError):
                delattr(obj, attr)


def test_a_certified_operand_cannot_change_under_its_verdict(dr):
    a = build_A(dr)
    c = CenterObject(a.center.base, a.center.blocks)
    c.require_valid()
    zero = [Matrix.zero(c.dim, c.dim)] * dr.dim
    with pytest.raises(AttributeError):
        c.blocks = zero
    assert validate_center(c).ok and c.require_valid() is c
    with pytest.raises(VerificationFailure):
        CenterObject(c.base, zero).require_valid()

    am = heart_amodule(a, regular_module(dr))
    quotient = coinvariants(am)
    with pytest.raises(AttributeError):
        am.mu = 2 * am.mu
    assert coinvariants(am) is quotient
    with pytest.raises(VerificationFailure):
        AModule(a, am.center, 2 * am.mu).require_valid()


def test_heart_lives_exactly_as_long_as_its_module(dr):
    c = regular_module(dr)
    cc = tensor(c, c)
    ref = weakref.ref(heart(dr, cc))
    gc.collect()
    assert ref() is heart(dr, cc)
    del cc
    gc.collect()
    assert ref() is None


@functools.cache
def _right_modules(name):
    """(a, [heart(C), A, A (x) A]) over the named algebra."""
    h = get_algebra(name)
    a = build_A(h)
    return a, [heart_amodule(a, regular_module(h)), algebra_as_amodule(a),
               free_amodule(a, a.center)]


@functools.cache
def _basis(name, i, j, kind):
    """Matrices spanning the centre maps, the right-module maps (from the
    solver), or the right-module maps solved from F . mu_m = mu_n . (F (x) I)
    over the centre maps, independently of the right-action pairs."""
    a, mods = _right_modules(name)
    m, n = mods[i], mods[j]
    if kind == "amodule":
        return [g.matrix for g in amodule_hom_space(m, n)]
    centre = [g.matrix for g in center_hom_space(m.center, n.center)]
    if kind == "centre":
        return centre
    idn = Matrix.identity(a.h.dim)
    defects = [{k: x for k, x in enumerate((g * m.mu - n.mu * g.kron(idn)).to_flat()) if x}
               for g in centre]
    return [sum((c * centre[k] for k, c in v.items()), Matrix.zero(n.dim, m.dim))
            for v in kernel(Matrix(n.dim * m.dim * a.h.dim, len(centre), defects))]


@given(st.sampled_from(["drinfeld_h2", "sweedler_h4"]), st.integers(0, 2), st.integers(0, 2),
       st.sampled_from(["random", "centre", "amodule", "kronecker"]), st.data())
@settings(max_examples=80, deadline=None)
def test_morphism_pairs_match_the_kronecker_identities(name, i, j, kind, data):
    # the pair lists against the identities they replace, as the oracle:
    # (I (x) F) . delta_m = delta_n . F and F . mu_m = mu_n . (F (x) I)
    a, mods = _right_modules(name)
    m, n = mods[i], mods[j]
    rnd = data.draw(st.randoms(use_true_random=False))
    if kind == "random":
        f = Matrix.from_flat(n.dim, m.dim, [rnd.randint(-2, 2) for _ in range(n.dim * m.dim)])
    else:  # a nonzero centre or right-module map: no coefficient is 0
        f = Matrix.zero(n.dim, m.dim)
        for g in _basis(name, i, j, kind):
            f = f + rnd.choice([-2, -1, 1, 2]) * g
    idn = Matrix.identity(a.h.dim)
    coacts = intertwines(f, coaction_pairs(m.center, n.center))
    acts = intertwines(f, a.mu_pairs(m.mu, n.mu))
    assert coacts == (idn.kron(f) * stacked(m.center) == stacked(n.center) * f)
    assert acts == (f * m.mu == n.mu * f.kron(idn))
    if kind != "random":
        assert coacts and (acts or kind == "centre")


def test_equivalence_report_on_twist(tw):
    # the whole report on a dense 17-term associator, with the objects I and C
    rep = equivalence_report(tw, [unit_module(tw), regular_module(tw)])
    pairs = ["I;I", "I;C", "C;I", "C;C"]
    assert [i.id for i in rep.items] == [
        "counit_iso[I]", "counit_iso[C]",
        "unit_iso[A]", "unit_iso[(A)*A]", "unit_iso[heart(C)]",
        *(f"hom_dims[{p}]" for p in pairs), *(f"monoidal_heart[{p}]" for p in pairs)]
    assert rep.ok, rep.render_text()


@pytest.mark.slow
def test_equivalence_report_on_twist_default_objects(tw):
    # the whole report on I, C and C(x)C: pytest -m slow times it
    rep = equivalence_report(tw)
    assert len(rep.items) == 24 and rep.ok, rep.render_text()


def test_twist_relations_are_eliminated_sparsest_first(tw, monkeypatch):
    # the [I;C] relations of the twist: 256 vectors in dimension 64, rank 48.
    # Sparsest first, the echelon rows hold 2.5 entries on average; in caller
    # order they fill in to 15.4, and on [C;C(x)C] that costs about a minute
    seen = []
    extend = Echelon.extend

    def spy(ech, vectors):
        vectors = list(vectors)
        grew = extend(ech, vectors)
        seen.append((len(vectors), ech.rank, sum(map(len, ech.rows.values())) / ech.rank))
        return grew

    a = build_A(tw)
    x, y = heart_amodule(a, unit_module(tw)), heart_amodule(a, regular_module(tw))
    monkeypatch.setattr(Echelon, "extend", spy)
    tensor_over_A(x, y)
    (count, rank, mean_row), = seen
    assert (count, rank) == (256, 48)
    assert mean_row <= 4


def _precomposed_relations(m, n_mod):
    """The (x)_A relations precomposed with id_M (x) beta_{N,A}, which turns
    the lambda_N side into a plain mu_N: the same span, other columns."""
    h = m.a.h
    b_na = braiding(n_mod.center, m.a.base).matrix
    top = m.mu.kron(Matrix.identity(n_mod.dim)) \
        * elem_action_matrix(h.phi_inv, [m.base, m.a.base, n_mod.base]) \
        * Matrix.identity(m.dim).kron(b_na)
    return top - Matrix.identity(m.dim).kron(n_mod.mu)


@pytest.mark.parametrize("xs, ys", [("I", "I"), ("I", "C"), ("C", "I"), ("C", "C")])
def test_tensor_over_A_quotient_matches_the_precomposed_relations(any_h_tw, xs, ys):
    # the coequalizer of mu_M (x) id against id (x) lambda_N spans the same
    # relations, and a quotient's pivots do not depend on the spanning set
    h = any_h_tw
    objects = {"I": unit_module(h), "C": regular_module(h)}
    a = build_A(h)
    m, n_mod = heart_amodule(a, objects[xs]), heart_amodule(a, objects[ys])
    pres = tensor_over_A(m, n_mod)
    diff = _precomposed_relations(m, n_mod)
    proj, sec = cokernel_of_columns(diff.rows, diff._int_form()[1])
    assert (pres.projection, pres.section) == (proj, sec)


def _heart_objects(h, names):
    """heart(X) for X in names among I, C and C(x)C, built once per call."""
    c = regular_module(h)
    objects = {"I": unit_module(h), "C": c, "CC": tensor(c, c)}
    a = build_A(h)
    return {name: heart_amodule(a, objects[name]) for name in names}


@pytest.mark.parametrize("name, names", [
    ("group_z2", ("I", "C", "CC")), ("drinfeld_h2", ("I", "C", "CC")),
    ("sweedler_h4", ("I", "C", "CC")), ("sweedler_h4_twist", ("I", "C"))])
def test_tensor_over_A_is_the_padded_construction(name, names):
    # every piece of the quotient, and the ambient centre tensor, equal to
    # the construction from padded maps, on every pair of heart objects
    hearts = _heart_objects(get_algebra(name), names)
    for xs in names:
        for ys in names:
            m, n_mod = hearts[xs], hearts[ys]
            pres, pres0 = tensor_over_A(m, n_mod), naive_tensor_over_A(m, n_mod)
            q, q0 = pres.module, pres0.module
            assert (pres.projection, pres.section) == (pres0.projection, pres0.section)
            assert q.base.action == q0.base.action, (xs, ys)
            assert q.center.blocks == q0.center.blocks, (xs, ys)
            assert q.mu == q0.mu, (xs, ys)
            assert q.label == q0.label == q.base.label, (xs, ys)
            assert tensor_center(m.center, n_mod.center).blocks \
                == naive_tensor_center(m.center, n_mod.center).blocks


def test_no_two_padded_maps_are_alive_at_once(sw):
    # traced peaks on sweedler_h4, heart(C) (x)_A heart(C(x)C): 6.60 MB for
    # the padded construction against 3.01 MB with every ambient action and
    # a memoised block copy of the ambient coaction alive, and 1.92 MB with
    # neither; 5.47 MB against 1.54 MB for the centre tensor alone
    # (tracemalloc; one warm call first, so that the memos of the operands
    # are not counted).  heart(C(x)C) (x)_A heart(C(x)C): 27.21 MB padded,
    # 12.57 MB with the ambient maps whole, 7.83 MB one at a time.  Inside
    # the monoidal check (heart(C(x)C) (x)_A heart(C(x)C)) the stage peaks
    # at 6.93 MB with the relations consumed before the first action is
    # built, 8.18 MB with the 16384 relation vectors alive through the
    # action descents.
    hearts = _heart_objects(sw, ("C", "CC"))
    m, n_mod = hearts["C"], hearts["CC"]
    tensor_over_A(m, n_mod)
    _, peak = traced_peak(lambda: tensor_over_A(m, n_mod))
    assert peak < 2.5 * 2 ** 20
    _, peak = traced_peak(lambda: tensor_center(m.center, n_mod.center))
    assert peak < 2.5 * 2 ** 20
    assert _monoidal_check_peaks()["tensor_over_A"] < 7.5 * 2 ** 20


@functools.cache
def _monoidal_check_peaks() -> dict[str, int]:
    """helpers.stage_peaks of sweedler_h4's monoidal_heart[C*C;C*C], one
    traced run after a warm one (so that the memos of the operands are not
    counted), with its heart_compose, (x)_A and heart-module stages staged
    inside it (the operands' hearts are warm, so the last is heart(X (x) Y));
    one run, since tracing slows these paths about tenfold."""
    sw = get_algebra("sweedler_h4")
    a = build_A(sw)
    c = regular_module(sw)
    cc = tensor(c, c)
    mod_a._descended_compose_iso(a, cc, cc)
    return stage_peaks([("monoidal_heart", lambda: mod_a._descended_compose_iso(a, cc, cc))],
                       inner=[("heart_compose", mod_a, "heart_compose"),
                              ("tensor_over_A", mod_a, "tensor_over_A"),
                              ("heart(X(x)Y)", mod_a, "heart_amodule")])


def test_the_monoidal_check_drops_each_stage_after_its_last_use():
    # traced peak of sweedler_h4's monoidal_heart[C*C;C*C]: 13.73 MB with the
    # composition and the quotient presentation alive while heart(X (x) Y)
    # is built and every ambient map of (x)_A whole, 9.88 MB without.  Its
    # stages, each above what was alive as it began: heart_compose 9.66 MB,
    # (x)_A 7.83 MB (12.57 MB before), heart(X (x) Y) 8.30 MB; with the
    # 1.6 MB that (x)_A leaves, heart(X (x) Y) bounds the check.
    peaks = _monoidal_check_peaks()
    assert peaks["monoidal_heart"] < 11 * 2 ** 20, peaks
    assert max(peaks["heart_compose"], peaks["heart(X(x)Y)"]) < 10.5 * 2 ** 20, peaks


def _closure(vectors, maps) -> list[dict]:
    """A basis of the smallest subspace that holds vectors and is stable
    under maps."""
    ech, basis, todo = Echelon(), [], list(vectors)
    while todo:
        v = todo.pop()
        r = ech.reduce(v)
        if r:
            ech.insert(r)
            basis.append(v)
            todo += [f.apply(v) for f in maps]
    return basis


@pytest.mark.parametrize("closed_under, witness", [
    ((), "relation subspace of (heart(I))(x)A(heart(C)) is not stable under the action: "
         "action 1 differs at column 4, row 3"),
    (("actions",), "coaction does not descend to the quotient: "
                   "coaction block 0 differs at column 4, row 0"),
    (("actions", "coaction"), "right action does not descend to the quotient: "
                              "right action block 1 differs at column 4, row 0")])
def test_a_coequalizer_mutant_names_the_map_that_does_not_descend(dr, monkeypatch,
                                                                  closed_under, witness):
    # (x)_A on drinfeld_h2's heart(I), heart(C) by the span of its first
    # nonzero relation alone, closed under the ambient actions and coaction
    # blocks as given: each closure lets one more kind of map descend
    a = build_A(dr)
    m, n_mod = heart_amodule(a, unit_module(dr)), heart_amodule(a, regular_module(dr))
    maps = []
    if "actions" in closed_under:
        maps += tensor(m.base, n_mod.base).action
    if "coaction" in closed_under:
        maps += tensor_center(m.center, n_mod.center).blocks
    first = next(r for r in mod_a._coequalizer_relations(m, n_mod) if r)
    monkeypatch.setattr(mod_a, "_coequalizer_relations", lambda *_: _closure([first], maps))
    with pytest.raises(VerificationFailure) as exc:
        tensor_over_A(m, n_mod)
    assert str(exc.value) == witness


def _mutant_compose(sw, monkeypatch, post):
    """_descended_compose_iso on heart(I), heart(C) of sweedler_h4 with the
    composition's matrix passed through post(matrix, pres)."""
    a = build_A(sw)
    x, y = unit_module(sw), regular_module(sw)

    def mutant(h, xx, yy):
        pres = tensor_over_A(heart_amodule(a, xx), heart_amodule(a, yy))
        return types.SimpleNamespace(matrix=post(heart_compose(h, xx, yy).matrix, pres))

    monkeypatch.setattr(mod_a, "heart_compose", mutant)
    with pytest.raises(VerificationFailure) as exc:
        mod_a._descended_compose_iso(a, x, y)
    return str(exc.value)


def _kills_no_relation(mat, pres):
    # add e_k^T in row 0 for a coordinate k outside the quotient's section:
    # it vanishes on the section, not on the relations
    free = {i for col in pres.section.columns() for i in col}
    k = min(set(range(mat.cols)) - free)
    return mat + Matrix(mat.rows, mat.cols, [{0: 1} if j == k else {} for j in range(mat.cols)])


def _drop_last_row(mat, pres):
    return Matrix.identity(mat.rows).select(range(mat.rows - 1)).transpose() * mat


def _zero_last_row(mat, pres):
    keep = Matrix(mat.rows, mat.rows, [{i: 1} if i < mat.rows - 1 else {}
                                        for i in range(mat.rows)])
    return keep * mat


def _right_mult_on_the_h_leg(mat, pres):
    # r_g (x) id on heart(I (x) C) = H (x) (I (x) C), g non-central
    h = pres.module.a.h
    rg = h.right_mult_matrix(h.basis_elem(1))
    return rg.kron(Matrix.identity(mat.rows // h.dim)) * mat


@pytest.mark.parametrize("post, witness", [
    (_kills_no_relation, "the composition does not kill the relations of (x)_A"),
    (_drop_last_row, "the descended map is not square: 15x16"),
    (_zero_last_row, "the descended map has rank 15 < 16"),
    (_right_mult_on_the_h_leg,
     "the descended map is not a morphism: action 2 differs at column 0, row 13")])
def test_a_failing_monoidal_comparison_names_its_stage(sw, monkeypatch, post, witness):
    assert _mutant_compose(sw, monkeypatch, post) == witness


def test_a_failing_monoidal_heart_shows_its_witness_in_the_report(sw, monkeypatch):
    a = build_A(sw)

    def mutant(h, x, y):
        return types.SimpleNamespace(matrix=_zero_last_row(heart_compose(h, x, y).matrix, None))

    monkeypatch.setattr(mod_a, "heart_compose", mutant)
    rep = equivalence_report(sw, [unit_module(sw)])
    item, = [i for i in rep.items if i.id.startswith("monoidal_heart")]
    assert (item.id, item.ok) == ("monoidal_heart[I;I]", False)
    assert item.details.startswith("the descended map has rank ")
    assert all(i.ok and not i.details for i in rep.items
               if not i.id.startswith(("monoidal_heart", "hom_dims")))
