import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quasihopf import cli
from quasihopf.qha import (BUILTIN_NAMES, QuasiHopfAlgebra, TensorElement,
                           algebra_from_json, algebra_to_json, builtin, kappa_inverse,
                           kappa_lambda, verify_derived_identities)
from quasihopf.report import VerificationFailure

from conftest import TWISTED, get_algebra


def test_builtins_pass_axioms(any_h_tw):
    assert any_h_tw.verify_axioms().ok


def test_twisted_sweedler_is_genuinely_quasi(tw):
    # a dense associator and a product that does not commute
    assert len(tw.phi.coeffs) == 17
    assert tw.alpha == TensorElement(4, 1, {0: 1, 2: 1, 3: 1})   # 1 + x + gx
    assert tw.mul_vec({1: 1}, {2: 1}) != tw.mul_vec({2: 1}, {1: 1})
    assert tw.mul(tw.phi, tw.phi_inv) == tw.unit_elem(3)


def test_group_z2_relations(z2):
    g = z2.basis_elem(1)
    assert z2.mul(g, g) == z2.basis_elem(0)


def test_phi_inverse_law(any_h):
    one3 = any_h.unit_elem(3)
    assert any_h.mul(any_h.phi, any_h.phi_inv) == one3
    assert any_h.mul(any_h.phi_inv, any_h.phi) == one3


def test_drinfeld_phi_is_involutive(dr):
    assert dr.phi != dr.unit_elem(3)
    assert dr.mul(dr.phi, dr.phi) == dr.unit_elem(3)
    assert dr.phi_inv == dr.phi


def test_drinfeld_beta_slot_squares_to_unit(dr):
    t = dr.unit_elem(1).tensor(dr.beta).tensor(dr.unit_elem(1))
    assert dr.mul(t, t) == dr.unit_elem(3)


def test_sweedler_antipode_not_involutive(sw):
    assert not (sw.antipode * sw.antipode).is_identity()
    assert (sw.antipode * sw.antipode_inv).is_identity()


def test_unknown_builtin():
    with pytest.raises(KeyError):
        builtin("nope")


# -- spread -------------------------------------------------------------------

def test_spread_grouplike(z2):
    g = z2.basis_elem(1)
    t = g.tensor(g)
    spread = z2.spread(t, [(1, 3), (2,)], 3)
    assert spread == g.tensor(g).tensor(g)


def test_spread_singletons_is_identity(dr):
    assert dr.spread(dr.phi, [(1,), (2,), (3,)], 3) == dr.phi


def test_spread_rejects_bad_groups(z2):
    g = z2.basis_elem(1)
    with pytest.raises(ValueError):
        z2.spread(g, [(1, 1)], 2)
    with pytest.raises(ValueError):
        z2.spread(g.tensor(g), [(1,), (1,)], 2)
    with pytest.raises(ValueError):
        z2.spread(g, [(4,)], 3)


G = TensorElement(2, 1, {1: 1})   # g in group_z2, an element of another algebra than sw
GG = G.tensor(G)

BAD_LEG_CALLS = {
    "apply_leg-foreign": (lambda h: h.apply_leg(G, 1, h.antipode), "dimension 2 given to dimension 4"),
    "spread-foreign": (lambda h: h.spread(G, [(1, 2)], 2), "dimension 2 given to dimension 4"),
    "counit_legs-foreign": (lambda h: h.counit_legs(GG, [1]), "dimension 2 given to dimension 4"),
    "fuse_legs-foreign": (lambda h: h.fuse_legs(GG, 1), "dimension 2 given to dimension 4"),
    "fuse_legs-0": (lambda h: h.fuse_legs(h.unit_elem(2), 0), r"leg 0 outside 1\.\.1"),
    "fuse_legs-negative": (lambda h: h.fuse_legs(h.unit_elem(2), -1), r"leg -1 outside 1\.\.1"),
    "fuse_legs-last": (lambda h: h.fuse_legs(h.unit_elem(2), 2), r"leg 2 outside 1\.\.1"),
}


@pytest.mark.parametrize("case", list(BAD_LEG_CALLS))
def test_leg_operations_reject_bad_input(sw, case):
    call, message = BAD_LEG_CALLS[case]
    with pytest.raises(ValueError, match=message):
        call(sw)


def test_kappa_matches_footnote_formula(dr):
    # the five-leg element is (1 x phi_inv x 1) (spread of Phi over (1,5),2,(3,4))
    kappa, lam = kappa_lambda(dr)
    expected = dr.mul(dr.spread(dr.phi_inv, [(2,), (3,), (4,)], 5),
                      dr.spread(dr.phi, [(1, 5), (2,), (3, 4)], 5))
    assert kappa == expected
    assert kappa != dr.unit_elem(5)
    kinv = dr.tensor_inverse(kappa)
    assert dr.mul(kappa, kinv) == dr.unit_elem(5)
    linv = dr.tensor_inverse(lam)
    assert dr.mul(lam, linv) == dr.unit_elem(5)


def test_kappa_inverse_matches_solved_inverse(any_h):
    kappa, _ = kappa_lambda(any_h)
    kinv = kappa_inverse(any_h)
    assert kinv == any_h.tensor_inverse(kappa)
    assert kappa_inverse(any_h, kappa) == kinv


# -- integer products against a naive Fraction reference ------------------------

def naive_mul(h, s, t):
    out = {}
    for I, c in s.coeffs.items():
        for J, d in t.coeffs.items():
            terms = {(): Fraction(c) * Fraction(d)}
            for i, j in zip(I, J):
                terms = {idx + (k,): x * Fraction(y)
                         for idx, x in terms.items() for k, y in h.mult[i][j].items()}
            for idx, x in terms.items():
                out[idx] = out.get(idx, Fraction(0)) + x
    return {idx: x for idx, x in out.items() if x}


COEFFS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    # dyadic and thirds, plus integral Fractions (denominator 1)
    st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3, 4])),
)


def z2_half():
    """Z/2 in the basis 1, g/2: (g/2)^2 = 1/4, a multiplication table with
    denominators (every builtin's table is integral)."""
    from quasihopf.linalg import Matrix
    from quasihopf.qha import QuasiHopfAlgebra
    return QuasiHopfAlgebra(
        dim=2, basis=["1", "g/2"], mult=[[{0: 1}, {1: 1}], [{1: 1}, {0: Fraction(1, 4)}]],
        unit={0: 1}, comult=[{(0, 0): 1}, {(1, 1): 2}], counit=[1, Fraction(1, 2)],
        phi=TensorElement(2, 3, {(0, 0, 0): 1}), antipode=Matrix.identity(2),
        alpha={0: 1}, beta={0: 1}, name="z2_half").require_valid()


def trivial_one():
    """The ground field as a one-dimensional Hopf algebra: every flat weight
    of a leg is 1, so the product must find its last leg by depth."""
    from quasihopf.linalg import Matrix
    from quasihopf.qha import QuasiHopfAlgebra
    return QuasiHopfAlgebra(
        dim=1, basis=["1"], mult=[[{0: 1}]], unit={0: 1}, comult=[{(0, 0): 1}], counit=[1],
        phi=TensorElement(1, 3, {(0, 0, 0): 1}), antipode=Matrix.identity(1),
        alpha={0: 1}, beta={0: 1}, name="one").require_valid()


LOCAL_ALGEBRAS = {"z2_half": z2_half, "one": trivial_one}


@given(st.sampled_from(["drinfeld_h2", "sweedler_h4", TWISTED, "z2_half", "one"]),
       st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_mul_matches_naive_fraction_product(name, legs, data):
    # scalars up to five legs; the twist's product does not commute, so a
    # product that swaps its factors anywhere in the leg recursion fails here
    h = LOCAL_ALGEBRAS[name]() if name in LOCAL_ALGEBRAS else get_algebra(name)
    index = st.tuples(*[st.integers(0, h.dim - 1)] * legs)
    s, t = (TensorElement(h.dim, legs, data.draw(st.dictionaries(index, COEFFS, max_size=6)))
            for _ in range(2))
    got = h.mul(s, t)
    assert got.coeffs == naive_mul(h, s, t)
    assert all(type(x) is int or x.denominator != 1 for x in got.coeffs.values())


# -- the leg calculus against per-definition oracles -------------------------------

def naive_icomult(h, i, m):
    terms = {(i,): Fraction(1)}
    for _ in range(m - 1):
        nxt = {}
        for idx, c in terms.items():
            for (j, k), d in h.comult[idx[0]].items():
                key = (j, k) + idx[1:]
                nxt[key] = nxt.get(key, 0) + c * d
        terms = nxt
    return {idx: x for idx, x in terms.items() if x}


def naive_spread(h, t, groups, total):
    # a stack of partial placements, one leg group and then one free position at a time
    free = [p for p in range(1, total + 1) if not any(p in g for g in groups)]
    out = {}
    for idx, c in t.coeffs.items():
        stack = [({}, Fraction(c))]
        for i, g in zip(idx, groups):
            stack = [({**placed, **dict(zip(g, legidx))}, x * d)
                     for placed, x in stack for legidx, d in naive_icomult(h, i, len(g)).items()]
        for pos in free:
            stack = [({**placed, pos: b}, x * d) for placed, x in stack for b, d in h.unit.items()]
        for placed, x in stack:
            key = tuple(placed[p] for p in range(1, total + 1))
            out[key] = out.get(key, 0) + x
    return {idx: x for idx, x in out.items() if x}


def naive_apply_leg(t, leg, op):
    out = {}
    for idx, c in t.coeffs.items():
        for k, d in op.col(idx[leg - 1]).items():
            key = idx[:leg - 1] + (k,) + idx[leg:]
            out[key] = out.get(key, 0) + Fraction(c) * d
    return {idx: x for idx, x in out.items() if x}


def naive_fuse_legs(h, t, leg):
    out = {}
    for idx, c in t.coeffs.items():
        for k, x in h.mult[idx[leg - 1]][idx[leg]].items():
            key = idx[:leg - 1] + (k,) + idx[leg + 1:]
            out[key] = out.get(key, 0) + Fraction(c) * x
    return {idx: x for idx, x in out.items() if x}


def naive_counit_legs(h, t, legs):
    out = {}
    for idx, c in t.coeffs.items():
        c = Fraction(c)
        for leg in legs:
            c *= h.counit[idx[leg - 1]]
        key = tuple(i for leg, i in enumerate(idx, 1) if leg not in legs)
        out[key] = out.get(key, 0) + c
    return {idx: x for idx, x in out.items() if x}


def naive_permute_legs(t, order):
    return {tuple(idx[o - 1] for o in order): c for idx, c in t.coeffs.items()}


def assert_canonical(coeffs, dim, legs):
    """The form TensorElement._of trusts: keys of the right length with
    indices in range, no zero, and an int for every integral value."""
    for idx, c in coeffs.items():
        assert type(idx) is tuple and len(idx) == legs and all(0 <= i < dim for i in idx)
        assert c and (type(c) is int or type(c) is Fraction and c.denominator != 1)


def draw_element(data, h, legs):
    index = st.tuples(*[st.integers(0, h.dim - 1)] * legs)
    return TensorElement(h.dim, legs, data.draw(st.dictionaries(index, COEFFS, max_size=6)))


@given(st.sampled_from(["group_z2", "drinfeld_h2", "sweedler_h4", TWISTED]),
       st.integers(0, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_leg_calculus_matches_the_definitions(name, total, data):
    h = get_algebra(name)

    def check(got, expected, legs):
        assert got.dim == h.dim and got.legs == legs and got.coeffs == expected
        assert_canonical(got.coeffs, h.dim, legs)

    # spread: k legs over groups cut from a shuffled list of the positions, the rest free
    positions = data.draw(st.permutations(range(1, total + 1)))
    k = data.draw(st.integers(0, total))
    used = data.draw(st.integers(k, total)) if k else 0
    cuts = sorted(data.draw(st.sets(st.integers(1, max(used - 1, 1)),
                                    min_size=max(k - 1, 0), max_size=max(k - 1, 0))))
    bounds = [0, *cuts, used]
    groups = [tuple(positions[a:b]) for a, b in zip(bounds, bounds[1:])] if k else []
    t = draw_element(data, h, k)
    check(h.spread(t, groups, total), naive_spread(h, t, groups, total), total)

    legs = max(total, 1)
    u = draw_element(data, h, legs)
    for leg in range(1, legs + 1):
        for op in (h.antipode, h.antipode_inv):
            check(h.apply_leg(u, leg, op), naive_apply_leg(u, leg, op), legs)
    for leg in range(1, legs):
        check(h.fuse_legs(u, leg), naive_fuse_legs(h, u, leg), legs - 1)
    dropped = data.draw(st.sets(st.integers(1, legs)))
    check(h.counit_legs(u, dropped), naive_counit_legs(h, u, dropped), legs - len(dropped))
    order = data.draw(st.permutations(range(1, legs + 1)))
    check(u.permute_legs(order), naive_permute_legs(u, order), legs)

    i, m = data.draw(st.integers(0, h.dim - 1)), data.draw(st.integers(1, 5))
    got = h.icomult(i, m)
    assert got == naive_icomult(h, i, m)
    assert_canonical(got, h.dim, m)


def test_leg_calculus_gives_ints_for_integral_sums(any_h_tw):
    # halves that meet on one key sum to an integral value, which must be an int
    h = any_h_tw

    def halves(*keys):
        return TensorElement(h.dim, 2, {k: Fraction(1, 2) for k in keys})

    for got in (h.fuse_legs(halves((0, 1), (1, 0)), 1), h.counit_legs(halves((0, 1), (1, 1)), [1]),
                h.counit_legs(halves((1, 0), (1, 1)), [2])):
        assert got.coeffs == {(1,): 1} and type(got.coeffs[1,]) is int
        assert_canonical(got.coeffs, h.dim, 1)


def test_kappa_lambda_trivial_for_hopf(z2, sw):
    for h in (z2, sw):
        kappa, lam = kappa_lambda(h)
        assert kappa == h.unit_elem(5)
        assert lam == h.unit_elem(5)


def test_kappa_lambda_eps_identities(any_h):
    kappa, lam = kappa_lambda(any_h)
    assert any_h.counit_legs(kappa, [3, 4]) == any_h.unit_elem(3)
    assert any_h.counit_legs(lam, [4, 5]) == any_h.unit_elem(3)


# -- derived identities ---------------------------------------------------------

def test_derived_identities(any_h_tw):
    rep = verify_derived_identities(any_h_tw)
    assert rep.ok, rep.render_text()


def test_eps_on_phi(dr):
    one2 = dr.unit_elem(2)
    for leg in (1, 2, 3):
        assert dr.counit_legs(dr.phi, [leg]) == one2
        assert dr.counit_legs(dr.phi_inv, [leg]) == one2


def test_beta_collapse_trivial_for_z2(z2):
    # with a trivial associator both sides are 1 x beta x 1 on the nose
    w = z2.adjoint_sandwich(z2.beta_vec)
    lhs = z2.apply_leg(z2.phi_inv, 2, w)
    expected = z2.unit_elem(1).tensor(z2.beta).tensor(z2.unit_elem(1))
    assert lhs == expected


# -- negative controls ----------------------------------------------------------

def corrupt_alpha(name, new_alpha):
    """The builtin with alpha replaced, built afresh: an algebra is immutable."""
    h = builtin(name)
    return QuasiHopfAlgebra(h.dim, h.basis, h.mult, h.unit, h.comult, h.counit, h.phi,
                            h.antipode, TensorElement(h.dim, 1, new_alpha), h.beta,
                            phi_inv=h.phi_inv, antipode_inv=h.antipode_inv, name=h.name)


def test_alpha_corruption_flags_h3():
    bad = corrupt_alpha("group_z2", {(1,): 1})  # alpha := g
    rep = bad.verify_axioms()
    fails = {item.id for item in rep.failures()}
    assert "H3.zigzag" in fails
    # the other zigzag evaluates to alpha*beta = g and is forced to fail too
    assert fails <= {"H3.zigzag", "H4.zigzag"}
    with pytest.raises(VerificationFailure):
        bad.require_valid()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_algebra_is_immutable(name):
    h = builtin(name)
    with pytest.raises(AttributeError, match="immutable"):
        h.alpha = TensorElement(h.dim, 1, {(1,): 1})
    for attr in ("phi", "name", "_memo", "fresh"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(h, attr, None)
    with pytest.raises(AttributeError, match="immutable"):
        del h.beta
    assert h.alpha == builtin(name).alpha
    assert h.verify_axioms() is h.verify_axioms() and h.verify_axioms().ok


def test_drinfeld_alpha_to_one_fails():
    bad = corrupt_alpha("drinfeld_h2", {(0,): 1})
    rep = bad.verify_axioms()
    assert not rep.ok
    assert any(item.id == "H3.zigzag" for item in rep.failures())


# -- element arithmetic -----------------------------------------------------------

def test_mul_associative_and_unital_random(any_h):
    rng = random.Random(3)
    h = any_h
    for legs in (1, 2):
        one = h.unit_elem(legs)
        size = h.dim ** legs

        def rnd():
            return h.elem(legs, [Fraction(rng.randint(-2, 2)) for _ in range(size)])

        for _ in range(5):
            a, b, c = rnd(), rnd(), rnd()
            assert h.mul(h.mul(a, b), c) == h.mul(a, h.mul(b, c))
            assert h.mul(one, a) == a
            assert h.mul(a, one) == a


def test_leg_mismatch_rejected(z2):
    with pytest.raises(ValueError):
        z2.mul(z2.unit_elem(1), z2.unit_elem(2))


def test_permute_legs(dr):
    t = dr.basis_elem(0).tensor(dr.basis_elem(1))
    assert t.permute_legs((2, 1)) == dr.basis_elem(1).tensor(dr.basis_elem(0))
    with pytest.raises(ValueError):
        t.permute_legs((1, 1))


def test_tensor_element_flat_roundtrip(dr):
    flat = dr.phi.to_flat()
    assert dr.elem(3, flat) == dr.phi


# -- serialization -----------------------------------------------------------------

def test_json_roundtrip_bit_identical():
    for name in (*BUILTIN_NAMES, TWISTED):
        h = get_algebra(name)
        text = algebra_to_json(h)
        h2 = algebra_from_json(text)
        assert algebra_to_json(h2) == text
        assert h2.verify_axioms().ok


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_export_matches_the_pinned_file(name, capsys):
    # the file format itself: a reader and a writer that both swapped two legs
    # of mult or comult would still round-trip; sweedler_h4's product and
    # coproduct are not symmetric, so its file pins the leg order
    golden = (Path(__file__).resolve().parent / "golden" / f"export_{name}.json").read_text(encoding="utf-8")
    assert cli.main(["export", name]) == 0
    assert capsys.readouterr().out == golden
    h, back = builtin(name), algebra_from_json(golden)
    assert (back.mult, back.comult, back.phi) == (h.mult, h.comult, h.phi)


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        algebra_from_json('{"dim": 2}')


def test_constructor_reports_shape_problems_before_axioms():
    from quasihopf.linalg import Matrix
    from quasihopf.qha import QuasiHopfAlgebra
    good = dict(dim=2, basis=["1", "g"],
                mult=[[{0: 1}, {1: 1}], [{1: 1}, {0: 1}]],
                unit={0: 1}, comult=[{(0, 0): 1}, {(1, 1): 1}],
                counit=[1, 1], phi=TensorElement(2, 3, {(0, 0, 0): 1}),
                antipode=Matrix.identity(2), alpha={0: 1}, beta={0: 1})
    QuasiHopfAlgebra(**good)  # sanity
    for corrupt in (
        dict(good, counit=[1]),
        dict(good, mult=[[{0: 1}], [{1: 1}, {0: 1}]]),
        dict(good, comult=[{(0, 0): 1}]),
        dict(good, unit={5: 1}),
        dict(good, comult=[{(0, 7): 1}, {(1, 1): 1}]),
        dict(good, antipode=Matrix.identity(3)),
    ):
        with pytest.raises(ValueError):
            QuasiHopfAlgebra(**corrupt)


def _z2_scaled(one, zero, half, four):
    """Z/2 in the basis 1, 2g: (2g)^2 = 4 and Delta(2g) = 1/2 (2g (x) 2g), with
    explicit zero entries, built from whatever coefficient form is given."""
    from quasihopf.linalg import Matrix
    return QuasiHopfAlgebra(
        dim=2, basis=["1", "2g"],
        mult=[[{0: one, 1: zero}, {1: one}], [{1: one}, {0: four, 1: zero}]],
        unit={0: one, 1: zero}, comult=[{(0, 0): one, (0, 1): zero}, {(1, 1): half}],
        counit=[1, 2], phi=TensorElement(2, 3, {(0, 0, 0): 1}),
        antipode=Matrix.identity(2), alpha={0: 1}, beta={0: 1})


def test_constructor_coerces_string_and_fraction_entries_like_ints():
    def tables(h):
        return repr((h.mult, h.unit, h.comult))

    want = tables(_z2_scaled(1, 0, Fraction(1, 2), 4))
    assert want == repr(([[{0: 1}, {1: 1}], [{1: 1}, {0: 4}]], {0: 1},
                         [{(0, 0): 1}, {(1, 1): Fraction(1, 2)}]))  # zeros dropped
    assert tables(_z2_scaled("1", "0", "1/2", " 4 ")) == want
    assert tables(_z2_scaled(Fraction(1), Fraction(0), Fraction(2, 4), Fraction(8, 2))) == want
    with pytest.raises(TypeError):
        _z2_scaled(True, 0, Fraction(1, 2), 4)


def test_singular_associator_without_inverse_is_rejected():
    from quasihopf.linalg import Matrix
    from quasihopf.qha import QuasiHopfAlgebra
    # 1x1x1 + gxgxg is a zero divisor in the cube of the group algebra
    with pytest.raises(ValueError, match="associator is not invertible"):
        QuasiHopfAlgebra(dim=2, basis=["1", "g"],
                         mult=[[{0: 1}, {1: 1}], [{1: 1}, {0: 1}]],
                         unit={0: 1}, comult=[{(0, 0): 1}, {(1, 1): 1}], counit=[1, 1],
                         phi=TensorElement(2, 3, {(0, 0, 0): 1, (1, 1, 1): 1}),
                         antipode=Matrix.identity(2), alpha={0: 1}, beta={0: 1})
