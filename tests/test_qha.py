import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    for name in BUILTIN_NAMES:
        h = get_algebra(name)
        text = algebra_to_json(h)
        h2 = algebra_from_json(text)
        assert algebra_to_json(h2) == text
        assert h2.verify_axioms().ok


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
