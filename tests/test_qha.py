import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quasihopf import cli, qha
from quasihopf.qha import (BUILTIN_NAMES, _leg_order, QuasiHopfAlgebra, TensorElement,
                           algebra_from_json, algebra_to_json, builtin, kappa_inverse,
                           kappa_lambda, verify_derived_identities)
from quasihopf.linalg import Matrix, _lcm_denominator
from quasihopf.report import Report, VerificationFailure

from conftest import DENSE_TWIST, SQUARE, TWISTED, get_algebra
from helpers import (elem, naive_adjoint_action, naive_adjoint_sandwich, naive_antipode_sandwich,
                     naive_axioms, naive_icomult, naive_left_mult, naive_mul, naive_right_mult,
                     naive_sandwich, vec_of)


def test_builtins_pass_axioms(any_h_tw):
    assert any_h_tw.verify_axioms().ok


def test_twisted_sweedler_is_genuinely_quasi(tw):
    # a dense associator and a product that does not commute
    assert len(tw.phi.coeffs) == 17
    assert tw.alpha == TensorElement(4, 1, {0: 1, 2: 1, 3: 1})   # 1 + x + gx
    g, x = tw.basis_elem(1), tw.basis_elem(2)
    assert tw.mul(g, x) != tw.mul(x, g)
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
    "left_mult-foreign": (lambda h: h.left_mult_matrix(G), "one-leg element of dimension 4"),
    "right_mult-two-legs": (lambda h: h.right_mult_matrix(h.unit_elem(2)),
                            "one-leg element of dimension 4"),
    "sandwich-foreign": (lambda h: h.adjoint_sandwich(G), "one-leg element of dimension 4"),
    "adjoint_action-foreign": (lambda h: h.adjoint_action_of(G), "dimension 2 given to dimension 4"),
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


@pytest.mark.parametrize("name, which", [
    *[(name, which) for name in ("group_z2", "drinfeld_h2", "sweedler_h4", TWISTED, DENSE_TWIST,
                                 SQUARE) for which in ("phi", "phi_inv")],
    (SQUARE, "kappa")])
def test_tensor_inverse_solves_with_the_column_by_column_left_multiplication(
        name, which, monkeypatch):
    # L_t through elem_action_matrix against L_t built one column mul(t, e_idx) at a time
    h = get_algebra(name)
    t = kappa_lambda(h)[0] if which == "kappa" else getattr(h, which)
    seen, real = [], qha.solve
    monkeypatch.setattr(qha, "solve", lambda a, b: seen.append(a) or real(a, b))
    inv = h.tensor_inverse(t)
    cols = [h.mul(t, TensorElement._of(h.dim, t.legs, {idx: 1})).as_vector()
            for idx in product(range(h.dim), repeat=t.legs)]
    assert seen == [Matrix(len(cols), len(cols), cols)]
    assert h.mul(t, inv) == h.unit_elem(t.legs) == h.mul(inv, t)


def test_kappa_inverse_matches_solved_inverse(any_h):
    kappa, _ = kappa_lambda(any_h)
    kinv = kappa_inverse(any_h)
    assert kinv == any_h.tensor_inverse(kappa)
    assert kappa_inverse(any_h, kappa) == kinv


# -- integer products against a naive Fraction reference ------------------------

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
    assert got == naive_mul(h, s, t)
    assert all(type(x) is int or x.denominator != 1 for x in got.coeffs.values())


# -- the leg order of mul ---------------------------------------------------------

MUL_ALGEBRAS = ["group_z2", "drinfeld_h2", "sweedler_h4", TWISTED, SQUARE, "one"]


@st.composite
def mul_cases(draw):
    """(h, s, t) with 1 to 5 legs, each operand zero, one term, or a sum of
    rational terms, on the builtins, the twist, the dr2 square and dimension 1."""
    name = draw(st.sampled_from(MUL_ALGEBRAS))
    h = LOCAL_ALGEBRAS[name]() if name in LOCAL_ALGEBRAS else get_algebra(name)
    legs = draw(st.integers(1, 5))
    index = st.tuples(*[st.integers(0, h.dim - 1)] * legs)

    def operand():
        lo, hi = {"zero": (0, 0), "one-term": (1, 1), "rational": (2, 24)}[
            draw(st.sampled_from(["zero", "one-term", "rational"]))]
        return TensorElement(h.dim, legs, draw(st.dictionaries(
            index, COEFFS.filter(bool), min_size=min(lo, h.dim ** legs), max_size=hi)))

    return h, operand(), operand()


@given(mul_cases())
@settings(max_examples=80, deadline=None)
def test_mul_is_the_naive_product_in_every_leg_order(case):
    # the chosen order, and for up to four legs every order the trie product
    # could nest by: the output keys stay in the original leg order
    h, s, t = case
    want = naive_mul(h, s, t)
    assert h.mul(s, t) == want
    if s.legs <= 4:
        for order in permutations(range(s.legs)):
            with patch.object(qha, "_leg_order", lambda *_, o=order: o):
                assert h.mul(s, t) == want, order


def prefix_pairs(s, t, order):
    """The sum over depths d of (distinct prefixes of s) x (those of t) on
    the first d legs of ``order``."""
    return sum(len({tuple(i[l] for l in order[:d]) for i in s.coeffs})
               * len({tuple(j[l] for l in order[:d]) for j in t.coeffs})
               for d in range(1, s.legs + 1))


def cheapest_order(s, t):
    """The lexicographically first order with the fewest prefix pairs, by
    trying every permutation (``permutations`` yields them in that order)."""
    return min(permutations(range(s.legs)), key=lambda order: prefix_pairs(s, t, order))


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_leg_order_is_the_first_cheapest_permutation(dim, legs, data):
    # the pass runs where it costs less (2^legs (|s| + |t|)) than the bound
    # on the prefix pairs it could save (legs |s| |t|)
    keys = list(product(range(dim), repeat=legs))

    def operand():   # a term count drawn evenly, so that both branches are met
        k = data.draw(st.integers(min(2, len(keys)), min(40, len(keys))))
        picked = data.draw(st.permutations(keys))[:k]
        coeffs = data.draw(st.lists(COEFFS.filter(bool), min_size=k, max_size=k))
        return TensorElement(dim, legs, dict(zip(picked, coeffs)))

    s, t = operand(), operand()
    m, n = len(s.coeffs), len(t.coeffs)
    pays = legs * m * n > 2 ** legs * (m + n)
    assert _leg_order(s, t) == (cheapest_order(s, t) if pays else tuple(range(legs)))


def test_leg_order_is_kept_where_the_pass_costs_more_than_it_can_save(dr):
    # drinfeld_h2's five-leg factors of kappa: 8 terms each, 5 * 64 prefix
    # pairs at most against a pass over 32 leg sets of 16 terms
    s = dr.spread(dr.phi_inv, [(2,), (3,), (4,)], 5)
    t = dr.spread(dr.phi, [(1, 5), (2,), (3, 4)], 5)
    assert (len(s.coeffs), len(t.coeffs)) == (8, 8)
    assert _leg_order(s, t) == (0, 1, 2, 3, 4) != cheapest_order(s, t)


def test_leg_order_of_the_dr2_kappa_check():
    # kappa_inverse's kappa^-1 . kappa: the given order is the worst of 120
    h = get_algebra(SQUARE)
    kappa, _ = kappa_lambda(h)
    kinv = kappa_inverse(h, kappa)
    order = _leg_order(kinv, kappa)
    assert order == cheapest_order(kinv, kappa) == (0, 4, 2, 3, 1)
    costs = [prefix_pairs(kinv, kappa, o) for o in permutations(range(5))]
    assert (prefix_pairs(kinv, kappa, order), prefix_pairs(kinv, kappa, range(5))) == (
        min(costs), max(costs)) == (10913, 24368)


def test_leg_order_keeps_the_given_order_for_a_one_term_operand(sw):
    # legs 2 and 3 are constant, so with many terms on both sides they go first
    many = TensorElement(4, 4, {(i, 0, 0, j): i + j + 1 for i in range(4) for j in range(4)})
    assert _leg_order(many, many) == cheapest_order(many, many) == (1, 2, 0, 3)
    for few in (sw.unit_elem(4), TensorElement(4, 4, {(3, 2, 1, 0): 5}),
                TensorElement(4, 4, {})):
        assert _leg_order(many, few) == _leg_order(few, many) == (0, 1, 2, 3)


# -- shared sub-tries in mul ------------------------------------------------------

SHARING_ALGEBRAS = ["group_z2", "drinfeld_h2", "sweedler_h4", TWISTED, "one"]


@st.composite
def shared_operands(draw, h, legs):
    """An operand whose leg tries repeat sub-tries in some leg order: x (x) y;
    a spread of Phi or Phi^-1 (at least three legs); or a sum of e_i (x)
    blocks where a block is B or B with one coefficient or one index changed
    (at least two legs).  The legs are then permuted, so that the repeats
    fall under every nesting."""
    def small(k):
        index = st.tuples(*[st.integers(0, h.dim - 1)] * k)
        return TensorElement(h.dim, k, draw(st.dictionaries(
            index, COEFFS.filter(bool), min_size=1, max_size=3)))

    kinds = ["tensor"] + ["blocks"] * (legs >= 2) + ["spread"] * (legs >= 3)
    kind = draw(st.sampled_from(kinds))
    if kind == "tensor":
        k = draw(st.integers(0, legs))
        t = small(k).tensor(small(legs - k))
    elif kind == "spread":
        slots = draw(st.permutations(range(1, legs + 1)))
        cuts = sorted(draw(st.lists(st.integers(1, legs - 1), min_size=2, max_size=2,
                                    unique=True)))
        groups = [slots[:cuts[0]], slots[cuts[0]:cuts[1]], slots[cuts[1]:]]
        t = h.spread(draw(st.sampled_from([h.phi, h.phi_inv])), groups, legs)
    else:
        block = small(legs - 1)
        key, c = draw(st.sampled_from(list(block.coeffs.items())))
        if draw(st.booleans()):
            other = {**block.coeffs, key: c + 1}   # one coefficient changed
        else:
            moved = (*key[:-1], (key[-1] + 1) % h.dim)   # one index changed
            other = {k: x for k, x in block.coeffs.items() if k != key}
            other[moved] = other.get(moved, 0) + c
        variants = [block, TensorElement(h.dim, legs - 1, other)]
        t = sum((h.basis_elem(i).tensor(draw(st.sampled_from(variants))) for i in range(h.dim)),
                TensorElement(h.dim, legs, {}))
    return t.permute_legs(draw(st.permutations(range(1, legs + 1))))


@given(st.sampled_from(SHARING_ALGEBRAS), st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_mul_with_shared_sub_tries_is_the_naive_product_in_every_leg_order(name, legs, data):
    # a memo key that forgets an operand, or an interned leaf that forgets a
    # coefficient, merges sub-tries that differ and fails here
    h = LOCAL_ALGEBRAS[name]() if name in LOCAL_ALGEBRAS else get_algebra(name)
    s, t = (data.draw(shared_operands(h, legs)) for _ in range(2))
    want = naive_mul(h, s, t)
    for order in permutations(range(legs)):
        with patch.object(qha, "_leg_order", lambda *_, o=order: o):
            assert h.mul(s, t) == want, order


def test_leg_trie_shares_equal_sub_tries_only():
    y = TensorElement(3, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2})
    changed = TensorElement(3, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 3})
    moved = TensorElement(3, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 2): 2})
    e = [TensorElement(3, 1, {(i,): 1}) for i in range(3)]
    t = e[0].tensor(y) + e[1].tensor(y) + e[2].tensor(changed)
    _, trie = qha._leg_trie(t, (0, 1, 2))
    assert trie[0] is trie[1] is not trie[2]
    assert trie[0][0] is trie[0][1] is trie[2][0]   # the leaf {0: 1, 1: 2} at depth 2
    assert trie[2][1] is not trie[0][1]              # {0: 1, 1: 3}: one coefficient differs
    _, trie = qha._leg_trie(e[0].tensor(y) + e[1].tensor(moved), (0, 1, 2))
    assert trie[0] is not trie[1] and trie[1][1] is not trie[1][0]   # {0: 1, 2: 2}
    assert trie[0][0] is trie[1][0]


def plain_leg_trie(t, order):
    """The leg trie of qha._leg_trie without interning: a tree, so every
    pair of sub-tries is met once and the memo of the product never hits."""
    den = _lcm_denominator(t.coeffs.values()) or 1
    root = {}
    for idx, c in t.coeffs.items():
        node = root
        for l in order[:-1]:
            node = node.setdefault(idx[l], {})
        node[idx[order[-1]]] = int(c * den)
    return den, root


def count_sub_products(h, s, t):
    """(the product, the number of _trie_product calls it made)."""
    real, calls = qha._trie_product, [0]

    def spy(*args):
        calls[0] += 1
        return real(*args)

    with patch.object(qha, "_trie_product", spy):
        return h.mul(s, t), calls[0]


def test_the_dr2_products_multiply_each_distinct_sub_product_once():
    # kappa_inverse's kappa^-1 . kappa and counit_iso's nu = kbar . lambda',
    # kbar = kappa^-1: computed sub-products against those a tree visits
    h = get_algebra(SQUARE)
    kappa, lam = kappa_lambda(h)
    kbar = kappa_inverse(h, kappa)
    pairs = {"kinv.kappa": (kbar, kappa), "kbar.lam'": (kbar, lam.permute_legs((2, 3, 4, 5, 1)))}
    counts = {}
    for name, (s, t) in pairs.items():
        shared, computed = count_sub_products(h, s, t)
        with patch.object(qha, "_leg_trie", plain_leg_trie):
            tree, visited = count_sub_products(h, s, t)
        assert shared == tree
        counts[name] = (visited, computed)
    assert counts == {"kinv.kappa": (914, 163), "kbar.lam'": (3605, 573)}


# -- the leg calculus against per-definition oracles -------------------------------

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
    assert got == TensorElement(h.dim, m, naive_icomult(h, i, m))
    assert_canonical(got.coeffs, h.dim, m)


def test_leg_calculus_gives_ints_for_integral_sums(any_h_tw):
    # halves that meet on one key sum to an integral value, which must be an int
    h = any_h_tw

    def halves(*keys):
        return TensorElement(h.dim, 2, {k: Fraction(1, 2) for k in keys})

    for got in (h.fuse_legs(halves((0, 1), (1, 0)), 1), h.counit_legs(halves((0, 1), (1, 1)), [1]),
                h.counit_legs(halves((1, 0), (1, 1)), [2])):
        assert got.coeffs == {(1,): 1} and type(got.coeffs[1,]) is int
        assert_canonical(got.coeffs, h.dim, 1)


# -- the operators on H against per-vector oracles ---------------------------------

@given(st.sampled_from(["group_z2", "drinfeld_h2", "sweedler_h4", TWISTED, SQUARE, "one"]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_operators_match_the_per_vector_oracles(name, data):
    # each composite of the structure maps == its definition, one product
    # chain of sparse vectors at a time; the twist's product does not commute
    # and its antipode is not involutive, so a swapped factor or a missing S fails
    h = LOCAL_ALGEBRAS[name]() if name in LOCAL_ALGEBRAS else get_algebra(name)
    c = draw_element(data, h, 1)
    v = vec_of(c)
    assert h.left_mult_matrix(c) == naive_left_mult(h, v)
    assert h.right_mult_matrix(c) == naive_right_mult(h, v)
    assert h.adjoint_sandwich(c) == naive_adjoint_sandwich(h, v)
    assert h.antipode_sandwich(c) == naive_antipode_sandwich(h, v)
    assert h.adjoint_action_of(c) == naive_adjoint_action(h, v)
    for i, j in product(range(h.dim), repeat=2):
        assert h.sandwich[i][j] == naive_sandwich(h, i, j)
    i, m = data.draw(st.integers(0, h.dim - 1)), data.draw(st.integers(1, 4))
    assert h.icomult(i, m) == TensorElement(h.dim, m, naive_icomult(h, i, m))


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
    w = z2.adjoint_sandwich(z2.beta)
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


# -- the axioms as matrix identities against the basis-tuple oracle -----------------

def outcome(rep):
    return [(item.id, item.status) for item in rep.items]


def test_axioms_match_the_basis_tuple_oracle(any_h_tw):
    assert outcome(any_h_tw.verify_axioms()) == outcome(naive_axioms(any_h_tw))


def mutant(h, datum, idx, delta):
    """h with one structure datum changed by delta at idx (indices mod dim);
    None when the change leaves Phi or S singular."""
    n = h.dim
    i, j, k = (x % n for x in idx)
    mult, comult, ant = h.mult, h.comult, h.antipode
    alpha, beta, phi = h.alpha, h.beta, h.phi
    if datum == "mult":
        mult = [[dict(m) for m in row] for row in h.mult]
        mult[i][j][k] = mult[i][j].get(k, 0) + delta
    elif datum == "comult":
        comult = [dict(d) for d in h.comult]
        comult[i][j, k] = comult[i].get((j, k), 0) + delta
    elif datum == "antipode":
        flat = h.antipode.to_flat()
        flat[i * n + j] += delta
        ant = Matrix.from_flat(n, n, flat)
    elif datum in ("alpha", "beta"):
        vec = dict(getattr(h, datum).coeffs)
        vec[i,] = vec.get((i,), 0) + delta
        alpha, beta = (TensorElement(n, 1, vec), beta) if datum == "alpha" else \
            (alpha, TensorElement(n, 1, vec))
    else:
        coeffs = dict(h.phi.coeffs)
        coeffs[i, j, k] = coeffs.get((i, j, k), 0) + delta
        phi = TensorElement(n, 3, coeffs)
    try:
        return QuasiHopfAlgebra(n, h.basis, mult, h.unit, comult, h.counit, phi, ant,
                                alpha, beta, name=h.name)
    except ValueError:
        return None


ZIGZAGS = {"H1.alpha_law", "H2.beta_law", "H3.zigzag", "H4.zigzag"}


@given(st.sampled_from(["group_z2", "drinfeld_h2", "sweedler_h4", TWISTED]),
       st.sampled_from(["mult", "comult", "antipode", "alpha", "beta", "phi"]),
       st.tuples(*[st.integers(0, 3)] * 3), st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)]))
# two mutants of the unit's row where the unit law fails and a failure moves
# between the H items (the oracle brackets each product from the unit, 1 . x)
@example("group_z2", "mult", (0, 1, 0), 1)
@example("group_z2", "mult", (0, 0, 0), -2)
@settings(max_examples=80, deadline=None)
def test_axiom_mutants_fail_as_the_oracle_and_name_a_witness(name, datum, idx, delta):
    m = mutant(get_algebra(name), datum, idx, delta)
    assume(m is not None)
    new, old = m.verify_axioms(), naive_axioms(m)
    assert [item.id for item in new.items] == [item.id for item in old.items]
    assert new.ok == old.ok
    moved = {a.id for a, b in zip(new.items, old.items) if a.status != b.status}
    assert not moved or (moved <= ZIGZAGS and not old.items[0].ok), moved
    for item in new.items:
        assert bool(item.details) == (not item.ok), item


def test_a_failing_axiom_names_basis_tuple_component_and_entries(sw):
    # e_x e_g := 1 breaks associativity first at g (x) x (x) g
    m = mutant(sw, "mult", (2, 1, 1), 1)
    details = {item.id: item.details for item in m.verify_axioms().failures()}
    assert details["associativity"] == "at g (x) x (x) g, component 1: 0 != 1"
    assert details["counit.morphism"] == "at x (x) g, component 1: 1 != 0"


def test_add_identity_keeps_passing_details_empty(dr):
    rep = Report()
    one = Matrix.identity(2)
    assert dr.add_identity(rep, "same", one, one, Matrix.identity(2))
    assert not dr.add_identity(rep, "chain", one, one, Matrix.from_rows([[1, 0], [1, 1]]))
    g_g = dr.basis_elem(1).tensor(dr.basis_elem(1))
    assert not dr.add_identity(rep, "element", dr.unit_elem(2), dr.unit_elem(2) - g_g)
    assert [(i.id, i.details) for i in rep.items] == [
        ("same", ""), ("chain", "at 1, component g: 0 != 1"),
        ("element", "at component g (x) g: 0 != -1")]


# -- element arithmetic -----------------------------------------------------------

def test_mul_associative_and_unital_random(any_h):
    rng = random.Random(3)
    h = any_h
    for legs in (1, 2):
        one = h.unit_elem(legs)
        size = h.dim ** legs

        def rnd():
            return elem(h, legs, [Fraction(rng.randint(-2, 2)) for _ in range(size)])

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
    assert elem(dr, 3, flat) == dr.phi


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


@pytest.mark.parametrize("basis, name", [(["a", "a"], "'a' is repeated"),
                                         (["", "g"], "'' is empty"),
                                         (["1", ""], "'' is empty")])
def test_basis_names_must_be_distinct_and_nonempty(z2, basis, name):
    # witnesses name basis tuples by these names ("at g (x) x"), so a
    # repeated or empty one would make a witness ambiguous
    with pytest.raises(ValueError, match=f"basis name {name}"):
        QuasiHopfAlgebra(z2.dim, basis, z2.mult, z2.unit, z2.comult, z2.counit, z2.phi,
                         z2.antipode, z2.alpha, z2.beta)


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
