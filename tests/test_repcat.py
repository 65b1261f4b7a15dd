import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from quasihopf import repcat
from quasihopf.algebra_a import build_A, heart_base
from quasihopf.linalg import LegShape, LinearSystem, Matrix, inverse, spans_equal
from quasihopf.qha import TensorElement
from quasihopf.report import VerificationFailure
from quasihopf.repcat import (HLinearMap, adjunction_report, associator,
                              associator_inv, eeps, eeta, elem_action_matrix,
                              HModule, end_over_regular, hom_space, icomp,
                              identity_map, intertwiners,
                              in_map, inner_hom, inner_post, left_dual,
                              regular_module, right_dual, snake_report, tensor,
                              unit_module)

from conftest import get_algebra
from helpers import (SCALARS, elem, factors, from_dense, naive_elem_action, unit_left_elim,
                     unit_right_elim)


def test_regular_module_swaps_for_z2(z2):
    c = regular_module(z2)
    assert c.validate().ok
    # g acts by left multiplication: it swaps the two basis vectors
    assert c.action[1] == Matrix.from_rows([[0, 1], [1, 0]])


def test_regular_module_respects_relations(sw):
    c = regular_module(sw)
    assert c.validate().ok
    # gx = g.x and xg = -gx as operators
    assert c.action[1] * c.action[2] == c.action[3]
    assert c.action[2] * c.action[1] == -1 * c.action[3]


def test_unit_and_tensor_validate(any_h):
    c = regular_module(any_h)
    i = unit_module(any_h)
    assert i.validate().ok
    assert tensor(c, c).validate().ok
    assert tensor(i, c).validate().ok


def test_associator_trivial_for_hopf(z2, sw):
    for h in (z2, sw):
        c = regular_module(h)
        assert associator(c, c, c).matrix.is_identity()


def test_associator_invertible_h_linear(dr):
    c = regular_module(dr)
    a = associator(c, c, c)
    ai = associator_inv(c, c, c)
    assert not a.matrix.is_identity()
    assert a.is_h_linear() and ai.is_h_linear()
    assert a.then(ai).matrix.is_identity()
    assert ai.then(a).matrix.is_identity()


def _pentagon_holds(m, n, p, q):
    path1 = associator(tensor(m, n), p, q).then(associator(m, n, tensor(p, q)))
    path2 = associator(m, n, p).tensor(identity_map(q)) \
        .then(associator(m, tensor(n, p), q)) \
        .then(identity_map(m).tensor(associator(n, p, q)))
    return path1.matrix == path2.matrix


def test_pentagon_coherence(any_h):
    c = regular_module(any_h)
    i = unit_module(any_h)
    for m in (i, c):
        for n in (i, c):
            for p in (i, c):
                for q in (i, c):
                    assert _pentagon_holds(m, n, p, q)


def test_pentagon_with_larger_objects(dr):
    c = regular_module(dr)
    cc = tensor(c, c)
    assert _pentagon_holds(c, cc, c, cc)
    assert _pentagon_holds(cc, cc, cc, cc)


def test_triangle_coherence_all_pairs(any_h):
    h = any_h
    i = unit_module(h)
    c = regular_module(h)
    for m in (i, c, tensor(c, c)):
        for n in (i, c):
            lhs = unit_right_elim(m).tensor(identity_map(n))
            rhs = associator(m, i, n).then(identity_map(m).tensor(unit_left_elim(n)))
            assert lhs.matrix == rhs.matrix


def test_unit_elimination_is_h_linear(any_h):
    c = regular_module(any_h)
    assert unit_left_elim(c).is_h_linear()
    assert unit_right_elim(c).is_h_linear()


def test_triangle_with_unit_object(dr):
    # (M x I) x N -> M x (I x N) via the associator, compared with plain units
    c = regular_module(dr)
    i = unit_module(dr)
    tri = associator(c, i, c)
    lhs = unit_right_elim(c).tensor(identity_map(c))
    rhs = tri.then(identity_map(c).tensor(unit_left_elim(c)))
    assert lhs.matrix == rhs.matrix


# -- hom spaces -----------------------------------------------------------------

def test_hom_space_dimensions(z2, sw):
    for h, exp_cc in ((z2, 2), (sw, 4)):
        c = regular_module(h)
        i = unit_module(h)
        homs = hom_space(c, c)
        assert len(homs) == exp_cc
        assert all(f.is_h_linear() for f in homs)
        assert len(hom_space(i, i)) == 1
        assert len(hom_space(i, c)) == 1


def test_hom_cc_is_right_multiplications(any_h):
    # evaluation at 1 identifies hom(C,C) with H itself (right multiplications)
    h = any_h
    c = regular_module(h)
    homs = [f.matrix.col(0) for f in hom_space(c, c)]
    assert spans_equal(homs, [{i: 1} for i in range(h.dim)])


def naive_intertwiners(dm, dn, pairs):
    """The equation-based solver: F . P = Q . F over all dn * dm entries of F,
    flattened row-major (F[i, j] at i * dm + j); the oracle for the spinning
    solver."""
    sys = LinearSystem(dn * dm)
    for p, q in pairs:
        p_cols, q_rows = p.columns(), q.row_view()
        for i in range(dn):
            for j in range(dm):
                coeffs = {i * dm + k: x for k, x in p_cols[j].items()}
                for k, x in q_rows[i].items():
                    key = k * dm + j
                    acc = coeffs.get(key, 0) - x
                    if acc:
                        coeffs[key] = acc
                    else:
                        coeffs.pop(key, None)
                if coeffs:
                    sys.add_equation(coeffs)
    return sys.kernel_basis()


_ENTRY = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 4]))


@st.composite
def _matrices(draw, rows, cols):
    return Matrix.from_rows([[draw(_ENTRY) for _ in range(cols)] for _ in range(rows)])


def _unit_triangular(m, upper):
    """The identity plus the strictly upper (or lower) part of m: invertible."""
    return Matrix(m.rows, m.cols, [{i: x for i, x in col.items() if i != j and (i < j) == upper}
                                   | {j: 1} for j, col in enumerate(m.columns())])


@st.composite
def _intertwiner_cases(draw):
    """(dm, dn, pairs): pairs that admit homs by construction (Q = A P A^-1 and
    Q = P (+) R), fully random pairs, all-zero P (m not cyclic), identity
    pairs mixed in, and the empty list."""
    kind = draw(st.sampled_from(["conjugate", "sum", "random", "zero"]))
    dm = draw(st.integers(1, 6))
    if kind == "conjugate":
        dn = dm
        a = _unit_triangular(draw(_matrices(dm, dm)), upper=False) \
            * _unit_triangular(draw(_matrices(dm, dm)), upper=True)
        a_inv = inverse(a)
    else:
        dn = draw(st.integers(dm if kind == "sum" else 1, 6))
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        p = Matrix.zero(dm, dm) if kind == "zero" else draw(_matrices(dm, dm))
        if kind == "conjugate":
            q = a * p * a_inv
        elif kind == "sum":
            r = draw(_matrices(dn - dm, dn - dm))
            q = Matrix(dn, dn, [dict(c) for c in p.columns()]
                       + [{dm + i: x for i, x in c.items()} for c in r.columns()])
        else:
            q = draw(_matrices(dn, dn))
        pairs.append((p, q))
    for _ in range(draw(st.integers(0, 2))):
        pairs.insert(draw(st.integers(0, len(pairs))),
                     (Matrix.identity(dm), Matrix.identity(dn)))
    return dm, dn, pairs


@settings(max_examples=150, deadline=None)
@given(_intertwiner_cases())
def test_intertwiners_match_the_equation_solver(case):
    dm, dn, pairs = case
    z2 = get_algebra("group_z2")
    m = HModule(z2, dm, [Matrix.identity(dm)] * z2.dim)
    n = HModule(z2, dn, [Matrix.identity(dn)] * z2.dim)
    got = intertwiners(m, n, pairs)
    assert all(f.matrix * p == q * f.matrix for f in got for p, q in pairs)
    flat = [{k: x for k, x in enumerate(f.matrix.to_flat()) if x} for f in got]
    oracle = naive_intertwiners(dm, dn, pairs)
    assert len(flat) == len(oracle)
    assert spans_equal(flat, oracle)


# -- inner hom and adjunction ------------------------------------------------------

def map_to_flat(mat: Matrix) -> dict:
    """A linear map as a vector of the inner hom: entry (i, j) at i * cols + j."""
    return {i * mat.cols + j: x for j, col in enumerate(mat.columns()) for i, x in col.items()}


def test_inner_hom_action(z2):
    c = regular_module(z2)
    ih = inner_hom(c, c)
    assert ih.validate().ok
    assert ih.dim == 4


def _module_pool(h):
    c, i = regular_module(h), unit_module(h)
    a = build_A(h).base
    cc = tensor(c, c)
    return [c, i, a, tensor(i, c), tensor(c, i), cc, tensor(cc, c), tensor(c, tensor(c, c)),
            tensor(a, c), tensor(c, a), inner_hom(c, c), inner_hom(i, c), heart_base(h, c),
            HModule(h, c.dim, c.action, "X")]


def test_module_equality_agrees_with_action_equality(any_h_tw):
    # == may decide from how the modules were built, but never differently
    # from comparing their actions
    pool, other = _module_pool(any_h_tw), _module_pool(any_h_tw)
    for a in pool + other:
        for b in pool + other:
            assert (a == b) == (a.h is b.h and a.dim == b.dim and a.action == b.action), (a, b)


def test_equal_constructions_compare_without_building_actions(any_h_tw):
    c = regular_module(any_h_tw)
    left, right = tensor(c, c), tensor(c, c)
    x, y = tensor(left, c), tensor(right, c)
    assert x == y
    assert all(m._action is None for m in (x, y, left, right))


def test_eeta_trivial_for_z2(z2):
    # with everything trivial the unit is m |-> (m x -)
    c = regular_module(z2)
    unit_map = eeta(c, c)
    for u in range(c.dim):
        # the 4x2 matrix of p |-> e_u (x) p, rows indexed i * 2 + j
        expected = map_to_flat(Matrix.from_rows(
            [[1 if (i == u and j == k) else 0 for k in range(2)]
             for i in range(2) for j in range(2)]))
        assert unit_map.matrix.col(u) == expected
        # build directly: f(p) = e_u (x) p
        want = {}
        for p in range(2):
            want[(u * 2 + p) * 2 + p] = Fraction(1)
        assert unit_map.matrix.col(u) == want


def test_adjunction_triangles_small(any_h_tw):
    c = regular_module(any_h_tw)
    i = unit_module(any_h_tw)
    for m in (i, c):
        for p in (i, c):
            rep = adjunction_report(m, p)
            assert rep.ok, rep.render_text()


def test_icomp_matches_algebra_product(any_h):
    # inner composition of left multiplications is the canonical product
    h = any_h
    a = build_A(h)
    c = regular_module(h)
    ic = icomp(c, c, c)
    for x in range(h.dim):
        for y in range(h.dim):
            lx = map_to_flat(h.left_mult_matrix(h.basis_elem(x)))
            ly = map_to_flat(h.left_mult_matrix(h.basis_elem(y)))
            arg = {}
            for kx, vx in lx.items():
                for ky, vy in ly.items():
                    arg[kx * (h.dim * h.dim) + ky] = vx * vy
            got = ic.matrix.apply(arg)
            prod = a.product.apply({x * h.dim + y: 1})
            want = {}
            for k, v in prod.items():
                for kk, vv in map_to_flat(h.left_mult_matrix(h.basis_elem(k))).items():
                    want[kk] = want.get(kk, 0) + v * vv
            assert got == {k: v for k, v in want.items() if v}


def test_icomp_unit_element(any_h):
    h = any_h
    a = build_A(h)
    c = regular_module(h)
    ic = icomp(c, c, c)
    lu = map_to_flat(h.left_mult_matrix(elem(h, 1, a.unit_vec)))
    arg = {}
    for kx, vx in lu.items():
        for ky, vy in lu.items():
            arg[kx * (h.dim * h.dim) + ky] = vx * vy
    assert ic.matrix.apply(arg) == lu


def test_icomp_associative_with_associator(dr):
    # composing three inner homs along either bracketing agrees through the
    # associator of the triple of inner-hom objects
    c = regular_module(dr)
    ih = inner_hom(c, c)
    comp = icomp(c, c, c)
    path1 = comp.tensor(identity_map(ih)).then(icomp(c, c, c))
    path2 = associator(ih, ih, ih) \
        .then(identity_map(ih).tensor(icomp(c, c, c))) \
        .then(icomp(c, c, c))
    assert path1.matrix == path2.matrix


def test_in_map_square_and_invertibility(any_h):
    h = any_h
    c = regular_module(h)
    rho = in_map(c, c, c)
    assert rho.is_h_linear()
    lhs = HLinearMap(tensor(tensor(c, rho.source.h and inner_hom(c, c)), c),
                     tensor(c, tensor(inner_hom(c, c), c)),
                     elem_action_matrix(h.phi, [c, inner_hom(c, c), c])) \
        .then(identity_map(c).tensor(eeps(c, c)))
    rhs = rho.tensor(identity_map(c)).then(eeps(tensor(c, c), c))
    assert lhs.matrix == rhs.matrix
    assert (inverse(rho.matrix) * rho.matrix).is_identity()


# -- duals ---------------------------------------------------------------------

def test_snakes(any_h_tw):
    c = regular_module(any_h_tw)
    i = unit_module(any_h_tw)
    assert snake_report(i).ok
    assert snake_report(c).ok, snake_report(c).render_text()


def test_double_dual_of_unit(any_h):
    i = unit_module(any_h)
    d1, _, _ = left_dual(i)
    d2, _, _ = left_dual(d1)
    assert d2 == i


def test_dual_evaluations_h_linear(dr):
    c = regular_module(dr)
    for dual_fn in (left_dual, right_dual):
        dual, ev, coev = dual_fn(c)
        assert dual.validate().ok
        assert ev.is_h_linear()
        assert coev.is_h_linear()


# -- ends ------------------------------------------------------------------------

def test_end_unit_unit(z2, sw):
    for h, names in ((z2, ["1", "g"]), (sw, None)):
        i = unit_module(h)
        comp = end_over_regular(h, i, i)
        assert comp.report.ok, comp.report.render_text()
        assert len(comp.kernel_basis) == h.dim
        # the closed form is exactly the left multiplications
        for a in range(h.dim):
            lmat = h.left_mult_matrix(h.basis_elem(a))
            vec = {}
            for j, col in enumerate(lmat.columns()):
                for i2, x in col.items():
                    vec[i2 * h.dim + j] = x
            assert any(v == vec for v in comp.closed_form)


def test_end_with_passive_legs(any_h):
    h = any_h
    c = regular_module(h)
    i = unit_module(h)
    left = end_over_regular(h, c, i)
    right = end_over_regular(h, i, c)
    assert left.report.ok and right.report.ok
    assert len(left.kernel_basis) == c.dim * h.dim
    assert len(right.kernel_basis) == h.dim * c.dim


def test_inner_post_functorial(z2):
    c = regular_module(z2)
    i = unit_module(z2)
    for f in hom_space(c, c):
        assert inner_post(f, c).is_h_linear()


def naive_action(t, slots):
    """sum c * (F_1[I_1] kron F_2[I_2] kron ...) as dense Fraction rows; each
    slot is (legs, family), the family a function of a tuple of leg indices."""
    first = [fam((0,) * k) for k, fam in slots]
    rshape = LegShape(tuple(m.rows for m in first))
    cshape = LegShape(tuple(m.cols for m in first))
    ridx = [rshape.unindex(r) for r in range(rshape.size)]
    cidx = [cshape.unindex(s) for s in range(cshape.size)]
    out = [[Fraction(0)] * len(cidx) for _ in ridx]
    for legs, c in t.coeffs.items():
        mats, pos = [], 0
        for k, fam in slots:
            mats.append(fam(legs[pos:pos + k]))
            pos += k
        for r, rs in enumerate(ridx):
            for s, ss in enumerate(cidx):
                x = Fraction(c)
                for m, a, b in zip(mats, rs, ss):
                    x *= m.entry(a, b)
                out[r][s] += x
    return [x for row in out for x in row]


def _dyadic_matrix(rng, rows, cols):
    return Matrix.from_rows([[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4]))
                              for _ in range(cols)] for _ in range(rows)])


# slots: C, CC, I modules; S the sandwich family of the algebra (two fused
# legs); R a family of 2x3 and V of 3x1 matrices (rectangular); F a fused
# two-leg family of 1x2 matrices
@pytest.mark.parametrize("name,mods,elem", [
    ("drinfeld_h2", "C,C,C", "phi"),
    ("drinfeld_h2", "C,CC,I", "phi_inv"),
    ("sweedler_h4", "C,C", "random"),
    ("sweedler_h4", "CC,C", "random"),
    ("drinfeld_h2", "S,C", "phi"),
    ("sweedler_h4", "C,S,C", "random"),
    ("sweedler_h4", "R,C", "random"),
    ("drinfeld_h2", "C,V,R", "phi"),
    ("drinfeld_h2", "F,R", "phi_inv"),
    # head, last-family and coefficient denominators all differ: dyadic
    # heads, the integral actions of drinfeld_h2, coefficients in thirds
    ("drinfeld_h2", "R,C", "thirds"),
    # terms sharing a head prefix are summed in the last slot first: a head
    # whose last-slot terms cancel exactly (I[0] == I[1] on sweedler_h4), a
    # group of dyadic last-slot operators over different denominators, the
    # zero element and a 0-leg element
    ("sweedler_h4", "C,I", "cancel"),
    ("sweedler_h4", "C,R", "grouped"),
    ("sweedler_h4", "C,R", "zero"),
    ("sweedler_h4", "", "scalar"),
])
def test_elem_action_matrix_matches_naive_sum(name, mods, elem):
    h = get_algebra(name)
    c = regular_module(h)
    mrng = random.Random(11)
    rect = [_dyadic_matrix(mrng, 2, 3) for _ in range(h.dim)]
    vec = [_dyadic_matrix(mrng, 3, 1) for _ in range(h.dim)]
    fused = [[_dyadic_matrix(mrng, 1, 2) for _ in range(h.dim)] for _ in range(h.dim)]
    named = {"C": c, "CC": tensor(c, c), "I": unit_module(h),
             "S": h.sandwich, "R": rect, "V": vec, "F": fused}
    keys = mods.split(",") if mods else []
    slots = [named[k] for k in keys]

    def naive_slot(key, f):
        if key in ("S", "F"):
            return 2, lambda i: f[i[0]][i[1]]
        return 1, (lambda i: f[i[0]]) if isinstance(f, list) else (lambda i: f.action[i[0]])

    spec = [naive_slot(k, f) for k, f in zip(keys, slots)]
    legs = sum(k for k, _ in spec)
    if elem == "random":
        rng = random.Random(7)
        t = TensorElement(h.dim, legs, {
            tuple(rng.randrange(h.dim) for _ in range(legs)): Fraction(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            for _ in range(6)})
    elif elem == "thirds":
        rng = random.Random(5)
        t = TensorElement(h.dim, legs, {
            tuple(rng.randrange(h.dim) for _ in range(legs)): Fraction(rng.choice([-2, -1, 1, 2]), 3)
            for _ in range(6)})
    elif elem == "cancel":
        assert unit_module(h).action[0] == unit_module(h).action[1]
        t = TensorElement(h.dim, legs, {(0, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2),
                                        (1, 0): Fraction(1, 3), (1, 2): 5, (2, 1): Fraction(-3, 4)})
    elif elem == "grouped":
        # R[2] is over 2, R[0] and R[3] over 4: the first term is not over the lcm
        assert [lcm(*(Fraction(x).denominator for x in rect[j].to_flat()))
                for j in (2, 0, 3)] == [2, 4, 4]
        t = TensorElement(h.dim, legs, {(1, 2): Fraction(-1, 2), (1, 0): Fraction(2, 3),
                                        (1, 3): 3, (3, 2): Fraction(5, 4)})
    elif elem == "zero":
        t = TensorElement(h.dim, legs, {})
    elif elem == "scalar":
        t = TensorElement(h.dim, 0, {(): Fraction(-2, 3)})
    else:
        t = getattr(h, elem)
    assert elem == "zero" or any(type(x) is Fraction for x in t.coeffs.values())  # non-integral data
    got = elem_action_matrix(t, slots)
    assert got.to_flat() == naive_action(t, spec)
    assert all(type(x) is int or x.denominator != 1
               for col in got.columns() for x in col.values())


@st.composite
def families(draw, dim: int):
    """One slot of elem_action_matrix: dim operators of one shape, each an
    identity, a 1x1, a monomial or a dense matrix (integer or rational)."""
    rows, cols = draw(st.sampled_from([(1, 1), (2, 2), (3, 3), (2, 3), (3, 1)]))
    return [from_dense(draw(factors(rows, cols)), cols) for _ in range(dim)]


@given(st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_elem_action_matrix_matches_the_term_by_term_sum(legs, data):
    """One block (one term, or terms sharing a head) and many blocks alike,
    with unit and other coefficients, give the naive sum over the terms."""
    dim = 3
    slots = [data.draw(families(dim)) for _ in range(legs)]
    idx = st.tuples(*(st.integers(0, dim - 1) for _ in range(legs)))
    coeffs = data.draw(st.dictionaries(idx, st.one_of(st.just(1), SCALARS.filter(bool)),
                                       max_size=3))
    t = TensorElement(dim, legs, coeffs)
    assert elem_action_matrix(t, slots) == naive_elem_action(t, slots)


def test_unit_associator_runs_no_kronecker_loop(sw, monkeypatch):
    """Phi = 1 (x) 1 (x) 1 on sweedler_h4 is one block of identities: its
    action on (C*C)*(C*C)*C is one identity, built without _kron_into."""
    c = regular_module(sw)
    cc = tensor(c, c)
    assert len(sw.phi.coeffs) == 1 and cc.action  # operands built before the spy
    calls = []
    real = repcat._kron_into
    monkeypatch.setattr(repcat, "_kron_into", lambda *a: calls.append(a) or real(*a))
    got = elem_action_matrix(sw.phi, [cc, cc, c])
    assert calls == []
    assert got.is_identity() and got == naive_elem_action(sw.phi, [cc, cc, c])


def test_non_unital_operand_gets_its_true_action(sw):
    """A module whose unit acts as 2 I: no rule may decide from the element
    being 1, so every action by Phi or by the coproduct is the naive sum."""
    c = regular_module(sw)
    unit = next(iter(sw.unit))
    assert sw.unit == {unit: 1}
    bad = HModule(sw, sw.dim, [2 * m if i == unit else m for i, m in enumerate(c.action)],
                  label="bad")
    assert "unit_acts_as_identity" in [i.id for i in bad.validate().failures()]
    naive_phi = naive_elem_action(sw.phi, [bad, c, c])
    assert naive_phi == 2 * Matrix.identity(sw.dim ** 3)
    assert elem_action_matrix(sw.phi, [bad, c, c]) == naive_phi
    assert associator(bad, c, c).matrix == naive_phi
    assert tensor(bad, c).action == [
        naive_elem_action(TensorElement(sw.dim, 2, sw.comult[i]), [bad, c]) for i in range(sw.dim)]


def test_a_corrupted_hom_basis_fails_the_certificate(monkeypatch):
    # hom(I, C) of sweedler_h4 is spanned by an integral; adding e_0 to the
    # value at the generator leaves a map that is no module map, and the
    # certificate on the side-by-side basis must catch it
    h = get_algebra("sweedler_h4")
    kernel_basis = LinearSystem.kernel_basis

    def corrupted(sys):
        basis = kernel_basis(sys)
        first = dict(basis[0])
        first[0] = first.get(0, 0) + 1
        return [first, *basis[1:]]

    assert len(intertwiners(unit_module(h), regular_module(h),
                            zip(unit_module(h).action, regular_module(h).action))) == 1
    monkeypatch.setattr(LinearSystem, "kernel_basis", corrupted)
    with pytest.raises(VerificationFailure, match="fails its exact certificate"):
        intertwiners(unit_module(h), regular_module(h),
                     zip(unit_module(h).action, regular_module(h).action))


def test_the_hom_solver_adds_each_distinct_equation_once(sw, monkeypatch):
    # sweedler_h4's right-module hom spaces between heart(I), heart(C) and
    # heart(C(x)C): each relation gives dim(n) rows, mostly empty or repeats;
    # the endomorphisms of heart(C(x)C) took 6400 equations for rank 192,
    # the nine spaces 11336 (a repeat reduces to zero, so no basis changes)
    from quasihopf.mod_a import amodule_hom_space, heart_amodule
    a = build_A(sw)
    c = regular_module(sw)
    hearts = [heart_amodule(a, x) for x in (unit_module(sw), c, tensor(c, c))]
    added = []
    real = LinearSystem.add_equation
    monkeypatch.setattr(LinearSystem, "add_equation",
                        lambda self, *args: added.append(args) or real(self, *args))
    amodule_hom_space(hearts[2], hearts[2])
    assert len(added) == 816
    added.clear()
    for m in hearts:
        for n_mod in hearts:
            amodule_hom_space(m, n_mod)
    assert len(added) == 1636
