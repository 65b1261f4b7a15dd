from fractions import Fraction

import pytest

from quasihopf import center
from quasihopf.algebra_a import build_A, heart
from quasihopf.linalg import LinearSystem, Matrix, rank
from quasihopf.qha import TensorElement
from quasihopf.repcat import HModule, hom_space, regular_module, tensor, unit_module
from quasihopf.center import (CenterObject, _h_leg_blocks, braiding, center_hom_space,
                              tensor_center, tensor_coaction_blocks, validate_center)
from quasihopf.report import VerificationFailure

from conftest import DENSE_TWIST, SQUARE, TWISTED, get_algebra
from helpers import mul_vec, trivial_center


def hopf_coaction_center(h, label="A"):
    """H with the adjoint action and the comultiplication as coaction."""
    n = h.dim
    adj = HModule(h, n, [h.adjoint_action_of(h.basis_elem(i)) for i in range(n)], label=label)
    cols = []
    for j in range(n):
        col = {}
        for (k, l), c in h.comult[j].items():
            col[k * n + l] = c
        cols.append(col)
    return CenterObject(adj, Matrix(n * n, n, cols), label=label)


def test_trivial_coaction_on_unit(any_h):
    triv = trivial_center(unit_module(any_h))
    assert validate_center(triv).ok


def test_trivial_coaction_braids_by_flip(z2):
    triv = trivial_center(unit_module(z2))
    c = regular_module(z2)
    b = braiding(triv, c)
    assert b.matrix.is_identity()  # 1 x c and c x 1 share the flat space


def test_trivial_coaction_on_regular_flips(z2):
    # over the cocommutative group algebra the trivial coaction on C is
    # central and braids by the flip permutation
    c = regular_module(z2)
    triv = trivial_center(c)
    assert validate_center(triv).ok
    b = braiding(triv, c)
    d = c.dim
    for m in range(d):
        for x in range(d):
            assert b.matrix.col(m * d + x) == {x * d + m: 1}


def test_hopf_adjoint_with_comultiplication(z2, sw):
    for h in (z2, sw):
        a = hopf_coaction_center(h)
        rep = validate_center(a)
        assert rep.ok, rep.render_text()


def test_hopf_braiding_formula(sw):
    # beta(a (x) x) = (a_(1) |> x) (x) a_(2) on the regular module
    h = sw
    a = hopf_coaction_center(h)
    c = regular_module(h)
    b = braiding(a, c)
    n = h.dim
    for av in range(n):
        for x in range(n):
            want = {}
            for (a1, a2), cf in h.comult[av].items():
                acted = c.action[a1].col(x)
                for xi, xv in acted.items():
                    key = xi * n + a2
                    want[key] = want.get(key, 0) + cf * xv
            want = {k: v for k, v in want.items() if v}
            assert b.matrix.col(av * n + x) == want


def test_flipped_coaction_fails_for_sweedler(sw):
    h = sw
    n = h.dim
    adj = HModule(h, n, [h.adjoint_action_of(h.basis_elem(i)) for i in range(n)], label="A")
    cols = [{(l * n + k): c for (k, l), c in h.comult[j].items()} for j in range(n)]
    bad = CenterObject(adj, Matrix(n * n, n, cols), label="Aflip")
    rep = validate_center(bad)
    fails = {item.id for item in rep.failures()}
    assert "hexagon_on_CC" in fails
    with pytest.raises(VerificationFailure):
        bad.require_valid()


def test_constant_grading_fails_counit_normalization(z2):
    # coaction a -> g (x) a violates (eps x id) delta = id? no: eps(g)=1 keeps it;
    # corrupt with a genuinely non-normalized coaction instead
    n = z2.dim
    adj = HModule(z2, n, [z2.adjoint_action_of(z2.basis_elem(i)) for i in range(n)])
    cols = [{1 * n + j: Fraction(2)} for j in range(n)]
    bad = CenterObject(adj, Matrix(n * n, n, cols))
    rep = validate_center(bad)
    assert not rep.ok
    assert "counit_normalization" in {item.id for item in rep.failures()}


def test_tensor_center_trivial(z2):
    t1 = trivial_center(unit_module(z2))
    tt = tensor_center(t1, t1).require_valid()
    assert tt.coaction.col(0) == {0: 1}


def test_tensor_center_hopf_formula(z2, sw):
    # delta(a (x) b) = a_(1) b_(1) (x) (a_(2) (x) b_(2))
    for h in (z2, sw):
        a = hopf_coaction_center(h)
        aa = tensor_center(a, a)
        n = h.dim
        for x in range(n):
            for y in range(n):
                want = {}
                for (x1, x2), cx in h.comult[x].items():
                    for (y1, y2), cy in h.comult[y].items():
                        prod = mul_vec(h, {x1: 1}, {y1: 1})
                        for k, cv in prod.items():
                            key = k * n * n + (x2 * n + y2)
                            want[key] = want.get(key, 0) + cx * cy * cv
                want = {k: v for k, v in want.items() if v}
                assert aa.coaction.col(x * n + y) == want


def test_tensor_center_hopf_square_is_valid(z2, sw):
    # tensor_center does not validate its result: check the square's centre axioms
    for h in (z2, sw):
        a = hopf_coaction_center(h)
        tensor_center(a, a).require_valid()


def test_tensor_center_drinfeld(dr):
    from quasihopf.algebra_a import build_A
    a = build_A(dr)
    tensor_center(a.center, a.center).require_valid()


def test_center_hom_contains_identity(any_h):
    from quasihopf.algebra_a import build_A
    a = build_A(any_h)
    homs = center_hom_space(a.center, a.center)
    idvec = Matrix.identity(a.center.dim)
    assert any(f.matrix == idvec for f in homs) or \
        spans_includes_identity(homs, a.center.dim)


def spans_includes_identity(homs, d):
    target = {i * d + i: Fraction(1) for i in range(d)}
    vecs = []
    for f in homs:
        v = {}
        for j, col in enumerate(f.matrix.columns()):
            for i, x in col.items():
                v[i * d + j] = x
        vecs.append(v)
    from quasihopf.linalg import Echelon
    ech = Echelon()
    ech.extend(vecs)
    return not ech.reduce(target)


def test_center_hom_dimension_cross_check(z2):
    # independent route: one big constraint matrix, dimension by rank-nullity
    from quasihopf.algebra_a import build_A
    a = build_A(z2)
    m = a.center
    homs = center_hom_space(m, m)
    d, n = m.dim, z2.dim
    rows = []
    for t in range(n):
        q = m.base.action[t]
        p = m.base.action[t]
        for i in range(d):
            for j in range(d):
                coeffs = {}
                for k, x in p.columns()[j].items():
                    coeffs[i * d + k] = coeffs.get(i * d + k, 0) + x
                for k, x in q.row_view()[i].items():
                    coeffs[k * d + j] = coeffs.get(k * d + j, 0) - x
                rows.append({k: v for k, v in coeffs.items() if v})
    dcols = m.coaction.columns()
    drows = m.coaction.row_view()
    for hh in range(n):
        for i in range(d):
            for j in range(d):
                coeffs = {}
                for flat, x in dcols[j].items():
                    i2, v2 = divmod(flat, d)
                    if i2 == hh:
                        coeffs[i * d + v2] = coeffs.get(i * d + v2, 0) + x
                for k, x in drows[hh * d + i].items():
                    coeffs[k * d + j] = coeffs.get(k * d + j, 0) - x
                rows.append({k: v for k, v in coeffs.items() if v})
    mat_rows = [[row.get(k, Fraction(0)) for k in range(d * d)] for row in rows]
    big = Matrix.from_rows(mat_rows)
    assert len(homs) == d * d - rank(big)


def test_center_hom_trivial_vs_A(z2):
    # maps from the trivial centre object on the unit into A land in the
    # intersection of adjoint invariants and coaction coinvariants
    from quasihopf.algebra_a import build_A
    a = build_A(z2)
    triv = trivial_center(unit_module(z2))
    homs = center_hom_space(triv, a.center)
    n = z2.dim
    stacked = LinearSystem(n)
    for t in range(n):
        mat = a.base.action[t]
        eps = z2.counit[t]
        for i in range(n):
            row = dict(mat.row_view()[i])
            row[i] = row.get(i, 0) - eps
            stacked.add_equation({k: v for k, v in row.items() if v})
    for flat in range(n * n):
        hh, i = divmod(flat, n)
        row = dict(a.center.coaction.row_view()[flat])
        u = z2.unit.get(hh, 0)
        if u:
            row[i] = row.get(i, 0) - u
        stacked.add_equation({k: v for k, v in row.items() if v})
    assert len(homs) == len(stacked.kernel_basis())
    assert len(homs) == 1


def test_hexagon_spot_check_C_CC(dr):
    # the hexagon of the validated objects also holds against (C, C (x) C)
    from quasihopf.algebra_a import build_A, heart
    from quasihopf.repcat import associator, associator_inv, identity_map
    a = build_A(dr)
    c = regular_module(dr)
    cc = tensor(c, c)
    for obj in (a.center, heart(dr, c).center):
        comp = associator_inv(obj.base, c, cc) \
            .then(braiding(obj, c).tensor(identity_map(cc))) \
            .then(associator(c, obj.base, cc)) \
            .then(identity_map(c).tensor(braiding(obj, cc))) \
            .then(associator_inv(c, cc, obj.base))
        assert comp.matrix == braiding(obj, tensor(c, cc)).matrix


def test_braiding_natural_against_hom_maps(dr):
    from quasihopf.algebra_a import build_A
    a = build_A(dr)
    c = regular_module(dr)
    b = braiding(a.center, c)
    for f in hom_space(c, c):
        lhs = b.then(f.tensor(identity(a)))
        rhs = identity_t(a, f).then(b)
        assert lhs.matrix == rhs.matrix


def identity(a):
    from quasihopf.repcat import identity_map
    return identity_map(a.center.base)


def identity_t(a, f):
    from quasihopf.repcat import identity_map
    return identity_map(a.center.base).tensor(f)


# -- the inverse braiding ----------------------------------------------------------

def test_braiding_inv_is_the_inverse_braiding(any_h_tw):
    from quasihopf.algebra_a import build_A, heart
    from quasihopf.center import braiding_inv
    from quasihopf.linalg import inverse
    from quasihopf.mod_a import free_amodule
    h = any_h_tw
    a = build_A(h)
    c = regular_module(h)
    for m in (a.center, free_amodule(a, a.center).center, heart(h, c).center):
        for x in (unit_module(h), c, tensor(c, c), a.base):
            inv = braiding_inv(m, x)
            assert inv.matrix == inverse(braiding(m, x).matrix), (m, x)
            assert (inv.source, inv.target) == (tensor(x, m.base), tensor(m.base, x))


def test_braiding_inv_solves_once_per_centre_object(dr, monkeypatch):
    import quasihopf.center as center
    from quasihopf.algebra_a import build_A
    from quasihopf.mod_a import free_amodule
    solves = []
    left_divide = center.left_divide

    def spy(a, b):
        solves.append((a.rows, b.cols))
        return left_divide(a, b)

    monkeypatch.setattr(center, "left_divide", spy)
    a = build_A(dr)
    c = regular_module(dr)
    for m in (free_amodule(a, a.center).center, free_amodule(a, a.center).center):
        for x in (unit_module(dr), c, tensor(c, c), a.base, c):
            center.braiding_inv(m, x)
    d = a.base.dim ** 2  # free(A) = A (x) A
    assert solves == [(dr.dim * d, d)] * 2  # one d-column solve per object


def test_trivial_center_coaction_is_one_tensor_v(any_h):
    # the unit column (x) identity: column j holds unit[i] at i * d + j
    x = tensor(regular_module(any_h), unit_module(any_h))
    d = x.dim
    hand = Matrix(any_h.dim * d, d, [{i * d + j: c for i, c in any_h.unit.items()}
                                     for j in range(d)])
    assert trivial_center(x).coaction == hand


@pytest.mark.parametrize("strided", [False, True])
def test_h_leg_blocks_are_the_selected_rows(strided):
    # one pass over the columns gives the rows that a transpose, a column
    # selection and a transpose back give, on a matrix with a denominator
    n, d, cols = 3, 4, 5
    mat = Matrix(n * d, cols, [{r: Fraction(r * cols + j - 20, 6) for r in range(n * d)
                                if (r + j) % 3} for j in range(cols)])
    rows = [range(i, n * d, n) if strided else range(i * d, (i + 1) * d) for i in range(n)]
    assert _h_leg_blocks(mat, n, strided) == [
        mat.transpose().select(r).transpose() for r in rows]


def _centres(h, names):
    """heart(X).center for X in names among I, C and C(x)C, then A's centre."""
    c = regular_module(h)
    objects = {"I": unit_module(h), "C": c, "CC": tensor(c, c)}
    out = {x: heart(h, objects[x]).center for x in names}
    out["A"] = build_A(h).center
    return out


def _hexagon_blocks(m, n):
    return _h_leg_blocks(tensor_center(m, n).coaction, m.h.dim)


@pytest.mark.parametrize("name, names", [
    ("group_z2", ("I", "C", "CC")), ("drinfeld_h2", ("I", "C", "CC")),
    ("sweedler_h4", ("I", "C", "CC")), (TWISTED, ("I", "C")), (DENSE_TWIST, ("I",)),
    (SQUARE, ())])
def test_tensor_coaction_blocks_are_the_hexagon_coaction(name, names):
    # the Yetter-Drinfeld block formula against its oracle, the hexagon
    # composite of tensor_center, on every ordered pair (the twist's pairs
    # with C(x)C cost 3-33 s through the hexagon, the square's only A (x) A)
    centres = _centres(get_algebra(name), names)
    for p, m in centres.items():
        for q, n in centres.items():
            assert list(tensor_coaction_blocks(m, n)) == _hexagon_blocks(m, n), (p, q)


def _nine_leg_element(h, swap=()):
    """center._tensor_coaction_element with x1, X1 on legs 4, 5 and Y3, x3 on
    legs 6, 7 before they are fused, after exchanging each pair of legs in
    swap: a factor-order mutant of the formula for each exchange."""
    pairing = TensorElement._of(h.dim, 2, {(i, i): 1 for i in range(h.dim)})
    t = h.mul_chain([h.spread(h.phi, [(1,), (2,), (6,)], 9),
                     h.spread(pairing, [(1,), (3,)], 9),
                     h.spread(h.phi_inv, [(4,), (1,), (7,)], 9),
                     h.spread(pairing, [(1,), (8,)], 9),
                     h.spread(h.phi, [(5,), (9,), (1,)], 9)])
    order = list(range(1, 10))
    for i, j in swap:
        order[i - 1], order[j - 1] = order[j - 1], order[i - 1]
    return h.fuse_legs(h.fuse_legs(t.permute_legs(order), 6), 4)


@pytest.mark.parametrize("name, swap", [
    (TWISTED, (3, 8)),       # the two pairing legs exchanged: e_j to n, e_i to m
    (TWISTED, (4, 5)),       # X1 x1 for x1 X1
    (DENSE_TWIST, (6, 7))])  # x3 Y3 for Y3 x3
def test_the_block_formula_has_teeth(name, swap):
    # unmutated, the nine-leg construction is the library's element; each
    # factor-order mutant breaks the coaction of heart(I) (x) heart(I).  On
    # TWISTED the third legs of Phi and Phi^-1 lie in span(1, g), so x3 Y3
    # is the same element there, and it dies on DENSE_TWIST instead
    h = get_algebra(name)
    assert _nine_leg_element(h) == center._tensor_coaction_element(h)
    m = _centres(h, ("I",))["I"]
    mutant = center._blocks_through(_nine_leg_element(h, [swap]), m, m)
    assert list(mutant) != _hexagon_blocks(m, m)
