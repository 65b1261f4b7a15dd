import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quasihopf.linalg import (Echelon, LegShape, LinAlgError, LinearSystem, Matrix,
                              cokernel, cokernel_of_columns, descend, inverse, kernel,
                              kron, rank, rat, rat_str, solve, span_basis, spans_equal)

def mat(rows):
    return Matrix.from_rows(rows)


# -- rationals ----------------------------------------------------------------

def test_rat_parsing():
    assert rat("3/6") == Fraction(1, 2)
    assert rat("-5") == Fraction(-5)
    assert rat_str(Fraction(-2, 4)) == "-1/2"
    assert rat_str(Fraction(7)) == "7"
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError, match="zero denominator"):
        rat("1/0")


# -- leg bookkeeping ----------------------------------------------------------

def test_legshape_roundtrip():
    ls = LegShape((2, 3, 4))
    assert ls.size == 24
    for flat in range(ls.size):
        assert ls.index(ls.unindex(flat)) == flat
    # leftmost leg is slowest
    assert ls.index((1, 0, 0)) == 12
    assert ls.index((0, 0, 1)) == 1


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.data())
@settings(max_examples=40, deadline=None)
def test_legshape_bijection(dims, data):
    ls = LegShape(tuple(dims))
    flat = data.draw(st.integers(min_value=0, max_value=ls.size - 1))
    assert ls.index(ls.unindex(flat)) == flat


# -- solve --------------------------------------------------------------------

def test_solve_identity():
    res = solve(mat([[1, 0], [0, 1]]), {0: 1, 1: 2})
    assert res.consistent
    assert res.solution == {0: 1, 1: 2}
    assert res.kernel == []


def test_solve_underdetermined():
    res = solve(mat([[1, 1]]), {})
    assert res.consistent and res.solution == {}
    assert len(res.kernel) == 1
    (k,) = res.kernel
    assert k in ({0: 1, 1: -1}, {0: -1, 1: 1}) or k[0] == -k[1]


def test_solve_inconsistent():
    res = solve(mat([[1], [2]]), {0: 1, 1: 3})
    assert not res.consistent and res.solution is None


def test_solve_shape_mismatch():
    with pytest.raises(LinAlgError):
        solve(mat([[1, 0]]), Matrix.from_rows([[1], [2]]))
    with pytest.raises(LinAlgError):
        mat([[1, 0]]) * mat([[1, 0]])


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_solve_postconditions(m, n, rng):
    a = mat([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)])
    x_true = {j: Fraction(rng.randint(-2, 2)) for j in range(n)}
    b = a.apply({k: v for k, v in x_true.items() if v})
    res = solve(a, b)
    assert res.consistent
    assert a.apply(res.solution) == b
    for k in res.kernel:
        assert a.apply(k) == {}
    assert len(res.kernel) == n - rank(a)


# -- cokernel -----------------------------------------------------------------

def test_cokernel_zero_map():
    p, s = cokernel(Matrix.zero(2, 2))
    assert p == Matrix.identity(2)
    assert (p * s).is_identity()


def test_cokernel_identity():
    p, s = cokernel(Matrix.identity(2))
    assert p.rows == 0


def test_cokernel_rank_one():
    a = mat([[1], [1]])
    p, s = cokernel(a)
    assert p.rows == 1
    assert (p * a).is_zero()
    assert (p * s).is_identity()
    # any rank-1 complement works; the projection is proportional to (1, -1)
    assert p.entry(0, 0) == -p.entry(0, 1)


def test_stored_zero_entries_span_nothing():
    # a zero stored in a vector (as an int or a Fraction) is no direction
    for zero in (0, Fraction(0)):
        ech = Echelon()
        assert ech.add({0: zero}) is False
        assert ech.rank == 0
        p, s = cokernel(Matrix(2, 1, [{0: zero}]))
        assert p.rows == 2
        assert (p * s).is_identity()


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_cokernel_postconditions(m, n, rng):
    a = mat([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)])
    p, s = cokernel(a)
    assert p.rows == m - rank(a)
    assert (p * a).is_zero()
    assert (p * s).is_identity()


# -- descend ------------------------------------------------------------------

def _random_matrix(rng, rows, cols):
    return mat([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=4), st.booleans(), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_descend_matches_the_relation_loop(n, m, k, with_dst, factor, rng):
    """descend agrees with the per-relation check: dst_proj . f . r = 0 for
    every relation r; the induced map is then dst_proj . f . section."""
    rels = _random_matrix(rng, n, k).columns()
    proj, sec = cokernel_of_columns(n, rels)
    dst = cokernel(_random_matrix(rng, m, rng.randint(0, 3)))[0] if with_dst else None
    # a map through the quotient descends; a random one mostly does not
    f = _random_matrix(rng, m, proj.rows) * proj if factor else _random_matrix(rng, m, n)
    top = f if dst is None else dst * f
    kills = all(not top.apply(r) for r in rels)
    g = descend(f, proj, sec, dst)
    assert (g is not None) == kills
    if factor:
        assert g is not None
    if g is not None:
        assert g == top * sec
        assert g * proj == top


# -- kron ---------------------------------------------------------------------

def test_kron_identities():
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)
    b = mat([[1, 2], [3, 4]])
    assert kron(mat([[2]]), b) == 2 * b


def test_kron_mixed_product():
    rng = random.Random(7)

    def rnd():
        return mat([[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)])

    for _ in range(5):
        a, b, c, d = rnd(), rnd(), rnd(), rnd()
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_kron_associative():
    rng = random.Random(11)

    def rnd(r, c):
        return mat([[Fraction(rng.randint(-2, 2)) for _ in range(c)] for _ in range(r)])

    a, b, c = rnd(2, 3), rnd(3, 2), rnd(2, 2)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


# -- inverse, spans, systems ----------------------------------------------------

def test_inverse_and_singular():
    a = mat([[1, 2], [3, 4]])
    assert (inverse(a) * a).is_identity()
    with pytest.raises(LinAlgError):
        inverse(mat([[1, 2], [2, 4]]))


def test_kernel_and_spans():
    a = mat([[1, 1, 1]])
    ker = kernel(a)
    assert len(ker) == 2
    assert spans_equal(ker, [{0: 1, 2: -1}, {1: 1, 2: -1}])
    assert not spans_equal(ker, [{0: 1}])
    basis = span_basis([{0: 1}, {0: 2}, {1: 1}])
    assert len(basis) == 2


def test_linear_system_multi_rhs():
    sys = LinearSystem(2)
    sys.add_equation({0: 1, 1: 1}, {0: 1, 1: 0})
    sys.add_equation({0: 1, 1: -1}, {0: 0, 1: 2})
    x0 = sys.particular_solution(0)
    x1 = sys.particular_solution(1)
    assert x0 == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert x1 == {0: 1, 1: -1}


def test_matrix_flat_roundtrip():
    a = mat([[0, 1], [2, 0], [0, 3]])
    assert Matrix.from_flat(3, 2, a.to_flat()) == a
    assert a.transpose().transpose() == a


def test_apply_checks_indices_and_drops_zeros():
    a = mat([[0, 1], [2, 0], [0, 3]])
    for bad in ({2: 1}, {-1: 1}, {0: 1, 5: H}):
        with pytest.raises(LinAlgError):
            a.apply(bad)
    # a zero stored in the vector (one entry or more) contributes nothing
    assert a.apply({1: 0}) == {} and a.apply({1: Fraction(0)}) == {}
    assert a.apply({0: 0, 1: 2}) == {0: 2, 2: 6}


# -- canonical scalars ------------------------------------------------------------
#
# Every value linalg creates is an int when integral and a Fraction only when
# not.  Equality cannot see this (1 == Fraction(1), and 0.5 == Fraction(1, 2)
# would let a float through too), so these tests look at the types.

def assert_canonical(values):
    for x in values:
        assert type(x) in (int, Fraction), repr(x)
        assert type(x) is int or x.denominator != 1, repr(x)


def entries(m: Matrix):
    return [x for c in m.columns() for x in c.values()]


H = Fraction(1, 2)


@pytest.mark.parametrize("rows", [
    [[2, 1, 0], [1, 1, 0], [0, 3, 1]],                      # unimodular: integral inverse
    [[H, 1, 0], [1, Fraction(3, 2), Fraction(1, 4)], [0, 2, 1]],
])
def test_results_hold_canonical_scalars(rows):
    a = mat(rows)
    # the same matrix with its integral entries stored as Fractions
    a_frac = Matrix(3, 3, [{i: Fraction(x) for i, x in c.items()} for c in a.columns()])
    singular = mat([rows[0], rows[1], [x + y for x, y in zip(rows[0], rows[1])]])
    v = {0: 2, 2: H}
    for m in (a, inverse(a), a.then(a_frac), a_frac.then(a), kron(a, a_frac),
              a + a_frac, 2 * a_frac, *cokernel(singular)):
        assert_canonical(entries(m))
    assert_canonical(a.apply(v).values())
    assert_canonical(a_frac.apply({0: Fraction(4), 1: Fraction(2, 4)}).values())
    res = solve(a, {0: 1, 1: H})
    assert_canonical(res.solution.values())
    for vec in (*kernel(singular), *solve(singular, {}).kernel):
        assert_canonical(vec.values())
    # integral results come back as ints
    assert a_frac.then(inverse(a)) == Matrix.identity(3)
    assert all(type(x) is int for x in entries(a_frac.then(inverse(a))))


def from_dense(rows: list[list], ncols: int) -> Matrix:
    """Dense rows as a Matrix, stored as given: integral Fractions stay Fractions."""
    return Matrix(len(rows), ncols,
                  [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)])


SCALARS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    # denominators 1 give integral Fractions; 2, 4 dyadic and 3 thirds
    st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3, 4])),
)


def dense(rows: int, cols: int):
    return st.lists(st.lists(SCALARS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def factors(draw, rows: int, cols: int):
    """Dense rows of a product operand: dense; monomial (one scaled entry or
    none per column); the identity; or identity (x) B for a common divisor
    of the shape."""
    kind = draw(st.sampled_from(["dense", "monomial", "identity", "id_kron"]))
    if kind == "monomial":
        out = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            hit = draw(st.one_of(st.none(), st.tuples(st.integers(0, rows - 1),
                                                      SCALARS.filter(bool))))
            if hit:
                out[hit[0]][j] = hit[1]
        return out
    if kind == "identity" and rows == cols:
        return [[int(i == j) for j in range(cols)] for i in range(rows)]
    ks = [k for k in (2, 3, 4) if rows % k == 0 and cols % k == 0]
    if kind == "id_kron" and ks:
        k = draw(st.sampled_from(ks))
        br, bc = rows // k, cols // k
        b = draw(dense(br, bc))
        return [[b[i % br][j % bc] if i // br == j // bc else 0 for j in range(cols)]
                for i in range(rows)]
    return draw(dense(rows, cols))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_products_match_naive_fraction_loops(m, n, p, data):
    a_rows = data.draw(factors(m, n))
    b_rows = data.draw(factors(p, m))
    v_dense = [r[0] for r in data.draw(factors(n, 1))]
    a, b = from_dense(a_rows, n), from_dense(b_rows, m)

    ba = [[sum((Fraction(b_rows[i][k]) * a_rows[k][j] for k in range(m)), Fraction(0))
           for j in range(n)] for i in range(p)]
    got = a.then(b)
    assert (got.rows, got.cols) == (p, n)
    assert got.to_flat() == [x for r in ba for x in r]
    assert_canonical(entries(got))

    av = {i: sum((Fraction(a_rows[i][j]) * v_dense[j] for j in range(n)), Fraction(0))
          for i in range(m)}
    got_v = a.apply({j: x for j, x in enumerate(v_dense) if x})
    assert got_v == {i: x for i, x in av.items() if x}
    assert_canonical(got_v.values())

    got_k = kron(a, b)
    assert got_k.to_flat() == [Fraction(a_rows[i][j]) * b_rows[k][l]
                               for i in range(m) for k in range(p)
                               for j in range(n) for l in range(m)]
    assert_canonical(entries(got_k))


# -- the quotient projection against the Fraction reduction ----------------------

def _fraction_projection(ambient: int, vectors) -> Matrix:
    """The quotient projection as the Fraction loop computes it: e_k reduced
    at every pivot index of an echelon basis of the span, largest first, and
    read on the non-pivot positions."""
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    pos = {f: l for l, f in enumerate(i for i in range(ambient) if i not in ech.rows)}
    cols = []
    for k in range(ambient):
        v = {k: Fraction(1)}
        while True:
            c = max((i for i in v if i in ech.rows), default=None)
            if c is None:
                break
            row = ech.rows[c]
            f = v[c] / row[c]
            for i, x in row.items():
                y = v.get(i, 0) - f * x
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
        cols.append({pos[i]: x for i, x in v.items()})
    return Matrix(len(pos), ambient, cols)


@st.composite
def relation_sets(draw):
    """(n, vectors): one vector per pivot p of the span, with random entries
    below p, so that pivots and non-pivots interleave; in random order, with a
    dependent sum.  Also the empty set, a zero vector and a full-rank set."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "empty", "zero", "full"]))
    pivots = {"empty": [], "full": range(n)}.get(kind)
    if pivots is None:
        pivots = sorted(draw(st.sets(st.integers(0, n - 1))))
    below = st.one_of(st.just(0), SCALARS)
    vectors = []
    for p in pivots:
        low = draw(st.lists(below, min_size=p, max_size=p))
        vectors.append({**{i: x for i, x in enumerate(low) if x}, p: draw(SCALARS.filter(bool))})
    vectors = draw(st.permutations(vectors))
    if len(vectors) > 1:
        u, v = vectors[:2]
        vectors.append({i: u.get(i, 0) + v.get(i, 0) for i in {*u, *v} if u.get(i, 0) + v.get(i, 0)})
    if kind == "zero":
        vectors.insert(draw(st.integers(0, len(vectors))), {})
    return n, vectors


# pivots 3 and 1 around the non-pivot 2: e_3 = -(e_0 + e_1 + e_2) with
# e_1 = -2 e_0 modulo the span, so e_3 projects to e_0 - e_2, and a reduction
# that stops at the largest non-pivot index leaves the pivot 1 behind
@example((4, [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 2, 1: 1}]))
@given(relation_sets())
@settings(max_examples=100, deadline=None)
def test_cokernel_matches_the_fraction_reduction(case):
    n, vectors = case
    p, s = cokernel_of_columns(n, vectors)
    assert p == _fraction_projection(n, vectors)
    assert_canonical(entries(p))
    assert (p * s).is_identity()
    assert all(not p.apply(v) for v in vectors)
