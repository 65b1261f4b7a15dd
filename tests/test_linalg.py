import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from quasihopf.linalg import (Echelon, LegShape, LinAlgError, LinearSystem, Matrix,
                              cokernel, cokernel_of_columns, descend, first_difference,
                              first_not_killed, inverse, kernel, kron, left_divide, rank, rat, rat_str, solve,
                              span_basis, spans_equal)

from helpers import SCALARS, factors, from_cols, from_dense, naive_kron, naive_product


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
    with pytest.raises(TypeError, match="boolean"):
        rat(True)
    with pytest.raises(ValueError, match="zero denominator"):
        rat("1/0")
    assert rat(" 4 ") == 4 and rat("+2") == 2 and rat("−3") == -3
    # only "p" and "p/q" in ASCII digits: no exponent, decimal point,
    # underscore or non-ASCII digit, which Fraction itself would accept
    for text in ("1e10000000", "0.5", "1_0", "١", "3 / 6", "/2", ""):
        with pytest.raises(ValueError, match="malformed rational"):
            rat(text)


@given(st.integers(1, 9000), st.integers(1, 9000), st.booleans())
@settings(max_examples=20, deadline=None)
@example(5001, 1, False)   # 10**5000 - 1 over 1: past str's default 4300-digit limit
@example(1, 5001, True)
def test_rat_str_round_trips_values_of_any_size(num_digits, den_digits, negative):
    # rat_str writes and rat reads back what the program can hold, whatever
    # sys.get_int_max_str_digits() allows, and leaves that limit as it was
    limit = sys.get_int_max_str_digits()
    x = Fraction((-1) ** negative * (10 ** num_digits - 1), 10 ** den_digits + 1)
    text = rat_str(x)
    assert text.count("/") == (x.denominator != 1)
    assert rat(text) == x and rat(f" {text} ") == x
    assert sys.get_int_max_str_digits() == limit
    assert rat("1" * 5000) == (10 ** 5000 - 1) // 9 and rat_str(10 ** 5000) == "1" + "0" * 5000



@pytest.mark.parametrize("text, message", [
    ("1/" + "0" * 5000, "zero denominator in rational '1/0000"),
    ("1." + "5" * 5000, "malformed rational '1.5555")])
def test_rat_quotes_a_long_input_short(text, message):
    # at most 60 characters of the input, then its length
    with pytest.raises(ValueError) as exc:
        rat(text)
    msg = str(exc.value)
    assert msg.startswith(message) and f"... ({len(text)} characters)" in msg
    assert len(msg) < 140

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


def test_from_cols_rejects_rows_out_of_range():
    assert from_cols(2, [{1: 1}, {0: 2}]).to_flat() == [0, 2, 1, 0]
    for col in ({2: 1}, {-1: 1}, {0: 1, -2: 3}):
        with pytest.raises(LinAlgError, match="out of range"):
            from_cols(2, [col])


def test_matrix_rejects_rows_out_of_range():
    for row in (5, -1):
        with pytest.raises(LinAlgError, match="out of range"):
            Matrix(2, 1, [{row: 1}])
    # stored zeros are dropped, so a one-entry column copies none through
    m = Matrix(2, 2, [{0: 0, 1: 1}, {1: Fraction(0)}])
    assert m.columns() == [{1: 1}, {}] and m.nnz() == 1
    for prod in (m * Matrix.identity(2), Matrix.identity(2) * m):
        assert prod.columns() == [{1: 1}, {}]


def test_loaders_agree_on_mixed_entries():
    # each loader coerces an entry once and leaves the zeros to the constructor
    rows = [["0", "1/2", 3], [Fraction(2, 4), 0, Fraction(6, 3)]]
    m = Matrix.from_rows(rows)
    cols = [[r[j] for r in rows] for j in range(3)]
    assert from_cols(2, cols) == m
    assert from_cols(2, [dict(enumerate(c)) for c in cols]) == m
    assert Matrix.from_flat(2, 3, [x for r in rows for x in r]) == m
    assert m.nnz() == 4 and m.columns() == [{1: Fraction(1, 2)}, {0: Fraction(1, 2)}, {0: 3, 1: 2}]
    assert type(m.entry(1, 2)) is int


def test_loaders_refuse_booleans():
    loaders = (lambda x: Matrix.from_rows([[1, x]]), lambda x: from_cols(1, [[x]]),
               lambda x: from_cols(2, [{0: 1, 1: x}]), lambda x: Matrix.from_flat(1, 2, [x, 1]))
    for load in loaders:
        for x in (True, False):
            with pytest.raises(TypeError, match="boolean"):
                load(x)


def test_matrix_refuses_non_rationals():
    # a float or a string has no exact value here, and a boolean is no number
    for x in (0.5, "1/2", True):
        with pytest.raises(TypeError, match="not an int or Fraction"):
            Matrix(1, 1, [{0: x}])
        with pytest.raises(TypeError):
            Matrix(2, 2, [{0: Fraction(1, 3)}, {1: x}])


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


def test_solve_rhs_is_coerced_once_and_checked_for_range(monkeypatch):
    import quasihopf.linalg as linalg
    seen = []
    monkeypatch.setattr(linalg, "rat", lambda x: seen.append(x) or rat(x))
    res = solve(Matrix.identity(2), {0: "1/2", 1: Fraction(4, 2)})
    assert res.solution == {0: Fraction(1, 2), 1: 2}
    assert seen == ["1/2", 2]
    # a negative index is out of range too, not a silently dropped entry
    for bad in ({-1: 1}, {2: 1}):
        with pytest.raises(LinAlgError):
            solve(Matrix.identity(2), bad)


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
        assert ech.extend([{0: zero}]) == []
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


@pytest.mark.parametrize("m,expected", [
    (Matrix.identity(3), True),
    (Matrix.identity(0), True),
    (mat([[1]]), True),
    (mat([[2]]), False),
    (2 * Matrix.identity(3), False),
    (mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), False),     # a permutation
    (mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]), False),     # only the last column differs
    (mat([[1, 0, 3], [0, 1, 0], [0, 0, 1]]), False),     # a unit column with a second entry
    (mat([[1, 0], [0, 1], [0, 0]]), False),              # not square
    (mat([[Fraction(1, 2), 0], [0, 1]]), False),
])
def test_is_identity(m, expected):
    assert m.is_identity() is expected


def test_an_identity_operand_returns_the_other_one():
    a = mat([[1, Fraction(1, 2), 0], [0, 3, -1]])
    assert a.then(Matrix.identity(a.rows)) is a
    assert Matrix.identity(a.cols).then(a) is a
    assert a * Matrix.identity(a.cols) is a and Matrix.identity(a.rows) * a is a
    # the shapes are still checked
    with pytest.raises(LinAlgError):
        a.then(Matrix.identity(a.cols))


def test_a_unit_coefficient_column_is_shared_with_the_operand():
    g = mat([[1, 2], [3, 4]])
    f = mat([[0, 5], [1, 0]])
    prod = f.then(g)
    assert prod == naive_product(f, g)
    assert prod._icols[0] is g._icols[1]


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_identity_rules_match_the_copying_loops(m, n, p, data):
    """then and kron against the loops that build and multiply through every
    identity, on integer and rational operands mixed with identities, 1x1
    matrices and monomial ones."""
    a = from_dense(data.draw(factors(m, n)), n)
    b = from_dense(data.draw(factors(p, m)), m)
    c = from_dense(data.draw(factors(n, n)), n)
    for f, g in ((a, b), (c, a), (a, Matrix.identity(m)), (Matrix.identity(n), a)):
        assert f.then(g) == naive_product(f, g)
    for f, g in ((a, b), (b, c), (c, c), (Matrix.identity(m), Matrix.identity(p)),
                 (Matrix.identity(n), a), (a, Matrix.identity(1))):
        assert f.kron(g) == naive_kron(f, g)


# -- inverse, spans, systems ----------------------------------------------------

def test_inverse_and_singular():
    a = mat([[1, 2], [3, 4]])
    assert (inverse(a) * a).is_identity()
    with pytest.raises(LinAlgError):
        inverse(mat([[1, 2], [2, 4]]))


def test_left_divide_with_rational_rhs():
    a = mat([[2, 1, 0], [0, 3, Fraction(1, 2)], [1, 0, 1]])
    b = mat([[1, Fraction(1, 3)], [0, -2], [Fraction(5, 7), 0]])
    x = left_divide(a, b)
    assert (x.rows, x.cols) == (3, 2)
    assert a * x == b
    assert x == inverse(a) * b
    assert left_divide(a, Matrix.identity(3)) == inverse(a)


def test_left_divide_refuses_singular_and_mismatched():
    with pytest.raises(LinAlgError, match="singular"):
        left_divide(mat([[1, 2], [2, 4]]), mat([[1], [0]]))
    with pytest.raises(LinAlgError, match="rows"):
        left_divide(mat([[1, 2], [3, 4]]), mat([[1], [0], [0]]))
    with pytest.raises(LinAlgError, match="square"):
        left_divide(mat([[1, 2, 3], [3, 4, 5]]), mat([[1], [0]]))


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


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_first_difference_is_the_first_unequal_entry_column_by_column(m, n, data):
    a_rows = data.draw(factors(m, n))
    # b: a with a few entries replaced, so equal and nearly equal pairs both occur
    b_rows = [list(r) for r in a_rows]
    for _ in range(data.draw(st.integers(0, 2))):
        b_rows[data.draw(st.integers(0, m - 1))][data.draw(st.integers(0, n - 1))] = \
            data.draw(SCALARS)
    a, b = from_dense(a_rows, n), from_dense(b_rows, n)
    unequal = [(j, i) for j in range(n) for i in range(m) if a_rows[i][j] != b_rows[i][j]]
    assert first_difference(a, b) == (unequal[0] if unequal else None)
    assert first_difference(b, a) == first_difference(a, b)


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_first_not_killed_is_the_first_vector_with_a_nonzero_image(m, n, data):
    # vectors of f's kernel and others, of one and several entries, integer
    # and rational, in a drawn order, read from a stream
    f = from_dense(data.draw(factors(m, n)), n)
    vectors = data.draw(st.lists(st.dictionaries(st.integers(0, n - 1), SCALARS.filter(bool),
                                                 max_size=3), max_size=6))
    vectors = data.draw(st.permutations(vectors + kernel(f)))
    killed = [not f.apply(v) for v in vectors]
    want = killed.index(False) if not all(killed) else None
    assert first_not_killed(f, iter(vectors)) == want


def test_first_not_killed_reads_a_one_entry_vector_off_the_column():
    f = mat([[1, 1, 0], [0, 0, 0]])  # kills e_2 and e_0 - e_1
    vectors = [{}, {2: 3}, {0: 1, 1: -1}, {0: Fraction(1, 2), 1: Fraction(-1, 2)}, {1: 5}, {2: 1}]
    assert first_not_killed(f, vectors) == 4
    assert first_not_killed(f, vectors[:4]) is None
    assert first_not_killed(f, []) is None


def test_first_difference_needs_one_shape():
    assert first_difference(Matrix.identity(2), Matrix.identity(2)) is None
    assert first_difference(Matrix.identity(2), Matrix.zero(2, 2)) == (0, 0)
    assert first_difference(mat([[1, 0], [0, 1]]), mat([[1, 0], [0, Fraction(1, 2)]])) == (1, 1)
    with pytest.raises(LinAlgError, match="cannot compare"):
        first_difference(Matrix.identity(2), Matrix.zero(2, 3))


def assert_canonical_form(m: Matrix):
    """The stored form: integer columns without zeros, rows in range, over a
    denominator den >= 1 in lowest terms with them."""
    den, icols = m._int_form()
    assert type(den) is int and den >= 1 and len(icols) == m.cols
    for c in icols:
        assert all(type(x) is int and x for x in c.values()), c
        assert all(0 <= i < m.rows for i in c), c
    assert gcd(den, *(x for c in icols for x in c.values())) == 1


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_representation_matches_naive_fraction_values(m, n, data):
    a_rows, b_rows = data.draw(factors(m, n)), data.draw(factors(m, n))
    a, b = from_dense(a_rows, n), from_dense(b_rows, n)

    def naive(f, rows=m, cols=n):
        return rows, cols, [Fraction(f(i, j)) for i in range(rows) for j in range(cols)]

    cases = [
        (a + b, naive(lambda i, j: a_rows[i][j] + b_rows[i][j])),
        (a - b, naive(lambda i, j: a_rows[i][j] - b_rows[i][j])),
        (-a, naive(lambda i, j: -a_rows[i][j])),
        (a.transpose(), naive(lambda i, j: a_rows[j][i], n, m)),
    ]
    for c in (0, 1, -1, Fraction(3, 2)):
        cases.append((c * a, naive(lambda i, j: c * a_rows[i][j])))
        cases.append((a * c, naive(lambda i, j: a_rows[i][j] * c)))
    for got, (rows, cols, flat) in cases:
        assert (got.rows, got.cols) == (rows, cols)
        assert got.to_flat() == flat
        assert_canonical_form(got)
        assert_canonical(entries(got))
        twin = Matrix.from_flat(rows, cols, flat)
        assert got == twin and hash(got) == hash(twin)
        assert got.is_zero() == (not any(flat))
    for got in (a, b, a.then(b.transpose()), kron(a, b)):
        assert_canonical_form(got)
    half, two = Fraction(1, 2) * Matrix.identity(m), 2 * Matrix.identity(m)
    assert (half * two).is_identity() and (two * half) == Matrix.identity(m)
    assert not half.is_identity() and (half * two * a) == a


# -- the quotient projection against the Fraction reduction ----------------------

def _fraction_projection(ambient: int, vectors) -> Matrix:
    """The quotient projection as the Fraction loop computes it: e_k reduced
    at every pivot index of an echelon basis of the span, largest first, and
    read on the non-pivot positions."""
    ech = Echelon()
    ech.extend(vectors)
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


@given(relation_sets(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_results_do_not_depend_on_input_order(case, rnd):
    # the pivot set of a span does not depend on the order of insertion, and
    # the projection is the one map with that section whose kernel is the span
    n, vectors = case
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert cokernel_of_columns(n, shuffled) == cokernel_of_columns(n, vectors)
    assert rank(Matrix(n, len(shuffled), shuffled)) == rank(Matrix(n, len(vectors), vectors))
    assert spans_equal(shuffled, vectors)


def test_spans_equal_on_equal_ranks_and_repeats():
    # equal ranks alone do not make equal spans
    assert not spans_equal([{0: 1}], [{1: 1}])
    assert not spans_equal([{0: 1, 1: 1}, {2: 1}], [{0: 1}, {2: 1}])
    # repeated, scaled and zero vectors span nothing new
    assert spans_equal([{0: 1}, {0: 2}, {}, {0: Fraction(1, 2)}], [{0: -3}])
    assert spans_equal([{}], [])
    assert not spans_equal([{0: 1}, {0: 1}], [{0: 1}, {1: 1}])
