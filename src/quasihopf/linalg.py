"""Exact rational linear algebra.

Everything downstream runs on the primitives in this module: arbitrary
precision rationals, matrices, exact solving, kernels, cokernels and
Kronecker products.

Conventions, fixed once and used everywhere:

* Scalars are canonical exact rationals: an ``int`` when integral and a
  ``fractions.Fraction`` only when not.  Every value this module hands out
  is canonical.  ``1 == Fraction(1)`` and both hash alike, so a stray
  integral ``Fraction`` (say from a caller's own loop) costs speed, never
  correctness.
* Vectors are sparse dicts ``{index: int | Fraction}`` with no zero entries.
* A ``Matrix`` acts on column vectors.  It holds one representation:
  sparse integer columns over one denominator ``den >= 1`` (``cols[j] /
  den`` is the image of the j-th basis vector), kept canonical:
  ``gcd(den, every numerator) == 1``, no stored zeros, every row index in
  range, so equal matrices store equal data.  The semantics are those of a
  dense rows x cols array (several verification targets reach ambient
  dimensions in the thousands, where dense rational storage is hopeless).
* Flat indexing of tensor legs is leftmost-leg-slowest (row-major), see
  :class:`LegShape`.
* Serialized rationals are strings ``"p"`` or ``"p/q"`` in lowest terms;
  serialized matrices are flat row-major arrays.
* There is one elimination, :meth:`Echelon.reduce`, on primitive integer
  rows.  Negative indices are tags: they ride along and never become
  pivots.  Rank, solving, :func:`left_divide` (the X with A X = B, all
  columns of B in one elimination; ``inverse`` is its B = I case) and the
  hom solver reduce through it.  A batch enters an echelon one way,
  :meth:`Echelon.extend`, sparsest first, which keeps the rows sparse and
  changes no result: a pivot is always the largest index, so the pivot set
  of a span, and with it every projection, section, rank and kernel basis,
  does not depend on the order.  Coordinates are read off tagged
  reductions one way, :meth:`Echelon.coordinates`, for quotients and the
  hom solver alike.

Matrices are immutable by convention once constructed: no public method
mutates entries, so values (and columns) can be shared freely.  Rationals
live only at the boundary: the public constructor derives the integer form
from rational columns in one scan, refusing rows out of range and dropping
zeros, and ``entry``, ``col``, ``columns``, ``row_view`` and ``to_flat``
give rationals back, built lazily.  Every kernel (products, sums, scalings,
transposes, comparisons) works on integer columns only and builds its
result through :meth:`Matrix._of`, which reduces the denominator by one gcd
pass when it is not 1.  There is one product loop, :func:`_int_product`:
``then`` runs it on whole matrices and ``apply`` is its one-column case;
identities, judged from the matrix, are free: ``then`` returns the other
operand, ``kron`` of two is ``identity``, a unit coefficient shares a column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm


class LinAlgError(Exception):
    """Shape mismatch or use of a singular matrix where invertible is required."""


# ---------------------------------------------------------------------------
# rationals

def rat(x) -> int | Fraction:
    """Coerce ints, Fractions and "p" or "p/q" strings (ASCII digits, an
    optional sign, surrounding blanks) to a canonical exact rational; floats,
    booleans and any other string form are refused."""
    if isinstance(x, Fraction):
        return _canon(x)
    if isinstance(x, int):
        if isinstance(x, bool):
            raise TypeError(f"refusing to coerce boolean {x!r} to a rational")
        return int(x)
    if isinstance(x, str):
        s = x.strip().replace("−", "-")  # tolerate unicode minus
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", s):
            raise ValueError(f"malformed rational {_quoted(x)}: expected \"p\" or \"p/q\"")
        num, _, den = s.partition("/")
        # through Decimal, whose exact conversions, unlike int's, have no digit limit
        p, q = int(Decimal(num)), int(Decimal(den or "1"))
        if not q:
            raise ValueError(f"zero denominator in rational {_quoted(x)}")
        return _canon(Fraction(p, q))
    if isinstance(x, float):
        raise TypeError(f"refusing to coerce float {x!r} to an exact rational")
    raise TypeError(f"cannot interpret {x!r} as a rational")


def _quoted(text: str, limit: int = 60) -> str:
    """repr(text), cut to its first limit characters plus the length when
    longer, so that an error message stays one short line."""
    r = repr(text)
    return r if len(r) <= limit else f"{r[:limit]}... ({len(text)} characters)"


def rat_str(x: int | Fraction) -> str:
    """Canonical string form: "p" or "p/q" with q > 0, lowest terms."""
    x = Fraction(x)
    # through Decimal, whose exact conversions, unlike str's, have no digit limit
    p, q = str(Decimal(x.numerator)), str(Decimal(x.denominator))
    return p if q == "1" else f"{p}/{q}"


def _canon(x):
    """An integral Fraction as an int; anything else unchanged."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


def _div(a, b: int) -> int | Fraction:
    """The exact quotient a / b in canonical form (b a nonzero int)."""
    if type(a) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _canon(Fraction(a, b))


def _lcm_denominator(values) -> int | None:
    """The lcm of the denominators of values; None when all are ints already."""
    den = None
    for x in values:
        if type(x) is not int:
            den = lcm(den or 1, x.denominator)
    return den


def _scaled(v: dict, den: int) -> dict:
    """den * v as an int vector without zeros (den a common multiple of v's
    denominators)."""
    return {k: x.numerator * (den // x.denominator) for k, x in v.items() if x}


ZERO = 0
ONE = 1


# ---------------------------------------------------------------------------
# leg bookkeeping

@dataclass(frozen=True)
class LegShape:
    """Mixed-radix index bookkeeping for tensor legs.

    ``dims[0]`` is the slowest (leftmost) leg: the flat index of a
    multi-index (i_0, ..., i_{k-1}) is ``(((i_0*d_1 + i_1)*d_2 + i_2)...)``.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(d <= 0 for d in self.dims):
            raise LinAlgError(f"leg dimensions must be positive, got {self.dims}")

    @property
    def size(self) -> int:
        p = 1
        for d in self.dims:
            p *= d
        return p

    def index(self, multi) -> int:
        if len(multi) != len(self.dims):
            raise LinAlgError(f"expected {len(self.dims)} legs, got {len(multi)}")
        flat = 0
        for i, d in zip(multi, self.dims):
            if not 0 <= i < d:
                raise LinAlgError(f"leg index {i} out of range for dimension {d}")
            flat = flat * d + i
        return flat

    def unindex(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.size:
            raise LinAlgError(f"flat index {flat} out of range for {self.dims}")
        out = []
        for d in reversed(self.dims):
            out.append(flat % d)
            flat //= d
        return tuple(reversed(out))


# ---------------------------------------------------------------------------
# sparse vector helpers (dict index -> scalar, zero entries never stored)

def vec_add_scaled(acc: dict, v: dict, c) -> None:
    """acc += c*v, in place, dropping cancellations."""
    if not c:
        return
    for k, x in v.items():
        y = acc.get(k, 0) + c * x
        if y:
            acc[k] = y if type(y) is int else _canon(y)
        else:
            acc.pop(k, None)


def _int_rows(v: dict) -> dict:
    """Scale a rational vector to a primitive integer vector (same line),
    zero entries dropped; always a fresh dict, which reduce updates in place."""
    den = _lcm_denominator(v.values())
    ints = {k: x for k, x in v.items() if x} if den is None else _scaled(v, den)
    g = gcd(*ints.values())
    if g > 1:
        ints = {k: x // g for k, x in ints.items()}
    return ints


# ---------------------------------------------------------------------------
# echelon engine
#
# Integer rows with the pivot at the *largest* occupied index. Reducing an
# incoming vector only ever introduces indices below the cancelled pivot, so
# reduction terminates (polynomial-division style). A tag (negative index)
# records which combination of tagged inputs a residue is.

class Echelon:
    """A subspace held as integer echelon rows, keyed by pivot index."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}  # pivot -> integer row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict[int, int]:
        """The primitive integer residue of v modulo the span: c v minus a
        combination of rows (c != 0), reduced until its largest index is no
        pivot.  Empty exactly when v (tags included) lies in the span."""
        v = _int_rows(v)
        while v:
            c = max(v)
            row = self.rows.get(c)
            if row is None:
                return v
            a, b = row[c], v[c]
            g = gcd(a, b)
            ca, cb = b // g, a // g
            if cb != 1:
                for k in v:
                    v[k] *= cb
            for k, x in row.items():
                y = v.get(k, 0) - x * ca
                if y:
                    v[k] = y
                else:
                    del v[k]
            g = gcd(*v.values())
            if g > 1:
                for k in v:
                    v[k] //= g
        return v

    def insert(self, r: dict[int, int]) -> None:
        """Store a residue of reduce whose largest index is >= 0 as a row."""
        self.rows[max(r)] = r

    def extend(self, vectors) -> list[dict]:
        """Insert the span of the vectors, sparsest first (ties in the given
        order); the vectors that grew the rank, in insertion order."""
        grew = []
        for v in sorted(vectors, key=len):
            r = self.reduce(v)
            if r:
                self.insert(r)
                grew.append(v)
        return grew

    def coordinates(self, dim: int, tag: int) -> tuple[int, list[dict]]:
        """``(den, cols)``: the tagged coordinates of e_0..e_{dim-1} over den.
        When every e_k lies in the span of the rows once tags are dropped, e_k
        under the fresh tag T reduces to tags only, t T - sum_l c_l (tag -1-l),
        that is t e_k = sum_l c_l v_l for the vectors v_l tagged -1-l; column
        k is den c / t, den the lcm of the t's."""
        reduced = [self.reduce({k: ONE, tag: ONE}) for k in range(dim)]
        den = lcm(*(r[tag] for r in reduced))
        cols = []
        for r in reduced:
            s = -(den // r.pop(tag))
            cols.append({-1 - key: s * x for key, x in r.items()})
        return den, cols


def span_basis(vectors) -> list[dict]:
    """An independent subset spanning the same space, sparsest first."""
    return [{k: _canon(x) for k, x in v.items() if x} for v in Echelon().extend(vectors)]


def spans_equal(us, vs) -> bool:
    """Exact equality of spans: equal ranks, and vs inside the span of us."""
    vs = list(vs)
    eu = Echelon()
    eu.extend(us)
    return len(Echelon().extend(vs)) == eu.rank and not eu.extend(vs)


# ---------------------------------------------------------------------------
# linear systems
#
# Equations are sparse rows over unknowns 0..nvars-1. Right hand sides are
# folded in at negative indices (tag t lives at -1-t), which are never
# eligible as pivots, so one elimination serves any number of right hand
# sides simultaneously.

class LinearSystem:
    """Accumulates exact linear equations and solves them."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._ech = Echelon()
        self._bad_tags: set[int] = set()

    def add_equation(self, coeffs: dict, rhs=ZERO) -> None:
        """Add sum(coeffs[j]*x_j) = rhs.

        rhs may be a scalar (tag 0) or a dict {tag: value} describing the
        right hand sides of several systems sharing this coefficient row.
        """
        row = {j: c for j, c in coeffs.items() if c}
        if isinstance(rhs, dict):
            for t, val in rhs.items():
                if val:
                    row[-1 - t] = -val
        else:
            if rhs:
                row[-1] = -rhs
        r = self._ech.reduce(row)
        if not r:
            return
        if max(r) < 0:
            # 0 = (combination of right hand sides): those systems have no solution
            self._bad_tags.update(-1 - k for k in r)
            return
        self._ech.insert(r)

    def consistent(self, tag: int = 0) -> bool:
        return tag not in self._bad_tags

    @property
    def rank(self) -> int:
        return self._ech.rank

    def _back_substitute(self, free_values: dict, rhs_key: int | None) -> dict:
        """Solve with the given free-variable assignment.

        Rows have their pivot at the max index, so sweeping unknowns in
        ascending order only ever references already-known values.
        """
        x: dict = dict(free_values)
        rows = self._ech.rows
        for c in sorted(rows):
            row = rows[c]
            s = row.get(rhs_key, 0) if rhs_key is not None else 0
            for k, a in row.items():
                if k == c or k < 0:
                    continue
                xv = x.get(k)
                if xv is not None:
                    s += a * xv
            val = _div(-s, row[c])
            if val:
                x[c] = val
        return {k: v for k, v in x.items() if v}

    def particular_solution(self, tag: int = 0) -> dict | None:
        if tag in self._bad_tags:
            return None
        return self._back_substitute({}, rhs_key=-1 - tag)

    def kernel_basis(self) -> list[dict]:
        return [self._back_substitute({f: ONE}, rhs_key=None)
                for f in range(self.nvars) if f not in self._ech.rows]


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """An exact rows x cols matrix acting on column vectors, held as integer
    columns over one canonical denominator (see the module docstring).

    ``columns()[j]`` is the sparse rational image of the j-th source basis
    vector.
    """

    __slots__ = ("rows", "cols", "_den", "_icols", "_ratcols", "_rowview")

    def __init__(self, rows: int, cols: int, data: list[dict] | None = None):
        """The matrix with rational columns data (zero when None): rows out
        of range raise LinAlgError, entries other than int and Fraction
        (floats, strings, booleans) raise TypeError, and stored zeros are
        dropped."""
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix shape")
        if data is None:
            data = [{} for _ in range(cols)]
        elif len(data) != cols:
            raise LinAlgError("column count does not match data")
        clean = True  # int entries only, none of them zero
        for c in data:
            if c:
                if min(c) < 0 or max(c) >= rows:
                    raise LinAlgError("row index out of range")
                if clean and (0 in c.values() or {*map(type, c.values())} != {int}):
                    clean = False
        den = 1
        if not clean:
            bad = [x for c in data for x in c.values() if type(x) not in (int, Fraction)]
            if bad:
                raise TypeError(f"matrix entry {bad[0]!r} is not an int or Fraction")
            den = lcm(*(x.denominator for c in data for x in c.values()))
            data = [{i: x.numerator * (den // x.denominator) for i, x in c.items() if x}
                    for c in data]
        self.rows, self.cols, self._den, self._icols = rows, cols, den, data
        self._ratcols = self._rowview = None

    @classmethod
    def _of(cls, rows: int, cols: int, den: int, icols: list[dict]) -> "Matrix":
        """icols / den, trusted: integer columns without zeros, rows in
        range, den >= 1.  Brought to lowest terms by one gcd pass, which
        stops at the first column that settles it, and only when den != 1."""
        if den != 1:
            g = den
            for c in icols:
                g = gcd(g, *c.values())
                if g == 1:
                    break
            if g != 1:
                den //= g
                icols = [{i: x // g for i, x in c.items()} for c in icols]
        m = cls.__new__(cls)
        m.rows, m.cols, m._den, m._icols = rows, cols, den, icols
        m._ratcols = m._rowview = None
        return m

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._of(rows, cols, 1, [{} for _ in range(cols)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(n, n, 1, [{i: 1} for i in range(n)])

    @staticmethod
    def hstack(mats: list["Matrix"]) -> "Matrix":
        """[m_0 | m_1 | ...]: the columns of each matrix in turn (a nonempty
        list of matrices with one row count)."""
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise LinAlgError("row counts differ in hstack")
        den = lcm(*(m._den for m in mats))
        icols = []
        for m in mats:
            s = den // m._den
            icols += m._icols if s == 1 else [{i: s * x for i, x in c.items()} for c in m._icols]
        return Matrix._of(rows, len(icols), den, icols)

    @staticmethod
    def from_rows(rows_data) -> "Matrix":
        rows_data = [list(r) for r in rows_data]
        m = len(rows_data)
        n = len(rows_data[0]) if m else 0
        cols = [dict() for _ in range(n)]
        for i, r in enumerate(rows_data):
            if len(r) != n:
                raise LinAlgError("ragged row data")
            for j, x in enumerate(r):
                cols[j][i] = rat(x)
        return Matrix(m, n, cols)

    @staticmethod
    def from_flat(rows: int, cols: int, flat) -> "Matrix":
        flat = list(flat)
        if len(flat) != rows * cols:
            raise LinAlgError(f"expected {rows * cols} entries, got {len(flat)}")
        data = [dict() for _ in range(cols)]
        for idx, x in enumerate(flat):
            data[idx % cols][idx // cols] = rat(x)
        return Matrix(rows, cols, data)

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> int | Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise LinAlgError("entry index out of range")
        return self.columns()[j].get(i, ZERO)

    def col(self, j: int) -> dict:
        return dict(self.columns()[j])

    def columns(self) -> list[dict]:
        """The rational columns (built lazily, cached; the integer columns
        themselves when den == 1)."""
        if self._den == 1:
            return self._icols
        if self._ratcols is None:
            den = self._den
            self._ratcols = [{i: _div(x, den) for i, x in c.items()} for c in self._icols]
        return self._ratcols

    def row_view(self) -> list[dict]:
        """Rows as sparse rational dicts (built lazily, cached)."""
        if self._rowview is None:
            self._rowview = _transposed(self.columns(), self.rows)
        return self._rowview

    def _int_row_view(self) -> tuple[int, list[dict]]:
        """``(den, rows)`` with ``self == rows / den``, rows integer: the
        cached row view when den == 1, else built afresh."""
        if self._den == 1:
            return 1, self.row_view()
        return self._den, _transposed(self._icols, self.rows)

    def select(self, order) -> "Matrix":
        """The matrix whose j-th column is column order[j] of self."""
        icols = self._icols
        return Matrix._of(self.rows, len(order), self._den, [icols[j] for j in order])

    def _int_form(self) -> tuple[int, list[dict]]:
        """``(den, icols)`` with ``self == icols / den``: the stored form."""
        return self._den, self._icols

    def to_flat(self) -> list[int | Fraction]:
        out = [ZERO] * (self.rows * self.cols)
        for j, c in enumerate(self.columns()):
            for i, x in c.items():
                out[i * self.cols + j] = x
        return out

    def nnz(self) -> int:
        return sum(len(c) for c in self._icols)

    # -- algebra ------------------------------------------------------------

    def apply(self, v: dict) -> dict:
        """Matrix times sparse rational column vector: the one-column case of
        :meth:`then`, with v's denominators cleared the same way.  An index
        outside ``range(self.cols)`` raises ``LinAlgError``."""
        if v and (min(v) < 0 or max(v) >= self.cols):
            raise LinAlgError("vector index out of range")
        vden = _lcm_denominator(v.values())
        v = {j: x for j, x in v.items() if x} if vden is None else _scaled(v, vden)
        out = _int_product(self._icols, [v])[0]
        den = self._den * (vden or 1)
        return out if den == 1 else {i: _div(w, den) for i, w in out.items()}

    def then(self, g: "Matrix") -> "Matrix":
        """Diagrammatic composition: first self, then g, as one integer
        product of the operands' columns (see :func:`_int_product`)."""
        if g.cols != self.rows:
            raise LinAlgError(f"cannot compose {self.rows}x{self.cols} then {g.rows}x{g.cols}")
        if g.is_identity():
            return self
        if self.is_identity():
            return g
        return Matrix._of(g.rows, self.cols, g._den * self._den,
                          _int_product(g._icols, self._icols))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return other.then(self)  # standard order: self @ other
        c = rat(other)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        p, q = c.numerator, c.denominator
        return Matrix._of(self.rows, self.cols, self._den * q,
                          [{i: p * x for i, x in col.items()} for col in self._icols])

    __rmul__ = __mul__

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other over the lcm of the two denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in matrix addition")
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        data = []
        for a, b in zip(self._icols, other._icols):
            c = dict(a) if sa == 1 else {i: sa * x for i, x in a.items()}
            vec_add_scaled(c, b, sb)
            data.append(c)
        return Matrix._of(self.rows, self.cols, den, data)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, self._den,
                          [{i: -x for i, x in c.items()} for c in self._icols])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._den) == (other.rows, other.cols, other._den) \
            and self._icols == other._icols

    def __hash__(self):
        return hash((self.rows, self.cols, self._den,
                     tuple(tuple(sorted(c.items())) for c in self._icols)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def is_zero(self) -> bool:
        return not any(self._icols)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self._den == 1 \
            and all(c.get(j) == 1 and len(c) == 1 for j, c in enumerate(self._icols))

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, self._den, _transposed(self._icols, self.rows))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, leftmost factor slowest on both sides, of the
        integer columns over the product of the denominators; I kron I is I."""
        if self.is_identity() and other.is_identity():
            return Matrix.identity(self.rows * other.rows)
        orows, bcols = other.rows, other._icols
        data = []
        for c in self._icols:
            shifted = [(i * orows, x) for i, x in c.items()]
            for d in bcols:
                col = {}
                for base, x in shifted:
                    for k, y in d.items():
                        col[base + k] = x * y
                data.append(col)
        return Matrix._of(self.rows * orows, self.cols * other.cols,
                          self._den * other._den, data)


def _transposed(cols: list[dict], nrows: int) -> list[dict]:
    """The sparse rows of a matrix given by its sparse columns."""
    rows: list[dict] = [{} for _ in range(nrows)]
    for j, c in enumerate(cols):
        for i, x in c.items():
            rows[i][j] = x
    return rows


def _int_product(gcols: list[dict], cols: list[dict]) -> list[dict]:
    """The integer columns of g . c: column j is sum_k c[j][k] g[k].  A
    one-entry column {k: x} is column k of g, shared when x == 1 and scaled
    otherwise; this needs no accumulator, since neither operand stores
    zeros."""
    out = []
    for c in cols:
        if len(c) == 1:
            (k, x), = c.items()
            col = gcols[k]
            out.append(col if x == 1 else {i: x * y for i, y in col.items()})
            continue
        acc: dict[int, int] = {}
        get = acc.get
        for k, x in c.items():
            for i, y in gcols[k].items():
                acc[i] = get(i, 0) + x * y
        out.append({i: w for i, w in acc.items() if w} if 0 in acc.values() else acc)
    return out


def kron(a: Matrix, b: Matrix) -> Matrix:
    return a.kron(b)


def first_difference(a: Matrix, b: Matrix) -> tuple[int, int] | None:
    """The first (column, row) where two matrices of one shape differ,
    columns first and then rows in order; None when a == b."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise LinAlgError(f"cannot compare {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    if a == b:
        return None
    # the stored form is canonical, so unequal matrices differ in a column
    return next((j, min(i for i in x.keys() | y.keys() if x.get(i, ZERO) != y.get(i, ZERO)))
                for j, (x, y) in enumerate(zip(a.columns(), b.columns())) if x != y)


# ---------------------------------------------------------------------------
# solving

@dataclass
class SolveResult:
    consistent: bool
    solution: dict | None       # one exact solution, None if inconsistent
    kernel: list[dict]          # basis of the null space of A


def solve(a: Matrix, b: Matrix | dict) -> SolveResult:
    """One exact solution of A x = b plus a kernel basis, or inconsistency."""
    if isinstance(b, Matrix):
        if b.cols != 1 or b.rows != a.rows:
            raise LinAlgError(f"rhs must be a {a.rows}-row column, got {b.rows}x{b.cols}")
        bvec = b.col(0)
    else:
        bvec = {k: y for k, x in b.items() if (y := rat(x))}
        if bvec and (min(bvec) < 0 or max(bvec) >= a.rows):
            raise LinAlgError("rhs index out of range")
    den, rows = a._int_row_view()  # a = rows / den: rows x = den b
    sys = LinearSystem(a.cols)
    for i, row in enumerate(rows):
        sys.add_equation(row, den * bvec.get(i, ZERO))
    if not sys.consistent():
        return SolveResult(False, None, [])
    return SolveResult(True, sys.particular_solution(), sys.kernel_basis())


def kernel(a: Matrix) -> list[dict]:
    return solve(a, {}).kernel


def rank(a: Matrix) -> int:
    return len(Echelon().extend(a._icols))  # scaling a column does not change the span


def left_divide(a: Matrix, b: Matrix) -> Matrix:
    """The X with A X = B, for A square and invertible: one elimination of
    A's rows with B's columns riding along as tags.  A singular A, or a B
    with another row count, raises LinAlgError."""
    if a.rows != a.cols:
        raise LinAlgError("only square matrices can be inverted")
    if b.rows != a.rows:
        raise LinAlgError(f"rhs must have {a.rows} rows, got {b.rows}")
    n = a.rows
    den, rows = a._int_row_view()  # a = rows / den: rows X = den B
    sys = LinearSystem(n)
    for row, brow in zip(rows, b.row_view()):
        sys.add_equation(row, {t: den * x for t, x in brow.items()})
    if sys.rank != n:  # full rank: every row grew it, so no system is inconsistent
        raise LinAlgError("matrix is singular")
    return Matrix(n, b.cols, [sys.particular_solution(tag=k) for k in range(b.cols)])


def inverse(a: Matrix) -> Matrix:
    """Exact two-sided inverse: left_divide at B = I (LinAlgError if singular)."""
    return left_divide(a, Matrix.identity(a.rows))


def cokernel_of_columns(ambient_dim: int, vectors) -> tuple[Matrix, Matrix]:
    """(projection, section) for the quotient by the span of the given sparse
    vectors: the projection maps the ambient space onto the quotient
    coordinates (the non-pivot positions f_l of an echelon basis of the span),
    the section embeds them back, projection . section = id, and the kernel
    of the projection is exactly the span.  With each e_{f_l} in the echelon
    under the tag -1-l, the projection is :meth:`Echelon.coordinates`."""
    ech = Echelon()
    ech.extend(vectors)
    free = [i for i in range(ambient_dim) if i not in ech.rows]
    for l, f in enumerate(free):
        ech.insert({f: ONE, -1 - l: ONE})
    projection = Matrix._of(len(free), ambient_dim, *ech.coordinates(ambient_dim, -1 - len(free)))
    section = Matrix._of(ambient_dim, len(free), 1, [{f: ONE} for f in free])
    return projection, section


def cokernel(a: Matrix) -> tuple[Matrix, Matrix]:
    """(projection, section) with projection.A = 0, projection.section = id."""
    return cokernel_of_columns(a.rows, a._icols)  # scaling does not change the span


def descend(f: Matrix, src_proj: Matrix, src_sec: Matrix,
            dst_proj: Matrix | None = None) -> Matrix | None:
    """The map that f induces on the quotient src_proj, or None if it has none.

    src_proj is onto with src_proj . src_sec = id; dst_proj, when given, is
    the quotient of f's target.  The candidate is g = dst_proj . f . src_sec,
    and it is induced exactly when g . src_proj = dst_proj . f, that is when
    dst_proj . f kills ker src_proj (the span of the relations).
    """
    top = f if dst_proj is None else dst_proj * f
    g = top * src_sec
    return g if g * src_proj == top else None
