"""Exact rational linear algebra.

Everything downstream runs on the primitives in this module: arbitrary
precision rationals, matrices, exact solving, kernels, cokernels and
Kronecker products.

Conventions, fixed once and used everywhere:

* Scalars are canonical exact rationals: an ``int`` when integral and a
  ``fractions.Fraction`` only when not.  Every value this module creates is
  canonical, so integer data runs on integer arithmetic.  ``1 ==
  Fraction(1)`` and both hash alike, so a stray integral ``Fraction`` (say
  from a caller's own loop) costs speed, never correctness.
* Vectors are sparse dicts ``{index: int | Fraction}`` with no zero entries.
  ``Matrix`` does not filter its data; the products rely on this invariant,
  since a one-entry column passes a column of the other factor through.
* A ``Matrix`` acts on column vectors; it is stored as a list of sparse
  columns (``cols[j]`` is the image of the j-th basis vector).  The
  semantics are those of a dense rows x cols array; the sparse storage is
  purely an implementation detail (several verification targets reach
  ambient dimensions in the thousands, where dense rational storage is
  hopeless).
* Flat indexing of tensor legs is leftmost-leg-slowest (row-major), see
  :class:`LegShape`.
* Serialized rationals are strings ``"p"`` or ``"p/q"`` in lowest terms;
  serialized matrices are flat row-major arrays.
* There is one elimination, :meth:`Echelon.reduce`, on primitive integer
  rows.  Negative indices are tags: they ride along and never become
  pivots.  Rank, solving, inverses and the hom solver reduce through it, and
  a quotient projection is read off tagged reductions (see
  :func:`cokernel_of_columns`).

Matrices are immutable by convention once constructed: no public method
mutates entries, so values can be shared freely.  Products rely on this: a
matrix caches its integer form (integer columns over one common
denominator) on first use and never recomputes it.  There is one product
loop, :func:`_int_product`: ``then`` reads both integer forms once and
``apply`` is its one-column case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class LinAlgError(Exception):
    """Shape mismatch or use of a singular matrix where invertible is required."""


# ---------------------------------------------------------------------------
# rationals

def rat(x) -> int | Fraction:
    """Coerce ints, Fractions and "p/q" strings to a canonical exact rational."""
    if isinstance(x, Fraction):
        return _canon(x)
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        s = x.strip().replace("−", "-")  # tolerate unicode minus
        try:
            return _canon(Fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational {x!r}") from None
    if isinstance(x, float):
        raise TypeError(f"refusing to coerce float {x!r} to an exact rational")
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: int | Fraction) -> str:
    """Canonical string form: "p" or "p/q" with q > 0, lowest terms."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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


def vec_scale(v: dict, c) -> dict:
    if not c:
        return {}
    return {k: _canon(c * x) for k, x in v.items()}


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

    def add(self, v: dict) -> bool:
        """Insert the span of v; True if the rank grew."""
        r = self.reduce(v)
        if r:
            self.insert(r)
        return bool(r)

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)


def span_basis(vectors) -> list[dict]:
    """An independent subset spanning the same space (echelon-filtered input)."""
    ech = Echelon()
    out = []
    for v in vectors:
        if ech.add(v):
            out.append({k: _canon(x) for k, x in v.items() if x})
    return out


def spans_equal(us, vs) -> bool:
    """Exact equality of spans by mutual containment."""
    eu, ev = Echelon(), Echelon()
    for u in us:
        eu.add(u)
    for v in vs:
        ev.add(v)
    if eu.rank != ev.rank:
        return False
    return all(eu.contains(v) for v in vs) and all(ev.contains(u) for u in us)


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
    """An exact rows x cols matrix acting on column vectors.

    ``cols[j]`` is the sparse image of the j-th source basis vector.
    """

    __slots__ = ("rows", "cols", "_data", "_rowview", "_intform")

    def __init__(self, rows: int, cols: int, data: list[dict] | None = None):
        if rows < 0 or cols < 0:
            raise LinAlgError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [dict() for _ in range(cols)]
        if len(data) != cols:
            raise LinAlgError("column count does not match data")
        self._data = data
        self._rowview = None
        self._intform = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [{i: ONE} for i in range(n)])

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
                x = rat(x)
                if x:
                    cols[j][i] = x
        return Matrix(m, n, cols)

    @staticmethod
    def from_cols(rows: int, columns) -> "Matrix":
        data = []
        for c in columns:
            data.append({i: rat(x) for i, x in c.items() if rat(x)} if isinstance(c, dict)
                        else {i: rat(x) for i, x in enumerate(c) if rat(x)})
        m = Matrix(rows, len(data), data)
        for c in m._data:
            if c and max(c) >= rows:
                raise LinAlgError("column entry out of range")
        return m

    @staticmethod
    def from_flat(rows: int, cols: int, flat) -> "Matrix":
        flat = list(flat)
        if len(flat) != rows * cols:
            raise LinAlgError(f"expected {rows * cols} entries, got {len(flat)}")
        data = [dict() for _ in range(cols)]
        for idx, x in enumerate(flat):
            x = rat(x)
            if x:
                data[idx % cols][idx // cols] = x
        return Matrix(rows, cols, data)

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> int | Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise LinAlgError("entry index out of range")
        return self._data[j].get(i, ZERO)

    def col(self, j: int) -> dict:
        return dict(self._data[j])

    def columns(self):
        return self._data

    def row_view(self) -> list[dict]:
        """Rows as sparse dicts (built lazily, cached)."""
        if self._rowview is None:
            rows: list[dict] = [dict() for _ in range(self.rows)]
            for j, c in enumerate(self._data):
                for i, x in c.items():
                    rows[i][j] = x
            self._rowview = rows
        return self._rowview

    def _int_form(self) -> tuple[int, list[dict]]:
        """``(den, icols)`` with ``self == icols / den``: integer columns over
        the lcm of the entry denominators (built lazily, cached).  When every
        entry is an int, ``icols`` is the matrix's own column list."""
        if self._intform is None:
            den = _lcm_denominator(x for c in self._data for x in c.values())
            if den is None:
                self._intform = (1, self._data)
            else:
                self._intform = (den, [_scaled(c, den) for c in self._data])
        return self._intform

    def to_flat(self) -> list[int | Fraction]:
        out = [ZERO] * (self.rows * self.cols)
        for j, c in enumerate(self._data):
            for i, x in c.items():
                out[i * self.cols + j] = x
        return out

    def nnz(self) -> int:
        return sum(len(c) for c in self._data)

    # -- algebra ------------------------------------------------------------

    def apply(self, v: dict) -> dict:
        """Matrix times sparse column vector: the one-column case of
        :meth:`then`.  v's denominators are cleared the same way, and an
        index outside ``range(self.cols)`` raises ``LinAlgError``."""
        if v and (min(v) < 0 or max(v) >= self.cols):
            raise LinAlgError("vector index out of range")
        den, icols = self._intform or self._int_form()
        vden = _lcm_denominator(v.values())
        v = {j: x for j, x in v.items() if x} if vden is None else _scaled(v, vden)
        return _int_product(icols, [v], den * (vden or 1))[0]

    def then(self, g: "Matrix") -> "Matrix":
        """Diagrammatic composition: first self, then g, as one integer
        product of the operands' integer forms (see :func:`_int_product`)."""
        if g.cols != self.rows:
            raise LinAlgError(f"cannot compose {self.rows}x{self.cols} then {g.rows}x{g.cols}")
        gden, gcols = g._intform or g._int_form()
        den, cols = self._intform or self._int_form()
        return Matrix(g.rows, self.cols, _int_product(gcols, cols, gden * den))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return other.then(self)  # standard order: self @ other
        c = rat(other)
        return Matrix(self.rows, self.cols, [vec_scale(col, c) for col in self._data])

    __rmul__ = __mul__

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in matrix addition")
        data = []
        for a, b in zip(self._data, other._data):
            c = dict(a)
            vec_add_scaled(c, b, ONE)
            data.append(c)
        return Matrix(self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-1) * other

    def __neg__(self) -> "Matrix":
        return (-1) * self

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._data == other._data

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(tuple(sorted(c.items())) for c in self._data)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def is_zero(self) -> bool:
        return all(not c for c in self._data)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(c == {j: ONE} for j, c in enumerate(self._data))

    def transpose(self) -> "Matrix":
        data: list[dict] = [dict() for _ in range(self.rows)]
        for j, c in enumerate(self._data):
            for i, x in c.items():
                data[i][j] = x
        return Matrix(self.cols, self.rows, data)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, leftmost factor slowest on both sides: integer
        forms multiplied, and each entry divided once when den is not 1."""
        rr, rc = self.rows * other.rows, self.cols * other.cols
        da, acols = self._int_form()
        db, bcols = other._int_form()
        den, orows = da * db, other.rows
        data = []
        for c in acols:
            shifted = [(i * orows, x) for i, x in c.items()]
            for d in bcols:
                col = {}
                for base, x in shifted:
                    for k, y in d.items():
                        col[base + k] = x * y
                data.append(col)
        if den != 1:
            data = [{i: _div(w, den) for i, w in col.items()} for col in data]
        return Matrix(rr, rc, data)


def _int_product(gcols: list[dict], cols: list[dict], den: int) -> list[dict]:
    """The columns of (g . c) / den for integer columns: column j is
    sum_k c[j][k] g[k].  A one-entry column {k: x} is column k of g, copied
    when x == 1 and den == 1 and otherwise scaled entry by entry; this needs
    no accumulator, since neither operand stores zeros."""
    out = []
    for c in cols:
        if len(c) == 1:
            (k, x), = c.items()
            col = gcols[k]
            if den != 1:
                out.append({i: _div(x * y, den) for i, y in col.items()})
            elif x == 1:
                out.append(dict(col))
            else:
                out.append({i: x * y for i, y in col.items()})
            continue
        acc: dict[int, int] = {}
        get = acc.get
        for k, x in c.items():
            for i, y in gcols[k].items():
                acc[i] = get(i, 0) + x * y
        if den == 1:
            out.append({i: w for i, w in acc.items() if w})
        else:
            out.append({i: _div(w, den) for i, w in acc.items() if w})
    return out


def kron(a: Matrix, b: Matrix) -> Matrix:
    return a.kron(b)


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
        bvec = {k: rat(x) for k, x in b.items() if rat(x)}
        if bvec and max(bvec) >= a.rows:
            raise LinAlgError("rhs index out of range")
    sys = LinearSystem(a.cols)
    for i, row in enumerate(a.row_view()):
        sys.add_equation(row, bvec.get(i, ZERO))
    if not sys.consistent():
        return SolveResult(False, None, [])
    return SolveResult(True, sys.particular_solution(), sys.kernel_basis())


def kernel(a: Matrix) -> list[dict]:
    sys = LinearSystem(a.cols)
    for row in a.row_view():
        sys.add_equation(row)
    return sys.kernel_basis()


def rank(a: Matrix) -> int:
    ech = Echelon()
    for c in a.columns():
        ech.add(c)
    return ech.rank


def inverse(a: Matrix) -> Matrix:
    """Exact two-sided inverse; raises LinAlgError if singular."""
    if a.rows != a.cols:
        raise LinAlgError("only square matrices can be inverted")
    n = a.rows
    sys = LinearSystem(n)
    for i, row in enumerate(a.row_view()):
        sys.add_equation(row, {i: ONE})
    if sys.rank != n:
        raise LinAlgError("matrix is singular")
    inv_cols = []
    for k in range(n):
        x = sys.particular_solution(tag=k)
        if x is None:
            raise LinAlgError("matrix is singular")
        inv_cols.append(x)
    return Matrix.from_cols(n, inv_cols)


def cokernel_of_columns(ambient_dim: int, vectors) -> tuple[Matrix, Matrix]:
    """(projection, section) for the quotient by the span of the given sparse
    vectors: the projection maps the ambient space onto the quotient
    coordinates (the non-pivot positions f_l of an echelon basis of the span),
    the section embeds them back, projection . section = id, and the kernel
    of the projection is exactly the span.  With each e_{f_l} in the echelon
    under the tag -1-l, e_k under its own tag T reduces to tags only,
    t T - sum_l c_l (tag -1-l): t e_k = sum_l c_l e_{f_l} modulo the span."""
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    free = [i for i in range(ambient_dim) if i not in ech.rows]
    for l, f in enumerate(free):
        ech.insert({f: ONE, -1 - l: ONE})
    tag = -1 - len(free)
    proj_cols = []
    for k in range(ambient_dim):
        r = ech.reduce({k: ONE, tag: ONE})
        t = r.pop(tag)
        proj_cols.append({-1 - key: _div(-x, t) for key, x in r.items()})
    projection = Matrix(len(free), ambient_dim, proj_cols)
    section = Matrix(ambient_dim, len(free), [{f: ONE} for f in free])
    return projection, section


def cokernel(a: Matrix) -> tuple[Matrix, Matrix]:
    """(projection, section) with projection.A = 0, projection.section = id."""
    return cokernel_of_columns(a.rows, a.columns())


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
