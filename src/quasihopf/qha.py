"""Quasi-Hopf algebras by structure constants, and arithmetic in tensor powers.

An algebra H over the rationals is described by its multiplication tensor,
unit, comultiplication, counit, an invertible associator in the triple tensor
power, an antipode (an algebra antiautomorphism) and the two antipode
correction elements.  Nothing is taken on faith: :func:`verify_axioms` checks
the eight defining identity families exactly, and every module downstream
requires a passed report.

Leg conventions: an element of the k-th tensor power is a sparse map from
k-tuples of basis indices to rationals.  Positions in leg-spreading notation
are 1-based to match the usual subscript notation for distributing tensor
legs, e.g. spreading the associator over positions ((1,5),(2),(3,4)).

Every element of H or of a tensor power is a :class:`TensorElement`, what
``icomult`` returns included.  The leg operations (``icomult``, ``spread``,
``apply_leg``, ``fuse_legs``, ``counit_legs``,
:meth:`TensorElement.permute_legs`) are linear extensions of maps on index
tuples through one kernel, :func:`_linear`.  Internal
results are canonical and built by the trusted :meth:`TensorElement._of`;
the public constructor, which coerces with ``rat`` and checks every key,
is the gate for outside input (files, user code).

The structure maps m, Delta, u, eps and the leg swap are matrices built once
per algebra (:meth:`QuasiHopfAlgebra.structure`).  The operators on H given
by an element c, such as L_c = m(c (x) 1), are composites of them, and so
are the two sides of most axioms.

Products in a tensor power (:meth:`QuasiHopfAlgebra.mul`, under every
five-leg element of the exactness diagram) run over leg tries on integers:
both operands are nested leg by leg in the order that shares the most
prefixes (:func:`_leg_order`), equal sub-tries are interned into one object
(:func:`_leg_trie`), and each distinct pair of sub-tries is multiplied once,
whatever the number of terms and prefixes that share it.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from math import prod

from .linalg import (LegShape, LinAlgError, Matrix, ONE, ZERO, _canon, _div, _lcm_denominator,
                     _scaled, first_difference, inverse, rat, rat_str, solve)
from .report import Report


class TensorElement:
    """An element of the k-fold tensor power of the algebra.

    ``coeffs`` maps k-tuples of basis indices to nonzero Fractions; ``legs``
    may be 0, in which case the single key is the empty tuple and the element
    is a scalar.
    """

    __slots__ = ("dim", "legs", "coeffs")

    def __init__(self, dim: int, legs: int, coeffs: dict):
        self.dim = dim
        self.legs = legs
        clean = {}
        for idx, c in coeffs.items():
            c = rat(c)
            if not c:
                continue
            idx = (idx,) if isinstance(idx, int) else tuple(idx)
            if len(idx) != legs or any(not 0 <= i < dim for i in idx):
                raise ValueError(f"bad index {idx} for {legs} legs of dimension {dim}")
            clean[idx] = c
        self.coeffs = clean

    @classmethod
    def _of(cls, dim: int, legs: int, coeffs: dict) -> "TensorElement":
        """Trusted: ``legs``-tuple keys in range, nonzero canonical values."""
        t = cls.__new__(cls)
        t.dim, t.legs, t.coeffs = dim, legs, coeffs
        return t

    @classmethod
    def from_flat(cls, dim: int, legs: int, flat) -> "TensorElement":
        """The inverse of to_flat (leftmost leg slowest), through the public
        constructor."""
        flat = list(flat)
        if len(flat) != dim ** legs:
            raise ValueError(f"expected {dim ** legs} coefficients, got {len(flat)}")
        return cls(dim, legs, dict(zip(product(range(dim), repeat=legs), flat)))

    # -- linear structure ----------------------------------------------------

    def _check_like(self, other: "TensorElement"):
        if self.dim != other.dim or self.legs != other.legs:
            raise ValueError(f"leg mismatch: {self.legs} legs vs {other.legs} legs")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_like(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, ZERO) + c
        return TensorElement._of(self.dim, self.legs,
                                 {i: _canon(x) for i, x in out.items() if x})

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-1) * other

    def __mul__(self, c) -> "TensorElement":
        c = rat(c)
        return TensorElement._of(self.dim, self.legs,
                                 {i: _canon(c * x) for i, x in self.coeffs.items()} if c else {})

    __rmul__ = __mul__

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.dim, self.legs, self.coeffs) == (other.dim, other.legs, other.coeffs)

    def __hash__(self):
        return hash((self.dim, self.legs, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def tensor(self, other: "TensorElement") -> "TensorElement":
        if self.dim != other.dim:
            raise ValueError("tensor factors live over different algebras")
        return TensorElement._of(self.dim, self.legs + other.legs,
                                 {i + j: _canon(c * d) for i, c in self.coeffs.items()
                                  for j, d in other.coeffs.items()})

    def permute_legs(self, order) -> "TensorElement":
        """Reorder legs: slot j of the result is leg order[j] (1-based) of self."""
        order = tuple(order)
        if sorted(order) != list(range(1, self.legs + 1)):
            raise ValueError(f"{order} is not a permutation of 1..{self.legs}")
        return _linear(self, self.legs, lambda idx: {tuple(idx[o - 1] for o in order): ONE})

    def to_flat(self) -> list[Fraction]:
        shape = LegShape((self.dim,) * self.legs)
        out = [ZERO] * shape.size
        for idx, c in self.coeffs.items():
            out[shape.index(idx)] = c
        return out

    def as_vector(self) -> dict:
        """Sparse flat-index view (leftmost leg slowest)."""
        n = self.dim
        return {reduce(lambda f, i: f * n + i, idx, 0): c for idx, c in self.coeffs.items()}

    def as_column(self) -> Matrix:
        """The element as a one-column matrix, the map Q -> H^(x legs)."""
        den = _lcm_denominator(self.coeffs.values()) or 1
        return Matrix._of(self.dim ** self.legs, 1, den, [_scaled(self.as_vector(), den)])

    def __repr__(self):
        return f"TensorElement(legs={self.legs}, terms={len(self.coeffs)})"


def _linear(t: TensorElement, legs: int, image) -> TensorElement:
    """The linear extension of ``image`` to t, as a ``legs``-leg element: the
    sum of c * image(idx) over the terms c e_idx of t, where image(idx) is a
    dict {output index tuple: coefficient}.  The one accumulate loop of the
    leg operations; zeros are dropped and coefficients made canonical here,
    so the result goes through the trusted constructor."""
    out: dict = {}
    get = out.get
    for idx, c in t.coeffs.items():
        for key, d in image(idx).items():
            x = c if d == 1 else c * d
            y = get(key)
            out[key] = x if y is None else y + x
    return TensorElement._of(t.dim, legs, {k: y for k, x in out.items() if (y := _canon(x))})


def _leg_order(s: TensorElement, t: TensorElement) -> tuple[int, ...]:
    """The (0-based) leg order in which :meth:`QuasiHopfAlgebra.mul` nests s
    and t.  With f(S) = (distinct prefixes of s on the leg set S) x (those of
    t), which bounds the prefix pairs the trie product visits at depth |S|,
    the order minimises the sum of f over its leading leg sets.  One exact
    pass over the 2^legs leg sets, each prefix an integer code (code(S) =
    code(S - {l}) * dim + idx[l], l the largest leg of S): O(2^legs (|s| +
    |t|)).  Ties go to the lexicographically first order.  In any order the
    product visits at most legs |s| |t| prefix pairs; where the pass would
    cost more than that, as always when an operand has at most one term,
    the given order is kept.  The bound counts visited pairs, not computed
    ones: a pair of equal sub-tries met again is a memo hit in
    :func:`_trie_product`, so the pairs computed can be far fewer."""
    legs, dim, m, n = s.legs, s.dim, len(s.coeffs), len(t.coeffs)
    if legs * m * n <= (1 << legs) * (m + n):
        return tuple(range(legs))
    cols = [list(zip(*x.coeffs)) for x in (s, t)]
    codes, best = {0: [[0] * len(x.coeffs) for x in (s, t)]}, {0: (0, ())}
    for mask in range(1, 1 << legs):
        top = mask.bit_length() - 1
        codes[mask] = [[c * dim + i for c, i in zip(prev, col[top])]
                       for prev, col in zip(codes[mask ^ 1 << top], cols)]
        f = len(set(codes[mask][0])) * len(set(codes[mask][1]))
        cost, order = min((best[mask ^ 1 << l][0], best[mask ^ 1 << l][1] + (l,))
                          for l in range(legs) if mask >> l & 1)
        best[mask] = (cost + f, order)
    return best[(1 << legs) - 1][1]


def _leg_trie(t: TensorElement, order) -> tuple[int, dict]:
    """(den, trie) for an element with at least one leg: its coefficients
    times den (the lcm of their denominators) as ints, nested one dict level
    per leg in ``order`` (0-based legs), with the ints at the last.

    Equal sub-tries are interned bottom-up, per depth: a leaf by its items
    (index and coefficient), an inner node by its indices and the identity
    of its already interned children.  Equal sub-tries at one depth are then
    one object, so the trie is a DAG that :func:`_trie_product` can memoise
    by identity."""
    den = _lcm_denominator(t.coeffs.values()) or 1
    *head, last = order
    root: dict = {}
    for idx, c in _scaled(t.coeffs, den).items():
        node = root
        for l in head:
            node = node.setdefault(idx[l], {})
        node[idx[last]] = c
    return den, _intern(root, 0, [{} for _ in order])


def _intern(node: dict, depth: int, seen: list[dict]) -> dict:
    """The one object in ``seen[depth]`` equal to node, once its children
    are interned in place."""
    if depth == len(seen) - 1:
        key = frozenset(node.items())
    else:
        for i, sub in node.items():
            node[i] = _intern(sub, depth + 1, seen)
        key = frozenset(zip(node, map(id, node.values())))
    return seen[depth].setdefault(key, node)


def _trie_product(table, a: dict, b: dict, weights, memo: dict, depth: int = 0) -> dict:
    """The product of two leg tries over an integer multiplication table
    (``table[i][j]`` the items of e_i e_j), as a dict from flat output
    indices to ints.  ``weights[d]`` is the flat weight of the leg nested at
    depth d, dim ** (legs - 1 - order[d]), so output keys are flat indices in
    the original leg order whatever the nesting.  The last leg is found by
    depth, not by weight: in dimension 1 every weight is 1.

    ``memo`` lives for one product and holds the product of each pair of
    interned sub-tries (see :func:`_leg_trie`) under (id(a), id(b), depth),
    so each distinct pair is multiplied once however often it recurs."""
    out: dict[int, int] = {}
    get = out.get
    w = weights[depth]
    if depth == len(weights) - 1:
        for i, c in a.items():
            row = table[i]
            for j, d in b.items():
                cd = c * d
                for k, y in row[j]:
                    kw = k * w
                    out[kw] = get(kw, 0) + cd * y
        return out
    for i, ai in a.items():
        row = table[i]
        for j, bj in b.items():
            m = row[j]
            if not m:
                continue
            key = (id(ai), id(bj), depth)
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = _trie_product(table, ai, bj, weights, memo, depth + 1).items()
            for k, y in m:
                kw = k * w
                for f, x in sub:
                    out[kw + f] = get(kw + f, 0) + x * y
    return out


class Frozen:
    """Base of the algebra, modules, centre objects, right modules and hearts:
    immutable once built, with one memo of what is derived from the object.

    A constructor binds its attributes and then ``_memo``; from then on,
    rebinding or deleting an attribute raises AttributeError.  A value in the
    memo is stored on the object it derives from, so it cannot go stale and
    lives exactly as long as that object.
    """

    def __setattr__(self, name, value):
        if "_memo" in self.__dict__:
            raise AttributeError(f"cannot rebind {name!r}: a {type(self).__name__} is immutable")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def memo(self, key, make):
        """make(), computed once per key for the life of this object; a make()
        that raises stores nothing."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]


StructureMaps = namedtuple("StructureMaps", "m delta u eps swap")


class QuasiHopfAlgebra(Frozen):
    """A finite-dimensional quasi-Hopf algebra given by structure constants.

    ``mult[i][j]`` is the sparse expansion of e_i * e_j, ``comult[i]`` the
    sparse expansion of the coproduct of e_i over index pairs, ``counit[i]``
    a rational.  ``phi`` is the associator (3 legs); its inverse and the
    antipode's inverse are computed by exact solving when not supplied.

    The constructor validates shapes and inverses only; the axioms are the
    business of :func:`verify_axioms`, which any consumer should require.

    An algebra is immutable (see :class:`Frozen`).  What is derived from it
    once per algebra (the structure maps, the axiom report, kappa and
    lambda, the algebra A) lives in its memo.
    """

    def __init__(self, dim, basis, mult, unit, comult, counit, phi, antipode,
                 alpha, beta, phi_inv=None, antipode_inv=None, name=""):
        if dim <= 0:
            raise ValueError("algebra dimension must be positive")
        self.dim = dim
        self.name = name
        self.basis = list(basis) if basis else [f"e{i}" for i in range(dim)]
        if len(self.basis) != dim:
            raise ValueError("basis name count does not match dimension")
        # witnesses name basis tuples by these names, so they must tell them apart
        seen = set()
        for b in self.basis:
            if not b or b in seen:
                raise ValueError(f"basis name {b!r} is {'repeated' if b else 'empty'}")
            seen.add(b)
        if len(mult) != dim or any(len(row) != dim for row in mult):
            raise ValueError(f"multiplication table must be {dim}x{dim}")
        if len(comult) != dim:
            raise ValueError(f"comultiplication needs {dim} entries")
        if len(counit) != dim:
            raise ValueError(f"counit needs {dim} entries")

        def _idx(i):
            if not 0 <= i < dim:
                raise ValueError(f"basis index {i} out of range for dimension {dim}")
            return i

        self.mult = [[{_idx(k): r for k, c in mult[i][j].items() if (r := rat(c))}
                      for j in range(dim)] for i in range(dim)]
        self.unit = {_idx(i): r for i, c in unit.items() if (r := rat(c))}
        self.comult = [{(_idx(j), _idx(k)): r for (j, k), c in comult[i].items()
                        if (r := rat(c))} for i in range(dim)]
        self.counit = [rat(c) for c in counit]
        n2 = dim * dim
        maps = StructureMaps(
            Matrix(dim, n2, [dict(m) for row in self.mult for m in row]),
            Matrix(n2, dim, [{j * dim + k: c for (j, k), c in d.items()} for d in self.comult]),
            Matrix(dim, 1, [dict(self.unit)]),
            Matrix(1, dim, [{0: c} if c else {} for c in self.counit]),
            Matrix.identity(n2).select([j * dim + i for i in range(dim) for j in range(dim)]))
        # the table as m's integer columns over its one denominator, for mul
        mden, mcols = maps.m._int_form()
        self._int_mult = (mden, [[list(mcols[i * dim + j].items()) for j in range(dim)]
                                 for i in range(dim)])
        # a |-> e_i a e_j for every pair (i, j), the fused-leg operator family on an H
        # leg of repcat.elem_action_matrix (indexed [i][j]): L_i R_j, where L_i and
        # R_j are the column blocks m(e_i (x) 1) and m(1 (x) e_j) of m
        left = [maps.m.select(range(i * dim, i * dim + dim)) for i in range(dim)]
        self.sandwich = [[maps.m.select(range(j, n2, dim)).then(l) for j in range(dim)]
                         for l in left]
        self.phi = phi if isinstance(phi, TensorElement) else TensorElement(dim, 3, phi)
        if self.phi.legs != 3 or self.phi.dim != dim:
            raise ValueError("associator must have three legs")
        self.antipode = antipode
        if antipode.rows != dim or antipode.cols != dim:
            raise ValueError("antipode matrix has wrong shape")
        self.alpha = TensorElement(dim, 1, alpha) if isinstance(alpha, dict) else alpha
        self.beta = TensorElement(dim, 1, beta) if isinstance(beta, dict) else beta
        if phi_inv is None:
            try:
                phi_inv = self.tensor_inverse(self.phi)
            except LinAlgError as exc:
                raise ValueError("associator is not invertible") from exc
        self.phi_inv = phi_inv
        if antipode_inv is None:
            try:
                antipode_inv = inverse(antipode)
            except LinAlgError as exc:
                raise ValueError("antipode is not invertible") from exc
        self.antipode_inv = antipode_inv
        self._memo = {"structure": maps}

    # -- basic arithmetic -----------------------------------------------------

    def unit_elem(self, legs: int = 1) -> TensorElement:
        t = TensorElement._of(self.dim, 0, {(): ONE})
        one = TensorElement._of(self.dim, 1, {(i,): c for i, c in self.unit.items()})
        for _ in range(legs):
            t = t.tensor(one)
        return t

    def basis_elem(self, i: int) -> TensorElement:
        return TensorElement._of(self.dim, 1, {(i,): ONE})

    def _own(self, *ts: TensorElement) -> None:
        """Refuse elements of another algebra (a different dimension)."""
        for t in ts:
            if t.dim != self.dim:
                raise ValueError(f"element of dimension {t.dim} given to dimension {self.dim}")

    def mul(self, s: TensorElement, t: TensorElement) -> TensorElement:
        """Componentwise product in the k-fold tensor power algebra.

        A product over leg tries, on integers: both operands are scaled by the
        lcm of their denominators (the table by its own) and nested leg by leg
        in the order :func:`_leg_order` picks for this pair, the one that
        minimises the bound on prefix pairs visited, summed over depths.  For
        each pair (i, j) of indices on the first nested leg with e_i e_j != 0
        the two sub-tries are multiplied, and that product is spread over the
        terms of e_i e_j; so each pair of leg prefixes is multiplied once, not
        once per pair of terms.  Equal sub-tries are one object
        (:func:`_leg_trie`) and the product of each pair of them is kept for
        this call, so a pair that recurs under other prefixes is not
        multiplied again.  Products accumulate as ints under flat output
        indices in the original leg order (each depth has its own flat weight,
        see :func:`_trie_product`), and each output coefficient is divided
        once by the common denominator.
        """
        self._own(s, t)
        s._check_like(t)
        if not s.legs:
            c = _canon(s.coeffs.get((), ZERO) * t.coeffs.get((), ZERO))
            return TensorElement._of(self.dim, 0, {(): c} if c else {})
        order = _leg_order(s, t)
        sden, strie = _leg_trie(s, order)
        tden, ttrie = _leg_trie(t, order)
        mden, table = self._int_mult
        den = sden * tden * mden ** s.legs
        shape = LegShape((self.dim,) * s.legs)
        acc = _trie_product(table, strie, ttrie, [self.dim ** (s.legs - 1 - l) for l in order],
                            {})
        return TensorElement._of(self.dim, s.legs,
                                 {shape.unindex(f): _div(x, den) for f, x in acc.items() if x})

    def mul_chain(self, elems) -> TensorElement:
        elems = list(elems)
        acc = elems[0]
        for t in elems[1:]:
            acc = self.mul(acc, t)
        return acc

    # -- coproduct machinery ---------------------------------------------------

    def icomult(self, i: int, m: int) -> TensorElement:
        """Left-nested iterated coproduct of e_i spread over m legs.

        m = 1 is the identity, m = 2 the coproduct, and larger m iterates on
        the first leg: (delta x id^(m-2)) o ... o delta.
        """
        t = self.basis_elem(i)
        for legs in range(2, m + 1):
            t = _linear(t, legs, lambda idx: {jk + idx[1:]: d
                                              for jk, d in self.comult[idx[0]].items()})
        return t

    def spread(self, t: TensorElement, groups, total_legs: int) -> TensorElement:
        """Distribute each leg of t over a group of positions via iterated coproducts.

        ``groups`` lists, per leg of t, the (1-based) target positions in the
        order the iterated coproduct legs should land there.  Unclaimed
        positions receive the unit.  Groups must be disjoint and in range.
        """
        self._own(t)
        if len(groups) != t.legs:
            raise ValueError(f"need one group per leg, got {len(groups)} for {t.legs} legs")
        if not all(groups):
            raise ValueError("empty position group")
        claimed = [p for g in groups for p in g]
        for p in claimed:
            if not 1 <= p <= total_legs:
                raise ValueError(f"position {p} outside 1..{total_legs}")
        if len(set(claimed)) != len(claimed):
            raise ValueError(f"a position is claimed twice in {groups}")
        # an image is built with its legs in group order and the free positions
        # last; order lists those slots by the position they fill
        slots = claimed + [p for p in range(1, total_legs + 1) if p not in claimed]
        order = sorted(range(total_legs), key=slots.__getitem__)
        units = self.unit_elem(total_legs - len(claimed)).coeffs

        def image(idx):
            terms = {(): ONE}
            for i, g in zip(idx, groups):
                terms = {k + x: c * d for k, c in terms.items()
                         for x, d in self.icomult(i, len(g)).coeffs.items()}
            return {tuple((k + u)[s] for s in order): c * d
                    for k, c in terms.items() for u, d in units.items()}

        return _linear(t, total_legs, image)

    def apply_leg(self, t: TensorElement, leg: int, op: Matrix) -> TensorElement:
        """Apply a linear endomorphism of H to one (1-based) leg."""
        self._own(t)
        if not 1 <= leg <= t.legs:
            raise ValueError(f"leg {leg} out of range")
        if op.rows != self.dim or op.cols != self.dim:
            raise ValueError("leg operator has wrong shape")
        cols = op.columns()
        return _linear(t, t.legs, lambda idx: {idx[:leg - 1] + (k,) + idx[leg:]: d
                                               for k, d in cols[idx[leg - 1]].items()})

    def fuse_legs(self, t: TensorElement, leg: int) -> TensorElement:
        """Multiply legs ``leg`` and ``leg + 1`` (1-based) of t into one leg."""
        self._own(t)
        if not 1 <= leg < t.legs:
            raise ValueError(f"leg {leg} outside 1..{t.legs - 1}")
        return _linear(t, t.legs - 1, lambda idx: {
            idx[:leg - 1] + (k,) + idx[leg + 1:]: x
            for k, x in self.mult[idx[leg - 1]][idx[leg]].items()})

    def counit_legs(self, t: TensorElement, legs) -> TensorElement:
        """Apply the counit to the given (1-based) legs, dropping them."""
        self._own(t)
        legs = sorted(set(legs))
        for l in legs:
            if not 1 <= l <= t.legs:
                raise ValueError(f"leg {l} out of range")
        keep = [l for l in range(1, t.legs + 1) if l not in legs]
        return _linear(t, len(keep), lambda idx: {
            tuple(idx[l - 1] for l in keep): prod(self.counit[idx[l - 1]] for l in legs)})

    # -- distinguished operators ------------------------------------------------

    def structure(self) -> StructureMaps:
        """(m, delta, u, eps, swap): the product H (x) H -> H (column i n + j
        is e_i e_j), the coproduct, the unit Q -> H, the counit H -> Q and the
        swap of two legs, as matrices built once by the constructor."""
        return self._memo["structure"]

    def _as_map(self, c: TensorElement) -> Matrix:
        """A one-leg element of this algebra as the map Q -> H."""
        if c.legs != 1 or c.dim != self.dim:
            raise ValueError(f"expected a one-leg element of dimension {self.dim}")
        return c.as_column()

    def left_mult_matrix(self, c: TensorElement) -> Matrix:
        """L_c = m(c (x) 1): left multiplication by the one-leg element c."""
        return self._as_map(c).kron(Matrix.identity(self.dim)).then(self.structure().m)

    def right_mult_matrix(self, c: TensorElement) -> Matrix:
        """R_c = m(1 (x) c): right multiplication by the one-leg element c."""
        return Matrix.identity(self.dim).kron(self._as_map(c)).then(self.structure().m)

    def adjoint_sandwich(self, c: TensorElement) -> Matrix:
        """x |-> x_(1) c S(x_(2)), the composite m(R_c (x) S)Delta: H2's left
        side at c = beta."""
        s = self.structure()
        return s.delta.then(self.right_mult_matrix(c).kron(self.antipode)).then(s.m)

    def antipode_sandwich(self, c: TensorElement) -> Matrix:
        """x |-> S(x_(1)) c x_(2), the composite m(R_c S (x) 1)Delta: H1's left
        side at c = alpha."""
        s = self.structure()
        rc_s = self.antipode.then(self.right_mult_matrix(c))
        return s.delta.then(rc_s.kron(Matrix.identity(self.dim))).then(s.m)

    def adjoint_action_of(self, v: TensorElement) -> Matrix:
        """The operator a |-> v_(1) a S(v_(2)) for a fixed one-leg element v:
        v_(1) (x) S(v_(2)) acting through the sandwich family."""
        from .repcat import elem_action_matrix
        return elem_action_matrix(
            self.apply_leg(self.spread(v, [(1, 2)], 2), 2, self.antipode), [self.sandwich])

    def tensor_inverse(self, t: TensorElement) -> TensorElement:
        """Two-sided inverse of t in its tensor power, by exact solving of
        L_t x = 1, L_t = t acting through L_i = m(e_i (x) 1) on every leg, read
        off the table (the constructor calls this before structure() exists)."""
        from .repcat import elem_action_matrix
        left = [Matrix(self.dim, self.dim, [dict(c) for c in row]) for row in self.mult]
        res = solve(elem_action_matrix(t, [left] * t.legs), self.unit_elem(t.legs).as_vector())
        if not res.consistent or res.solution is None:
            raise LinAlgError("element is not invertible in the tensor power")
        shape = LegShape((self.dim,) * t.legs)
        inv = TensorElement._of(self.dim, t.legs,
                                {shape.unindex(i): c for i, c in res.solution.items()})
        if self.mul(inv, t) != self.unit_elem(t.legs) or self.mul(t, inv) != self.unit_elem(t.legs):
            raise LinAlgError("solved inverse failed the two-sided check")
        return inv

    # -- verification -----------------------------------------------------------

    def verify_axioms(self) -> Report:
        """Exact check of the defining axioms, run once per algebra.

        Each axiom is one identity, of tensor elements or of composites of
        the structure maps as matrices: m: H (x) H -> H, Delta: H -> H (x) H,
        the unit u, the counit eps, the antipode S, the swap t of two legs,
        and left and right multiplication L_x, R_x.  In report order:

        - unit: m(u (x) 1) = 1 = m(1 (x) u);
        - associativity: m(m (x) 1) = m(1 (x) m);
        - comult.unit: Delta u = u (x) u;
        - comult.morphism: Delta m = (m (x) m)(1 (x) t (x) 1)(Delta (x) Delta);
        - counit.unit, counit.morphism: eps u = 1, eps m = eps (x) eps;
        - B3.counit_laws: (eps (x) 1) Delta = 1 = (1 (x) eps) Delta;
        - phi.invertible: Phi Phi^-1 = 1 = Phi^-1 Phi in the third power;
        - B1.quasi_coassociativity:
          (1 (x) Delta) Delta = R_{Phi^-1} L_Phi (Delta (x) 1) Delta;
        - B2.pentagon, in the fourth power;
        - B4.counit_phi: (1 (x) eps (x) 1) Phi = 1 (x) 1;
        - antipode.antihom, antipode.unit: S m = m t (S (x) S), S u = u;
        - antipode.invertible: S S^-1 = 1 = S^-1 S;
        - H1.alpha_law: m(R_alpha S (x) 1) Delta = alpha eps;
        - H2.beta_law: m(R_beta (x) S) Delta = beta eps;
        - H3.zigzag: Phi^1 beta S(Phi^2) alpha Phi^3 = 1;
        - H4.zigzag: S(phi^1) alpha phi^2 beta S(phi^3) = 1, over phi = Phi^-1.

        A failing item names its witness (see :meth:`add_identity`).
        """
        return self.memo("axioms", self._check_axioms)

    def _check_axioms(self) -> Report:
        from .repcat import elem_action_matrix
        rep = Report(title=f"axioms[{self.name or 'algebra'}]")
        n, phi, phinv, ant = self.dim, self.phi, self.phi_inv, self.antipode
        one = Matrix.identity(n)
        m, delta, u, eps, swap = self.structure()
        left = [self.left_mult_matrix(self.basis_elem(i)) for i in range(n)]
        right = [self.right_mult_matrix(self.basis_elem(i)) for i in range(n)]

        check = partial(self.add_identity, rep)

        def comp(*maps):  # the composite, multiplied out from the source: thin products
            return reduce(Matrix.then, reversed(maps))

        check("unit", comp(m, u.kron(one)), one, comp(m, one.kron(u)))
        check("associativity", comp(m, m.kron(one)), comp(m, one.kron(m)))
        check("comult.unit", comp(delta, u), u.kron(u))
        check("comult.morphism", comp(delta, m),
              comp(m.kron(m), one.kron(swap).kron(one), delta.kron(delta)))
        check("counit.unit", comp(eps, u), Matrix.identity(1))
        check("counit.morphism", comp(eps, m), eps.kron(eps))
        check("B3.counit_laws", comp(eps.kron(one), delta), one, comp(one.kron(eps), delta))
        check("phi.invertible", self.mul(phi, phinv), self.unit_elem(3), self.mul(phinv, phi))
        check("B1.quasi_coassociativity", comp(one.kron(delta), delta),
              comp(elem_action_matrix(phinv, [right] * 3), elem_action_matrix(phi, [left] * 3),
                   delta.kron(one), delta))
        # (B2) pentagon, as an exact identity in the 4th tensor power
        check("B2.pentagon",
              self.mul(self.spread(phi, [(1,), (2,), (3, 4)], 4),
                       self.spread(phi, [(1, 2), (3,), (4,)], 4)),
              self.mul_chain([self.spread(phi, [(2,), (3,), (4,)], 4),
                              self.spread(phi, [(1,), (2, 3), (4,)], 4),
                              self.spread(phi, [(1,), (2,), (3,)], 4)]))
        check("B4.counit_phi", self.counit_legs(phi, [2]), self.unit_elem(2))
        check("antipode.antihom", comp(ant, m), comp(m, swap, ant.kron(ant)))
        check("antipode.unit", comp(ant, u), u)
        check("antipode.invertible", comp(ant, self.antipode_inv), one,
              comp(self.antipode_inv, ant))
        s_alpha, r_beta = _s_alpha(self), self.right_mult_matrix(self.beta)
        r_alpha = self.right_mult_matrix(self.alpha)
        check("H1.alpha_law", self.antipode_sandwich(self.alpha), self.alpha.as_column() * eps)
        check("H2.beta_law", self.adjoint_sandwich(self.beta), self.beta.as_column() * eps)
        fuse, leg = self.fuse_legs, self.apply_leg
        check("H3.zigzag", fuse(leg(fuse(leg(leg(phi, 1, r_beta), 2, ant), 1), 1, r_alpha), 1),
              self.unit_elem(1))
        check("H4.zigzag", fuse(leg(leg(fuse(leg(phinv, 1, s_alpha), 1), 1, r_beta), 2, ant), 1),
              self.unit_elem(1))
        return rep

    def add_identity(self, rep: Report, check_id: str, first, *others) -> bool:
        """Add the item ``first == other`` for every other, the sides being
        matrices between tensor powers of H, or tensor elements (one column).
        A failure names its witness: the first differing column as a source
        basis tuple (no tuple for one column), the target component, and the
        two entries, e.g. 'at g (x) x, component 1: 0 != 1'."""
        def name(flat: int, size: int) -> str:  # '1' for the scalars, H^0
            legs = 0
            while self.dim ** legs < size:
                legs += 1
            idx = LegShape((self.dim,) * legs).unindex(flat)
            return " (x) ".join(self.basis[i] for i in idx) or "1"

        for other in others:
            if first == other:
                continue
            a, b = (x.as_column() if isinstance(x, TensorElement) else x for x in (first, other))
            col, row = first_difference(a, b)
            at = f"at {name(col, a.cols)}, " if a.cols > 1 else "at "
            return rep.add(check_id, False, f"{at}component {name(row, a.rows)}: "
                           f"{rat_str(a.entry(row, col))} != {rat_str(b.entry(row, col))}")
        return rep.add(check_id, True)

    def require_valid(self) -> "QuasiHopfAlgebra":
        self.verify_axioms().require(f"algebra {self.name or ''} failed axiom checks")
        return self

    def __repr__(self):
        return f"QuasiHopfAlgebra({self.name or 'anonymous'}, dim={self.dim})"


# ---------------------------------------------------------------------------
# derived identities

def verify_derived_identities(h: QuasiHopfAlgebra) -> Report:
    """Consequences of the axioms that the explicit formula machinery leans on.

    These are redundant given the axioms, which is exactly why they are worth
    checking: a failure localizes a convention bug (leg order, antipode side)
    that the axioms alone would not catch.
    """
    h.require_valid()
    rep = Report(title=f"derived[{h.name or 'algebra'}]")
    one2 = h.unit_elem(2)
    phi, phinv = h.phi, h.phi_inv

    check = partial(h.add_identity, rep)
    # applying the counit to any single leg of the associator (or its inverse)
    # leaves the unit of the square tensor power
    for legname, t in (("phi", phi), ("phi_inv", phinv)):
        check(f"eps_on_{legname}", one2, *(h.counit_legs(t, [l]) for l in (1, 2, 3)))

    w_beta = h.adjoint_sandwich(h.beta)      # x -> x_(1) beta S(x_(2))
    v_alpha = h.antipode_sandwich(h.alpha)   # x -> S(x_(1)) alpha x_(2)

    def with_middle(t: TensorElement, pos: int) -> TensorElement:
        return h.spread(t, [(pos,)], 3)

    check("helper1.beta_collapse_mid", h.apply_leg(phinv, 2, w_beta), with_middle(h.beta, 2))
    check("helper2.alpha_collapse_last", h.apply_leg(phi, 3, v_alpha), with_middle(h.alpha, 3))

    # pentagon consequence: (id,id,delta)Phi . (delta,id,id)Phi . (phi x 1) .
    # (id,delta,id)phi = 1 x Phi
    check("helper3.pentagon_fold",
          h.mul_chain([h.spread(phi, [(1,), (2,), (3, 4)], 4),
                       h.spread(phi, [(1, 2), (3,), (4,)], 4),
                       h.spread(phinv, [(1,), (2,), (3,)], 4),
                       h.spread(phinv, [(1,), (2, 3), (4,)], 4)]),
          h.spread(phi, [(2,), (3,), (4,)], 4))

    check("tmp1.beta_collapse_last", h.apply_leg(phinv, 3, w_beta), with_middle(h.beta, 3))
    check("tmp2.alpha_collapse_mid", h.apply_leg(h.apply_leg(phi, 2, v_alpha), 3, h.antipode),
          with_middle(h.alpha, 2))

    # tmp3: (id,delta,id)Phi . (Phi x 1) . (delta,id,id)phi . (id,id,delta)phi = 1 x phi
    check("tmp3.pentagon_fold_inv",
          h.mul_chain([h.spread(phi, [(1,), (2, 3), (4,)], 4),
                       h.spread(phi, [(1,), (2,), (3,)], 4),
                       h.spread(phinv, [(1, 2), (3,), (4,)], 4),
                       h.spread(phinv, [(1,), (2,), (3, 4)], 4)]),
          h.spread(phinv, [(2,), (3,), (4,)], 4))

    check("hsko.alpha_collapse_phi_inv", h.apply_leg(phinv, 2, v_alpha), with_middle(h.alpha, 2))

    # hskoo: the same collapse under one extra coproduct on the first leg,
    # stated in the 4th tensor power
    check("hskoo.alpha_collapse_nested",
          h.apply_leg(h.spread(phinv, [(1, 2), (3,), (4,)], 4), 2, v_alpha),
          h.mul(h.spread(phinv, [(1,), (3,), (4,)], 4), h.spread(h.alpha, [(2,)], 4)))

    kappa, lam = kappa_lambda(h)
    check("kappa.eps_identity", h.counit_legs(kappa, [3, 4]), h.unit_elem(3))
    check("lambda.eps_identity", h.counit_legs(lam, [4, 5]), h.unit_elem(3))
    return rep


def kappa_lambda(h: QuasiHopfAlgebra) -> tuple[TensorElement, TensorElement]:
    """The two five-leg comparison elements of the free-module exactness diagram.

    kappa = (1 x phi^-1 x 1) . Phi_{(1,5),2,(3,4)} and
    lambda = (1 x 1 x phi^-1) . Phi_{2,3,(4,5)} . Phi_{1,(2,3),(4,5)}.
    Both are invertible (see :func:`kappa_inverse` for kappa's inverse) and
    collapse to units under the counit on legs (3,4) resp. (4,5).
    """
    h.require_valid()
    lam = h.mul_chain([
        h.spread(h.phi_inv, [(3,), (4,), (5,)], 5),
        h.spread(h.phi, [(2,), (3,), (4, 5)], 5),
        h.spread(h.phi, [(1,), (2, 3), (4, 5)], 5),
    ])
    return _kappa(h), lam


def _kappa(h: QuasiHopfAlgebra) -> TensorElement:
    return h.mul(h.spread(h.phi_inv, [(2,), (3,), (4,)], 5),
                 h.spread(h.phi, [(1, 5), (2,), (3, 4)], 5))


def kappa_inverse(h: QuasiHopfAlgebra, kappa: TensorElement | None = None) -> TensorElement:
    """kappa^-1 = Phi^-1_{(1,5),2,(3,4)} . (1 x phi x 1), in closed form.

    Spreading is an algebra map, so inverting the two factors of kappa and
    swapping them gives its inverse; the result is still checked exactly on
    both sides against kappa (recomputed unless passed in), and a failed
    check raises LinAlgError.
    """
    h.require_valid()
    kinv = h.mul(h.spread(h.phi_inv, [(1, 5), (2,), (3, 4)], 5),
                 h.spread(h.phi, [(2,), (3,), (4,)], 5))
    if kappa is None:
        kappa = _kappa(h)
    one = h.unit_elem(5)
    if h.mul(kinv, kappa) != one or h.mul(kappa, kinv) != one:
        raise LinAlgError("closed-form kappa inverse failed the two-sided check")
    return kinv


def _s_alpha(h: QuasiHopfAlgebra) -> Matrix:
    """The operator x |-> S(x) alpha."""
    return h.antipode.then(h.right_mult_matrix(h.alpha))


def alpha_contraction(h: QuasiHopfAlgebra) -> TensorElement:
    """sum P1 (x) S(P2) alpha P3 over the associator: the element behind the
    canonical action of the algebra, the evaluation family and the adjunction
    counit."""
    return h.fuse_legs(h.apply_leg(h.phi, 2, _s_alpha(h)), 2)


def beta_contraction(h: QuasiHopfAlgebra) -> TensorElement:
    """sum q1 (x) q2 beta S(q3) over phi^-1: the element behind the adjunction
    unit; its counit on the first leg is the unit of the algebra."""
    t = h.apply_leg(h.phi_inv, 2, h.right_mult_matrix(h.beta))
    return h.fuse_legs(h.apply_leg(t, 3, h.antipode), 2)


def product_element(h: QuasiHopfAlgebra) -> TensorElement:
    """sum E1 (x) S(E2) alpha E3 (x) S(E4) over E = (1 x phi^-1) . (id x id x Delta)(phi).

    a . b = sum E1 a S(E2) alpha E3 b S(E4) is the product of the canonical
    algebra, and the same element drives the inner composition.
    """
    e = h.mul(h.spread(h.phi_inv, [(2,), (3,), (4,)], 4),
              h.spread(h.phi, [(1,), (2,), (3, 4)], 4))
    return h.apply_leg(h.fuse_legs(h.apply_leg(e, 2, _s_alpha(h)), 2), 3, h.antipode)


# ---------------------------------------------------------------------------
# built-in examples

def _mult_from_table(dim: int, table) -> list[list[dict]]:
    """table[i][j] is a list of (basis index, coefficient) pairs."""
    return [[{k: rat(c) for k, c in table[i][j]} for j in range(dim)] for i in range(dim)]


def _group_z2(name="group_z2") -> QuasiHopfAlgebra:
    # basis: 1, g with g^2 = 1; everything else trivial
    mult = _mult_from_table(2, [
        [[(0, 1)], [(1, 1)]],
        [[(1, 1)], [(0, 1)]],
    ])
    comult = [{(0, 0): ONE}, {(1, 1): ONE}]
    return QuasiHopfAlgebra(
        dim=2, basis=["1", "g"], mult=mult, unit={0: ONE},
        comult=comult, counit=[ONE, ONE],
        phi=TensorElement(2, 3, {(0, 0, 0): ONE}),
        antipode=Matrix.identity(2),
        alpha={0: ONE}, beta={0: ONE}, name=name)


def _sweedler_h4() -> QuasiHopfAlgebra:
    # basis: 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx
    e = [(0, 1)], [(1, 1)], [(2, 1)], [(3, 1)]
    zero = []
    mult = _mult_from_table(4, [
        [e[0], e[1], e[2], e[3]],
        [e[1], e[0], e[3], e[2]],
        [e[2], [(3, -1)], zero, zero],
        [e[3], [(2, -1)], zero, zero],
    ])
    comult = [
        {(0, 0): ONE},
        {(1, 1): ONE},
        {(2, 0): ONE, (1, 2): ONE},            # x -> x x 1 + g x x
        {(3, 1): ONE, (0, 3): ONE},            # gx -> gx x g + 1 x gx
    ]
    antipode = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ])  # S(x) = -gx, S(gx) = x
    return QuasiHopfAlgebra(
        dim=4, basis=["1", "g", "x", "gx"], mult=mult, unit={0: ONE},
        comult=comult, counit=[ONE, ONE, ZERO, ZERO],
        phi=TensorElement(4, 3, {(0, 0, 0): ONE}),
        antipode=antipode, alpha={0: ONE}, beta={0: ONE}, name="sweedler_h4")


def _drinfeld_h2() -> QuasiHopfAlgebra:
    # the group algebra of Z/2 with the nontrivial associator
    #   Phi = 1x1x1 - 2 p x p x p,  p = (1-g)/2,
    # alpha = g, beta = 1, S = id
    base = _group_z2(name="drinfeld_h2")
    half = Fraction(1, 2)
    p = TensorElement(2, 1, {(0,): half, (1,): -half})
    ppp = p.tensor(p).tensor(p)
    phi = base.unit_elem(3) - 2 * ppp
    return QuasiHopfAlgebra(
        dim=2, basis=["1", "g"], mult=base.mult, unit={0: ONE},
        comult=base.comult, counit=[ONE, ONE],
        phi=phi, antipode=Matrix.identity(2),
        alpha={1: ONE}, beta={0: ONE}, name="drinfeld_h2")


BUILTIN_NAMES = ("group_z2", "sweedler_h4", "drinfeld_h2")


def builtin(name: str) -> QuasiHopfAlgebra:
    """One of the shipped example algebras, axiom-verified before returning."""
    if name == "group_z2":
        h = _group_z2()
    elif name == "sweedler_h4":
        h = _sweedler_h4()
    elif name == "drinfeld_h2":
        h = _drinfeld_h2()
    else:
        raise KeyError(f"unknown builtin algebra {name!r}; choose from {BUILTIN_NAMES}")
    h.require_valid()
    return h


# ---------------------------------------------------------------------------
# serialization

def algebra_to_json(h: QuasiHopfAlgebra) -> str:
    """The algebra file, every array flat and row-major.  ``mult`` and
    ``comult`` are m and Delta transposed, the flat forms of 3-leg elements:
    the coefficient of e_k in e_i e_j, and that of e_j (x) e_k in Delta(e_i),
    sit at (i, j, k)."""
    m, delta, u, eps, _ = h.structure()

    def flat(a):
        return [rat_str(c) for c in a.to_flat()]

    obj = {"dim": h.dim, "basis": list(h.basis), "mult": flat(m.transpose()), "unit": flat(u),
           "comult": flat(delta.transpose()), "counit": flat(eps), "phi": flat(h.phi),
           "phi_inv": flat(h.phi_inv), "antipode": flat(h.antipode),
           "antipode_inv": flat(h.antipode_inv), "alpha": flat(h.alpha), "beta": flat(h.beta)}
    if h.name:
        obj["name"] = h.name
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Length of each array of an algebra file, as a power of the dimension.
_JSON_ARRAY_POWERS = {"mult": 3, "unit": 1, "comult": 3, "counit": 1, "phi": 3, "phi_inv": 3,
                      "antipode": 2, "antipode_inv": 2, "alpha": 1, "beta": 1}
_JSON_OPTIONAL = ("phi_inv", "antipode_inv")


def json_dim(obj) -> int:
    """The "dim" of a JSON object: an integer >= 1, and not a float, string or bool."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if "dim" not in obj:
        raise ValueError("missing key 'dim'")
    n = obj["dim"]
    if type(n) is not int or n < 1:
        raise ValueError(f"dim must be an integer >= 1, got {n!r}")
    return n


def json_name(obj) -> str:
    """obj["name"], "" when absent, once it is a string."""
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    return name


def json_list(obj, key: str, n: int) -> list:
    """obj[key], once it is a list of n entries."""
    flat = obj.get(key)
    if not isinstance(flat, list) or len(flat) != n:
        raise ValueError(f"{key} must be a list of {n} entries")
    return flat


def json_rats(obj, key: str, n: int) -> list:
    """obj[key] as a list of n exact rationals; a bad entry names the field."""
    try:
        return [rat(c) for c in json_list(obj, key, n)]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _json_dim(obj) -> int:
    """The dimension of an algebra file, once every array length matches it."""
    n = json_dim(obj)
    for key, power in _JSON_ARRAY_POWERS.items():
        if obj.get(key) is not None or key not in _JSON_OPTIONAL:
            json_list(obj, key, n ** power)
    return n


def algebra_from_json(text: str) -> QuasiHopfAlgebra:
    obj = json.loads(text)
    try:
        n = _json_dim(obj)
        name, basis = json_name(obj), obj.get("basis")
        if not (basis is None or isinstance(basis, list) and all(type(b) is str for b in basis)):
            raise ValueError(f"basis must be a list of strings, got {basis!r}")

        def rats(key):
            return json_rats(obj, key, n ** _JSON_ARRAY_POWERS[key])

        def vec1(key):
            return {i: c for i, c in enumerate(rats(key)) if c}

        def elem3(key):
            return None if obj.get(key) is None else TensorElement.from_flat(n, 3, rats(key))

        mult = [[dict() for _ in range(n)] for _ in range(n)]
        for (i, j, k), c in elem3("mult").coeffs.items():
            mult[i][j][k] = c
        comult = [dict() for _ in range(n)]
        for (i, j, k), c in elem3("comult").coeffs.items():
            comult[i][j, k] = c

        def mat(key):
            return None if obj.get(key) is None else Matrix.from_flat(n, n, rats(key))

        return QuasiHopfAlgebra(
            dim=n, basis=basis, mult=mult, unit=vec1("unit"), comult=comult,
            counit=rats("counit"), phi=elem3("phi"), phi_inv=elem3("phi_inv"),
            antipode=mat("antipode"), antipode_inv=mat("antipode_inv"),
            alpha=vec1("alpha"), beta=vec1("beta"), name=name)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed algebra file: {exc}") from exc
