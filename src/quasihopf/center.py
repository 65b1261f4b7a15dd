"""Objects of the centre of the module category, stored by coaction.

A centre object is a module together with a natural family of braidings
against every object.  Because the regular module generates the category,
the whole family is pinned down by its value on the regular module at the
unit, i.e. by a coaction d: M -> H (x) M; the braiding against any module is
reconstructed from d, and the centre axioms (counit normalization, <-
linearity, invertibility, hexagon, naturality) are *checked*, not assumed:
the usual quasi-Yetter-Drinfeld axiom list never appears as input.

The centre morphisms are the module maps that intertwine the coactions:
center_pairs, the actions plus coaction_pairs (one pair per H-leg block), which
the hom solver and every coaction check read (see repcat.intertwines).

Braiding orientation: beta_{M,X}: M (x) X -> X (x) M, the centre object
crosses over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, rank
from .qha import Frozen, QuasiHopfAlgebra, TensorElement
from .report import Report, VerificationFailure
from .repcat import (HLinearMap, HModule, associator, associator_inv, elem_action_matrix,
                     hom_space, identity_map, intertwiners, intertwines, regular_module,
                     tensor, unit_module)


@dataclass(eq=False)
class CenterObject(Frozen):
    """A module plus the coaction encoding its braiding against everything.

    Immutable; its memo holds the validation report and the coaction's
    H-leg blocks."""

    base: HModule
    coaction: Matrix  # (n*d) x d, column j = image of basis vector j
    label: str = ""

    def __post_init__(self):
        n, d = self.base.h.dim, self.base.dim
        if self.coaction.rows != n * d or self.coaction.cols != d:
            raise ValueError(
                f"coaction must be {n * d}x{d}, got {self.coaction.rows}x{self.coaction.cols}")
        self._memo = {}

    @property
    def h(self) -> QuasiHopfAlgebra:
        return self.base.h

    @property
    def dim(self) -> int:
        return self.base.dim

    def validation(self) -> Report:
        """validate_center(self), run once per object."""
        return self.memo("validation", lambda: validate_center(self))

    def require_valid(self) -> "CenterObject":
        rep = self.validation()
        if not rep.ok:
            raise VerificationFailure(
                f"centre validation failed for {self.label or 'object'}", rep)
        return self

    def __repr__(self):
        return f"CenterObject({self.label or self.base.label or '?'}, dim={self.dim})"


def braiding(m: CenterObject, x: HModule) -> HLinearMap:
    """beta_{m,x}: m (x) x -> x (x) m, reconstructed from the coaction.

    On a vector v with coaction sum h_i (x) v_i the braiding sends
    v (x) u to sum (h_i |> u) (x) v_i; naturality against maps out of the
    regular module forces exactly this formula.
    """
    d, dx, n = m.dim, x.dim, m.h.dim
    # sum_i (h_i |> -) (x) delta_i on x (x) m, then reorder the source to m (x) x
    pairing = TensorElement(n, 2, {(i, i): 1 for i in range(n)})
    cols = elem_action_matrix(pairing, [x, _coaction_blocks(m)]).columns()
    return HLinearMap(tensor(m.base, x), tensor(x, m.base), Matrix(
        dx * d, d * dx, [cols[u * d + v] for v in range(d) for u in range(dx)]))


def _coaction_blocks(m: CenterObject) -> list[Matrix]:
    """The coaction split by its H leg: block i sends v to the M-leg of the
    h_i-part of delta(v).  Built once per object, in its memo."""
    def build():
        d = m.dim
        blocks = [[{} for _ in range(d)] for _ in range(m.h.dim)]
        for j, col in enumerate(m.coaction.columns()):
            for flat, c in col.items():
                i, v = divmod(flat, d)
                blocks[i][j][v] = c
        return [Matrix(d, d, b) for b in blocks]
    return m.memo("coaction_blocks", build)


def trivial_center(x: HModule) -> CenterObject:
    """The coaction v -> 1 (x) v (validates only when the flip is central)."""
    h = x.h
    cols = []
    for j in range(x.dim):
        col = {}
        for i, c in h.unit.items():
            col[i * x.dim + j] = c
        cols.append(col)
    return CenterObject(x, Matrix(h.dim * x.dim, x.dim, cols),
                        label=f"triv({x.label or '?'})")


def validate_center(m: CenterObject) -> Report:
    """Counit normalization, linearity, invertibility, hexagon, naturality."""
    h = m.h
    rep = Report(title=f"center[{m.label or m.base.label or '?'}]")
    rep.add("base_module", m.base.validate().ok)

    # (eps x id) . coaction = id
    eps = Matrix.from_rows([h.counit]).kron(Matrix.identity(m.dim))
    rep.add("counit_normalization", (eps * m.coaction).is_identity())

    c_mod = regular_module(h)
    b = braiding(m, c_mod)
    rep.add("braiding_h_linear", b.is_h_linear())
    rep.add("braiding_invertible", rank(b.matrix) == b.matrix.rows)

    rep.add("unit_braiding_trivial",
            braiding(m, unit_module(h)).matrix.is_identity())

    # hexagon against (C, C)
    x = y = c_mod
    composite = associator_inv(m.base, x, y) \
        .then(braiding(m, x).tensor(identity_map(y))) \
        .then(associator(x, m.base, y)) \
        .then(identity_map(x).tensor(braiding(m, y))) \
        .then(associator_inv(x, y, m.base))
    rep.add("hexagon_on_CC", composite.matrix == braiding(m, tensor(x, y)).matrix)

    idm = Matrix.identity(m.dim)
    rep.add("naturality_hom_CC", intertwines(
        b.matrix, [(idm.kron(f.matrix), f.matrix.kron(idm)) for f in hom_space(c_mod, c_mod)]))

    cc = tensor(c_mod, c_mod)
    bcc = braiding(m, cc)
    ok = True
    for f in hom_space(c_mod, cc):
        lhs = b.then(f.tensor(identity_map(m.base)))
        rhs = identity_map(m.base).tensor(f).then(bcc)
        if lhs.matrix != rhs.matrix:
            ok = False
    rep.add("naturality_hom_C_CC", ok)
    return rep


def tensor_center(m: CenterObject, n: CenterObject) -> CenterObject:
    """Tensor product in the centre: braidings composed through the hexagon
    applied to the unit embedding v -> v (x) 1 only (validated by whoever
    requires it, see CenterObject.require_valid)."""
    if m.h is not n.h:
        raise ValueError("centre objects over different algebras")
    h = m.h
    base = tensor(m.base, n.base)
    c_mod = regular_module(h)
    coaction = Matrix.identity(base.dim).kron(Matrix(h.dim, 1, [dict(h.unit)]))
    for f in (associator(m.base, n.base, c_mod), identity_map(m.base).tensor(braiding(n, c_mod)),
              associator_inv(m.base, c_mod, n.base), braiding(m, c_mod).tensor(identity_map(n.base)),
              associator(c_mod, m.base, n.base)):
        coaction = coaction.then(f.matrix)
    return CenterObject(base, coaction, label=f"({m.label or '?'})*({n.label or '?'})")


def coaction_pairs(m: CenterObject, n: CenterObject) -> list[tuple[Matrix, Matrix]]:
    """The pairs (see repcat.intertwines) of (id_H (x) F) . delta_m = delta_n . F,
    one H-leg block at a time."""
    return list(zip(_coaction_blocks(m), _coaction_blocks(n)))


def center_pairs(m: CenterObject, n: CenterObject) -> list[tuple[Matrix, Matrix]]:
    """The pairs of the centre morphisms m -> n: actions and coactions."""
    return [*zip(m.base.action, n.base.action), *coaction_pairs(m, n)]


def center_hom_space(m: CenterObject, n: CenterObject) -> list[HLinearMap]:
    """Basis of maps that are module maps and intertwine the coactions."""
    return intertwiners(m.base, n.base, center_pairs(m, n))
