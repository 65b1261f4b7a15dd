"""Objects of the centre of the module category, stored by coaction blocks.

A centre object is a module together with a natural family of braidings
against every object.  Because the regular module generates the category,
the whole family is pinned down by its value on the regular module at the
unit, i.e. by a coaction d: M -> H (x) M; the braiding against any module is
reconstructed from d, and the centre axioms (counit normalization, <-
linearity, invertibility, hexagon, naturality) are *checked*, not assumed:
the usual quasi-Yetter-Drinfeld axiom list never appears as input.

d is stored as its n H-leg blocks B_i = (e^i (x) id) . d, the action of H^*
in the double D(H); only _h_leg_blocks and qhio know its stacked layout.

The centre morphisms are the module maps that intertwine the coactions:
center_pairs, the actions plus coaction_pairs (one pair per H-leg block), which
the hom solver and every coaction check read (see repcat.intertwines).

Braiding orientation: beta_{M,X}: M (x) X -> X (x) M, the centre object
crosses over.  Its inverse braiding_inv(m, x): X (x) M -> M (x) X sends
u (x) v to sum_i G_i v (x) (e_i |> u), where one solve at C gives
gamma(v) = beta_{M,C}^{-1}(1 (x) v) = sum_i G_i v (x) e_i.  It needs no runtime
check: (1) the coaction formula gives beta_{M,X} . (id (x) f_u) =
(f_u (x) id) . beta_{M,C} for f_u = (a |-> a |> u), assuming nothing; (2) so
beta_{M,X} . braiding_inv(m, x) = id on X (x) M; (3) a square right inverse
is two-sided.  A singular beta_{M,C} raises LinAlgError from the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, left_divide, rank
from .qha import Frozen, QuasiHopfAlgebra, TensorElement, elem_action_matrix, fused_family
from .report import Report
from .repcat import (HLinearMap, HModule, associator, associator_inv, hom_space, identity_map,
                     intertwiners, intertwines, regular_module, tensor, unit_module)


@dataclass(eq=False)
class CenterObject(Frozen):
    """A module plus the coaction encoding its braiding against everything,
    as its n H-leg blocks: block i sends v to the M-leg of the e_i-part of
    delta(v).

    Immutable; its memo holds the validation report, the H-leg blocks of the
    inverse counterpart (see braiding_inv) and the fused family of
    tensor_coaction_blocks."""

    base: HModule
    blocks: tuple  # n matrices d x d, column j = image of basis vector j
    label: str = ""

    def __post_init__(self):
        n, d = self.base.h.dim, self.base.dim
        self.blocks = tuple(self.blocks)
        if len(self.blocks) != n or any(b.rows != d or b.cols != d for b in self.blocks):
            raise ValueError(f"coaction must be {n} blocks of {d}x{d}")
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
        self.validation().require(f"centre validation failed for {self.label or 'object'}")
        return self

    def __repr__(self):
        return f"CenterObject({self.label or self.base.label or '?'}, dim={self.dim})"


def braiding(m: CenterObject, x: HModule) -> HLinearMap:
    """beta_{m,x}: m (x) x -> x (x) m, reconstructed from the coaction.

    On a vector v with coaction sum h_i (x) v_i the braiding sends
    v (x) u to sum (h_i |> u) (x) v_i; naturality against maps out of the
    regular module forces exactly this formula.
    """
    return HLinearMap(tensor(m.base, x), tensor(x, m.base),
                      _crossing(m.h, [x, list(m.blocks)], x.dim, m.dim))


def braiding_inv(m: CenterObject, x: HModule) -> HLinearMap:
    """beta_{m,x}^{-1}: x (x) m -> m (x) x from the blocks G_i of gamma (see
    the module docstring for the formula and why it is two-sided)."""
    return HLinearMap(tensor(x, m.base), tensor(m.base, x),
                      _crossing(m.h, [_inverse_blocks(m), x], m.dim, x.dim))


def _crossing(h: QuasiHopfAlgebra, slots: list, p: int, q: int) -> Matrix:
    """sum_i F_i (x) G_i for the two slots' families on P (x) Q (dimensions p
    and q), its source reordered to Q (x) P."""
    pairing = TensorElement._of(h.dim, 2, {(i, i): 1 for i in range(h.dim)})
    return elem_action_matrix(pairing, slots).select(
        [a * q + b for b in range(q) for a in range(p)])


def _h_leg_blocks(mat: Matrix, n: int, strided: bool = False) -> list[Matrix]:
    """mat's rows split by their H leg into n blocks of d = rows / n rows:
    block i is rows i d .. i d + d - 1 (the H leg slowest), or, when strided,
    rows i, i + n, i + 2 n, ... (the H leg fastest).  One pass over the
    integer columns, no transpose and no copy of mat beside the blocks."""
    d = mat.rows // n
    step = n if strided else d
    den, icols = mat._int_form()
    out = [[{} for _ in icols] for _ in range(n)]
    for j, col in enumerate(icols):
        dst = [cols[j] for cols in out]
        for r, x in col.items():
            q, rem = divmod(r, step)
            if strided:
                dst[rem][q] = x
            else:
                dst[q][rem] = x
    return [Matrix._of(d, mat.cols, den, cols) for cols in out]


def _inverse_blocks(m: CenterObject) -> list[Matrix]:
    """gamma = beta_{m,C}^{-1}(1 (x) -): M -> M (x) C split by its H leg, so
    that gamma(v) = sum_i G_i v (x) e_i; one solve on the d unit columns,
    built once per object, in its memo."""
    def build():
        h, d = m.h, m.dim
        ones = h.structure().u.kron(Matrix.identity(d))  # v |-> 1 (x) v
        gamma = left_divide(braiding(m, regular_module(h)).matrix, ones)
        return _h_leg_blocks(gamma, h.dim, strided=True)
    return m.memo("inverse_blocks", build)


def validate_center(m: CenterObject) -> Report:
    """Counit normalization, linearity, invertibility, hexagon, naturality."""
    h = m.h
    rep = Report(title=f"center[{m.label or m.base.label or '?'}]")
    rep.add("base_module", m.base.validate().ok)

    # (eps x id) . coaction = sum_i eps(e_i) B_i = id
    eps = TensorElement._of(h.dim, 1, {(i,): c for i, c in enumerate(h.counit) if c})
    rep.add("counit_normalization", elem_action_matrix(eps, [list(m.blocks)]).is_identity())

    c_mod = regular_module(h)
    b = braiding(m, c_mod)
    rep.add("braiding_h_linear", b.is_h_linear())
    rep.add("braiding_invertible", rank(b.matrix) == b.matrix.rows)

    rep.add("unit_braiding_trivial",
            braiding(m, unit_module(h)).matrix.is_identity())

    # hexagon against (C, C), both braidings past C being b
    cc = tensor(c_mod, c_mod)
    bcc = braiding(m, cc)
    composite = associator_inv(m.base, c_mod, c_mod) \
        .then(b.tensor(identity_map(c_mod))) \
        .then(associator(c_mod, m.base, c_mod)) \
        .then(identity_map(c_mod).tensor(b)) \
        .then(associator_inv(c_mod, c_mod, m.base))
    rep.add("hexagon_on_CC", composite.matrix == bcc.matrix)

    idm = Matrix.identity(m.dim)
    rep.add("naturality_hom_CC", intertwines(
        b.matrix, [(idm.kron(f.matrix), f.matrix.kron(idm)) for f in hom_space(c_mod, c_mod)]))

    rep.add("naturality_hom_C_CC", all(
        f.matrix.kron(idm) * b.matrix == bcc.matrix * idm.kron(f.matrix)
        for f in hom_space(c_mod, cc)))
    return rep


def tensor_center(m: CenterObject, n: CenterObject) -> CenterObject:
    """Tensor product in the centre: braidings composed through the hexagon
    applied to the unit embedding v -> v (x) 1 only (validated by whoever
    requires it, see CenterObject.require_valid).

    Each of the five hexagon maps on (M (x) N) (x) C is built just before it
    is applied to the thin coaction and dropped after, so at most one of
    them is alive at a time.  This route is the oracle of
    tensor_coaction_blocks, and it stays the route for small operands: on
    the A (x) A of the tensor square of drinfeld_h2 (dimension 16) it takes
    about 0.003 s, where the block formula takes about 0.1 s to build its
    seven-leg element (16384 terms) once and 0.05 s for the blocks."""
    if m.h is not n.h:
        raise ValueError("centre objects over different algebras")
    h = m.h
    base = tensor(m.base, n.base)
    c_mod = regular_module(h)
    coaction = Matrix.identity(base.dim).kron(h.structure().u)
    coaction = coaction.then(associator(m.base, n.base, c_mod).matrix)
    coaction = coaction.then(identity_map(m.base).tensor(braiding(n, c_mod)).matrix)
    coaction = coaction.then(associator_inv(m.base, c_mod, n.base).matrix)
    coaction = coaction.then(braiding(m, c_mod).tensor(identity_map(n.base)).matrix)
    coaction = coaction.then(associator(c_mod, m.base, n.base).matrix)
    return CenterObject(base, _h_leg_blocks(coaction, h.dim),
                        label=f"({m.label or '?'})*({n.label or '?'})")


def tensor_coaction_blocks(m: CenterObject, n: CenterObject):
    """The H-leg blocks of the coaction of tensor_center(m, n), one per basis
    element of H, each built only when the iteration reaches it; the
    coaction itself is never built.

    The tensor product of quasi-Hopf Yetter-Drinfeld modules (Bulacu,
    Caenepeel and Panaite, Comm. Algebra 34 (2006)): with
    Phi = X1 (x) X2 (x) X3 = Y1 (x) Y2 (x) Y3, Phi^-1 = x1 (x) x2 (x) x3 and
    B_j the blocks of m and of n,

        block_k = sum [e_k-coefficient of Y1 e_j x2 e_i X3]
                  rho_M(Y2) B^M_j rho_M(x1 X1) (x) rho_N(Y3 x3) B^N_i rho_N(X2),

    the hexagon composite of tensor_center unrolled.  Block k is the action
    of the seven-leg element of _tensor_coaction_element with its first leg
    fixed at k, through the fused families rho(e_a) B_j rho(e_b) of m and n
    (_fused_family): Kronecker products of d x d blocks, no map on
    (M (x) N) (x) C.  tensor_center is the oracle: the tests compare the two
    with ==."""
    if m.h is not n.h:
        raise ValueError("centre objects over different algebras")
    h = m.h
    return _blocks_through(h.memo("tensor_coaction_element",
                                  lambda: _tensor_coaction_element(h)), m, n)


def _tensor_coaction_element(h: QuasiHopfAlgebra) -> TensorElement:
    """Y1 e_j x2 e_i X3 (x) Y2 (x) e_j (x) x1 X1 (x) Y3 x3 (x) e_i (x) X2, summed
    over i and j: the coefficients of tensor_coaction_blocks' formula, leg 1
    the H leg of the coaction, legs 2-4 and 5-7 the families of m and n."""
    pairing = TensorElement._of(h.dim, 2, {(i, i): 1 for i in range(h.dim)})
    return h.mul_chain([h.spread(h.phi, [(1,), (2,), (5,)], 7),
                        h.spread(pairing, [(1,), (3,)], 7),
                        h.spread(h.phi_inv, [(4,), (1,), (5,)], 7),
                        h.spread(pairing, [(1,), (6,)], 7),
                        h.spread(h.phi, [(4,), (7,), (1,)], 7)])


def _blocks_through(elem: TensorElement, m: CenterObject, n: CenterObject):
    """For each k, the action on M (x) N of elem's terms with leg 1 at k,
    legs 2-4 through m's fused family and legs 5-7 through n's."""
    h = m.h
    slices = [{} for _ in range(h.dim)]
    for idx, c in elem.coeffs.items():
        slices[idx[0]][idx[1:]] = c
    fams = [_fused_family(m, {idx[1:4] for idx in elem.coeffs}),
            _fused_family(n, {idx[4:] for idx in elem.coeffs})]
    for terms in slices:
        yield elem_action_matrix(TensorElement._of(h.dim, 6, terms), fams)


def _fused_family(m: CenterObject, used) -> list:
    """F[a][j][b] = rho(e_a) B_j rho(e_b) at the (a, j, b) in used, each built
    once per object and kept in its memo for every later pair (qha.fused_family)."""
    act, blocks = m.base.action, m.blocks
    return fused_family(m.h.dim, 3, used, lambda a, j, b: act[a] * blocks[j] * act[b],
                        Matrix.zero(m.dim, m.dim), m.memo("fused_family", dict))


def coaction_pairs(m: CenterObject, n: CenterObject) -> list[tuple[Matrix, Matrix]]:
    """The pairs (see repcat.intertwines) of (id_H (x) F) . delta_m = delta_n . F,
    one H-leg block at a time."""
    return list(zip(m.blocks, n.blocks))


def center_pairs(m: CenterObject, n: CenterObject) -> list[tuple[Matrix, Matrix]]:
    """The pairs of the centre morphisms m -> n: actions and coactions."""
    return [*zip(m.base.action, n.base.action), *coaction_pairs(m, n)]


def center_hom_space(m: CenterObject, n: CenterObject) -> list[HLinearMap]:
    """Basis of maps that are module maps and intertwine the coactions."""
    return intertwiners(m.base, n.base, center_pairs(m, n))
