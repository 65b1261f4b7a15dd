"""Constructions that only the tests use, the per-basis-tuple axiom check
that the tests compare the matrix identities of ``verify_axioms`` with, the
plain product and Kronecker loops that ``Matrix.then``, ``Matrix.kron`` and
``elem_action_matrix`` are compared with, the term-by-term product that
``QuasiHopfAlgebra.mul`` is compared with, the per-vector products that the
operators of ``QuasiHopfAlgebra`` (L_c, R_c, the sandwiches, the adjoint
action, the iterated coproduct) are compared with, the padded-map
construction of the centre tensor and of the coequalizer over the algebra
that ``tensor_over_A`` are compared with, the elimination of every relation
of that coequalizer that its relations at generators are compared with, the full
braiding of heart(M) past any X that ``extract_center_structure`` is
compared with, the stacked view of a centre object's coaction blocks, a
traced memory peak and the traced peaks of the stages of a computation,
and the Hypothesis strategies for their operands."""

import tracemalloc
from fractions import Fraction

from hypothesis import strategies as st

from quasihopf.algebra_a import _end_coordinates, diamond, heart_base
from quasihopf.center import CenterObject, _h_leg_blocks, braiding
from quasihopf.linalg import (ONE, ZERO, LinAlgError, Matrix, cokernel_of_columns, descend, rat,
                              rat_str, vec_add_scaled)
from quasihopf.qhio import center_to_obj
from quasihopf.qha import TensorElement, beta_contraction
from quasihopf.mod_a import AModule, QuotientPresentation, _coequalizer_relations, left_action
from quasihopf.repcat import (HLinearMap, HModule, associator, associator_inv, elem_action_matrix,
                              identity_map, regular_module, tensor, unit_module)
from quasihopf.report import Report, VerificationFailure


def from_cols(rows: int, columns) -> Matrix:
    """The matrix with the given columns: dicts {row: entry} or lists."""
    data = [{i: rat(x) for i, x in (c.items() if isinstance(c, dict) else enumerate(c))}
            for c in columns]
    return Matrix(rows, len(data), data)


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


def naive_kron(a: Matrix, b: Matrix) -> Matrix:
    """a kron b by the loop over every column pair, identities included: the
    oracle of ``Matrix.kron``."""
    orows, bcols = b.rows, b._icols
    data = []
    for c in a._icols:
        shifted = [(i * orows, x) for i, x in c.items()]
        for d in bcols:
            col = {}
            for base, x in shifted:
                for k, y in d.items():
                    col[base + k] = x * y
            data.append(col)
    return Matrix._of(a.rows * orows, a.cols * b.cols, a._den * b._den, data)


def naive_product(f: Matrix, g: Matrix) -> Matrix:
    """f then g by the integer product loop that copies a unit-coefficient
    column and multiplies through an identity: the oracle of ``Matrix.then``."""
    if g.cols != f.rows:
        raise LinAlgError(f"cannot compose {f.rows}x{f.cols} then {g.rows}x{g.cols}")
    out = []
    for c in f._icols:
        if len(c) == 1:
            (k, x), = c.items()
            col = g._icols[k]
            out.append(dict(col) if x == 1 else {i: x * y for i, y in col.items()})
            continue
        acc: dict[int, int] = {}
        get = acc.get
        for k, x in c.items():
            for i, y in g._icols[k].items():
                acc[i] = get(i, 0) + x * y
        out.append({i: w for i, w in acc.items() if w} if 0 in acc.values() else acc)
    return Matrix._of(g.rows, f.cols, g._den * f._den, out)


def naive_elem_action(t: TensorElement, slots) -> Matrix:
    """sum c_I F_1[I_1] kron ... kron F_k[I_k] over the terms of t, one
    ``naive_kron`` chain per term, whatever the coefficient or the operators:
    the oracle of ``elem_action_matrix`` on one-leg slots (modules or lists)."""
    fams = [s if isinstance(s, list) else s.action for s in slots]
    rows = cols = 1
    for fam in fams:
        rows, cols = rows * fam[0].rows, cols * fam[0].cols
    out = Matrix.zero(rows, cols)
    for idx, c in t.coeffs.items():
        term = Matrix.identity(1)
        for fam, i in zip(fams, idx):
            term = naive_kron(term, fam[i])
        out = out + c * term
    return out


def naive_mul(h, s: TensorElement, t: TensorElement) -> TensorElement:
    """s t in the tensor power as the sum over term pairs of
    s_I t_J e_{I_1}e_{J_1} (x) ... (x) e_{I_k}e_{J_k}, in Fractions: the
    oracle of ``QuasiHopfAlgebra.mul``."""
    out = {}
    for I, c in s.coeffs.items():
        for J, d in t.coeffs.items():
            terms = {(): Fraction(c) * Fraction(d)}
            for i, j in zip(I, J):
                terms = {idx + (k,): x * Fraction(y)
                         for idx, x in terms.items() for k, y in h.mult[i][j].items()}
            for idx, x in terms.items():
                out[idx] = out.get(idx, Fraction(0)) + x
    return TensorElement(h.dim, s.legs, out)


# -- the per-vector element language: sparse dicts {basis index: coefficient} --

def mul_vec(h, u: dict, v: dict) -> dict:
    """Product of two sparse 1-leg coefficient vectors."""
    out: dict[int, Fraction] = {}
    for i, c in u.items():
        row = h.mult[i]
        for j, d in v.items():
            vec_add_scaled(out, row[j], c * d)
    return out


def prod_chain(h, vecs) -> dict:
    """Product of a list of sparse vectors, left to right."""
    acc = dict(h.unit)
    for v in vecs:
        acc = mul_vec(h, acc, v)
    return acc


def s_vec(h, v: dict) -> dict:
    return h.antipode.apply(v)


def counit_of(h, v: dict) -> Fraction:
    return sum((h.counit[i] * c for i, c in v.items()), ZERO)


def vec_of(t: TensorElement) -> dict:
    """1-leg element as a sparse column over basis indices."""
    if t.legs != 1:
        raise ValueError("expected a 1-leg element")
    return {idx[0]: c for idx, c in t.coeffs.items()}


def alpha_vec(h) -> dict:
    return vec_of(h.alpha)


def beta_vec(h) -> dict:
    return vec_of(h.beta)


def naive_icomult(h, i, m) -> dict:
    """The left-nested iterated coproduct of e_i over m legs, by the
    definition: Delta applied to the first leg m - 1 times."""
    terms = {(i,): Fraction(1)}
    for _ in range(m - 1):
        nxt = {}
        for idx, c in terms.items():
            for (j, k), d in h.comult[idx[0]].items():
                key = (j, k) + idx[1:]
                nxt[key] = nxt.get(key, 0) + c * d
        terms = nxt
    return {idx: x for idx, x in terms.items() if x}


def naive_left_mult(h, v: dict) -> Matrix:
    """L_v column by column: column j is v e_j."""
    return Matrix(h.dim, h.dim, [mul_vec(h, v, {j: ONE}) for j in range(h.dim)])


def naive_right_mult(h, v: dict) -> Matrix:
    """R_v column by column: column j is e_j v."""
    return Matrix(h.dim, h.dim, [mul_vec(h, {j: ONE}, v) for j in range(h.dim)])


def naive_sandwich(h, i: int, j: int) -> Matrix:
    """a |-> e_i a e_j column by column."""
    return Matrix(h.dim, h.dim, [mul_vec(h, {i: ONE}, h.mult[a][j]) for a in range(h.dim)])


def _coproduct_sum(h, i: int, chain) -> dict:
    """sum d chain(j, k) over the terms d e_j (x) e_k of Delta(e_i)."""
    out: dict = {}
    for (j, k), d in h.comult[i].items():
        vec_add_scaled(out, prod_chain(h, chain(j, k)), d)
    return out


def naive_adjoint_sandwich(h, c: dict) -> Matrix:
    """x |-> x_(1) c S(x_(2)), one product chain per coproduct term."""
    return Matrix(h.dim, h.dim, [
        _coproduct_sum(h, i, lambda j, k: [{j: ONE}, c, s_vec(h, {k: ONE})])
        for i in range(h.dim)])


def naive_antipode_sandwich(h, c: dict) -> Matrix:
    """x |-> S(x_(1)) c x_(2), one product chain per coproduct term."""
    return Matrix(h.dim, h.dim, [
        _coproduct_sum(h, i, lambda j, k: [s_vec(h, {j: ONE}), c, {k: ONE}])
        for i in range(h.dim)])


def naive_adjoint_action(h, v: dict) -> Matrix:
    """a |-> v_(1) a S(v_(2)): column a sums v_i e_j a S(e_k) over the terms
    of v and of Delta(e_i)."""
    cols = []
    for a in range(h.dim):
        col: dict = {}
        for i, x in v.items():
            vec_add_scaled(col, _coproduct_sum(
                h, i, lambda j, k: [{j: ONE}, {a: ONE}, s_vec(h, {k: ONE})]), x)
        cols.append(col)
    return Matrix(h.dim, h.dim, cols)


def elem(h, legs: int, coeffs) -> TensorElement:
    """A ``legs``-leg element of h from an element, a dict or a flat list."""
    if isinstance(coeffs, TensorElement):
        return coeffs
    if isinstance(coeffs, dict):
        return TensorElement(h.dim, legs, coeffs)
    return TensorElement.from_flat(h.dim, legs, coeffs)


def unit_left_elim(m) -> HLinearMap:
    """I (x) m -> m by coefficient extraction (flat spaces coincide)."""
    return HLinearMap(tensor(unit_module(m.h), m), m, Matrix.identity(m.dim))


def unit_right_elim(m) -> HLinearMap:
    return HLinearMap(tensor(m, unit_module(m.h)), m, Matrix.identity(m.dim))


def stacked(m) -> Matrix:
    """The coaction of a centre object as one (n d) x d matrix, its H-leg
    blocks stacked with the H leg slowest: column j is delta(v_j)."""
    return Matrix.hstack([b.transpose() for b in m.blocks]).transpose()


def center_of(base, coaction: Matrix, label: str = "") -> CenterObject:
    """The centre object whose coaction is the stacked (n d) x d matrix."""
    return CenterObject(base, _h_leg_blocks(coaction, base.h.dim), label=label)


def trivial_center(x) -> CenterObject:
    """The coaction v -> 1 (x) v (validates only when the flip is central)."""
    h = x.h
    return center_of(x, Matrix(h.dim, 1, [dict(h.unit)]).kron(Matrix.identity(x.dim)),
                     label=f"triv({x.label or '?'})")


def heart_braiding(h, m, x) -> HLinearMap:
    """The braiding heart(M) (x) X -> X (x) heart(M), defined by requiring
    that crossing then evaluating agrees with evaluating on X (x) T at once:
    the full route for any X, the oracle of ``extract_center_structure``.
    Its adjunct is read through ``_end_coordinates``, which certifies end
    membership, as in ``nat_to_hom`` (without the round trip)."""
    hb = heart_base(h, m)
    c = regular_module(h)
    src = tensor(hb, x)
    fam = elem_action_matrix(h.phi, [x, c, m]) \
        * diamond(h, m, tensor(x, c)).matrix \
        * elem_action_matrix(h.phi, [hb, x, c])
    b = beta_contraction(h)
    adj = fam if b == h.unit_elem(2) else fam * elem_action_matrix(b, [src, c])
    return HLinearMap(src, tensor(x, hb), _end_coordinates(h, x, m, adj))


def amodule_to_obj(m) -> dict:
    """The JSON object of a right A-module: its centre object and mu."""
    out = center_to_obj(m.center)
    out["mu"] = [rat_str(c) for c in m.mu.transpose().to_flat()]
    return out


def left_action_report(m) -> Report:
    """Action law for the induced left action of a right module over the
    algebra, and the bimodule exchange."""
    a, h = m.a, m.a.h
    n = h.dim
    rep = Report(title=f"left_action[{m.label or '?'}]")
    lam = left_action(m).matrix
    lhs = lam * a.product.kron(Matrix.identity(m.dim))
    rhs = lam * Matrix.identity(n).kron(lam) \
        * elem_action_matrix(h.phi, [a.base, a.base, m.base])
    rep.add("left_action_law", lhs == rhs)
    u_col = Matrix(n, 1, [dict(a.unit_vec)])
    rep.add("left_action_unital", (lam * u_col.kron(Matrix.identity(m.dim))).is_identity())
    # (a |> then . b) agrees with (. b then a |>) up to the twist
    lhs = m.mu * lam.kron(Matrix.identity(n))
    rhs = lam * Matrix.identity(n).kron(m.mu) \
        * elem_action_matrix(h.phi, [a.base, m.base, a.base])
    rep.add("bimodule_exchange", lhs == rhs)
    return rep


def naive_tensor_center(m, n):
    """tensor_center with all five hexagon maps built before the first is
    applied: the oracle of ``center.tensor_center``."""
    if m.h is not n.h:
        raise ValueError("centre objects over different algebras")
    h = m.h
    base = tensor(m.base, n.base)
    c_mod = regular_module(h)
    coaction = Matrix.identity(base.dim).kron(h.structure().u)
    for f in (associator(m.base, n.base, c_mod), identity_map(m.base).tensor(braiding(n, c_mod)),
              associator_inv(m.base, c_mod, n.base), braiding(m, c_mod).tensor(identity_map(n.base)),
              associator(c_mod, m.base, n.base)):
        coaction = coaction.then(f.matrix)
    return center_of(base, coaction, label=f"({m.label or '?'})*({n.label or '?'})")


def full_elimination(m, n_mod) -> tuple[Matrix, Matrix]:
    """(projection, section) of M (x) N by every relation of the coequalizer
    over the algebra, all eliminated at once by cokernel_of_columns: the
    oracle of the relations at the generators that ``mod_a.tensor_over_A``
    eliminates."""
    return cokernel_of_columns(m.dim * n_mod.dim, _coequalizer_relations(m, n_mod))


def naive_tensor_over_A(m, n_mod):
    """The coequalizer over the algebra from padded maps (mu_M (x) I_N, the
    Phi^-1 and Phi actions, I_M (x) lambda_N, I_n (x) P, P (x) I_n, S (x) I_n),
    its quotient taken by cokernel_of_columns and descend alone: the oracle
    of ``mod_a.tensor_over_A``."""
    a, h = m.a, m.a.h
    n = h.dim
    label = f"({m.label or '?'})(x)A({n_mod.label or '?'})"
    amb_center = naive_tensor_center(m.center, n_mod.center)
    top = m.mu.kron(Matrix.identity(n_mod.dim)) \
        * elem_action_matrix(h.phi_inv, [m.base, a.base, n_mod.base])
    bottom = Matrix.identity(m.dim).kron(left_action(n_mod).matrix)
    diff = top - bottom                                # M (x) (A (x) N) -> M (x) N
    proj, sec = cokernel_of_columns(diff.rows, diff._int_form()[1])
    id_n = Matrix.identity(n)

    action = [descend(f, proj, sec, proj) for f in amb_center.base.action]
    if any(g is None for g in action):
        raise VerificationFailure(f"relation subspace of {label} is not stable under the action")
    # the coaction descends iff the relation space is a subcomodule
    dq = descend(stacked(amb_center), proj, sec, id_n.kron(proj))
    if dq is None:
        raise VerificationFailure("coaction does not descend to the quotient")
    qcenter = center_of(HModule(h, proj.rows, action, label=label), dq, label=label)

    mu_amb = Matrix.identity(m.dim).kron(n_mod.mu) \
        * elem_action_matrix(h.phi, [m.base, n_mod.base, a.base])
    mu_q = descend(mu_amb, proj.kron(id_n), sec.kron(id_n), proj)
    if mu_q is None:
        raise VerificationFailure("right action does not descend to the quotient")
    return QuotientPresentation(proj, sec, AModule(a, qcenter, mu_q, label=label))


def traced_peak(fn) -> tuple[object, int]:
    """(fn(), the peak of the memory traced while it ran, in bytes)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def stage_peaks(stages, inner=()) -> dict[str, int]:
    """{name: the peak of the memory traced while that stage ran, above what
    was traced as it began, in bytes} for the (name, thunk) pairs of stages,
    run in turn under one tracemalloc session; what a thunk returns is
    dropped before the next one runs.

    inner lists (name, owner, attribute): while the stages run,
    owner.attribute is wrapped into a stage of that name, which records the
    largest peak of its calls and counts in the peaks of the stages around
    it, so that one traced run gives the peaks of a computation's parts."""
    peaks: dict[str, int] = {}
    running: list[list[int]] = []  # [start, high] of each running stage, outermost first

    def fold(peak: int) -> None:
        for stage in running:
            stage[1] = max(stage[1], peak)

    def run(name, thunk):
        fold(tracemalloc.get_traced_memory()[1])  # the peak so far is the outer stages'
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        running.append([start, start])
        try:
            return thunk()
        finally:
            fold(tracemalloc.get_traced_memory()[1])
            start, high = running.pop()  # every fold reached the outer stages too
            peaks[name] = max(peaks.get(name, 0), high - start)

    def wrapped(name, fn):
        return lambda *args, **kwargs: run(name, lambda: fn(*args, **kwargs))

    saved = [(owner, attribute, getattr(owner, attribute)) for _, owner, attribute in inner]
    tracemalloc.start()
    try:
        for (name, _, _), (owner, attribute, fn) in zip(inner, saved):
            setattr(owner, attribute, wrapped(name, fn))
        for name, thunk in stages:
            run(name, thunk)
        return peaks
    finally:
        for owner, attribute, fn in saved:
            setattr(owner, attribute, fn)
        tracemalloc.stop()


def naive_axioms(self) -> Report:
    """The axiom check one basis tuple at a time, the oracle of
    ``verify_axioms``: the same ids in the same order, without witnesses."""
    rep = Report(title=f"axioms[{self.name or 'algebra'}]")
    n = self.dim
    one = self.unit_elem(1)

    ok = True
    for i in range(n):
        e = self.basis_elem(i)
        if self.mul(one, e) != e or self.mul(e, one) != e:
            ok = False
    rep.add("unit", ok)

    ok = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mul_vec(self, mul_vec(self, {i: ONE}, {j: ONE}), {k: ONE})
                rhs = mul_vec(self, {i: ONE}, mul_vec(self, {j: ONE}, {k: ONE}))
                if lhs != rhs:
                    ok = False
    rep.add("associativity", ok)

    delta_unit = self.spread(self.unit_elem(1), [(1, 2)], 2)
    rep.add("comult.unit", delta_unit == self.unit_elem(2))
    ok = True
    for i in range(n):
        for j in range(n):
            prod = mul_vec(self, {i: ONE}, {j: ONE})
            lhs = TensorElement(self.dim, 2, {})
            for k, c in prod.items():
                lhs = lhs + c * self.icomult(k, 2)
            rhs = self.mul(self.icomult(i, 2), self.icomult(j, 2))
            if lhs != rhs:
                ok = False
    rep.add("comult.morphism", ok)

    rep.add("counit.unit", counit_of(self, self.unit) == ONE)
    ok = True
    for i in range(n):
        for j in range(n):
            if counit_of(self, mul_vec(self, {i: ONE}, {j: ONE})) \
                    != self.counit[i] * self.counit[j]:
                ok = False
    rep.add("counit.morphism", ok)

    # (B3): (eps x id) o delta = id = (id x eps) o delta
    ok = True
    for i in range(n):
        d = self.icomult(i, 2)
        if self.counit_legs(d, [1]) != self.basis_elem(i) or \
           self.counit_legs(d, [2]) != self.basis_elem(i):
            ok = False
    rep.add("B3.counit_laws", ok)

    rep.add("phi.invertible",
            self.mul(self.phi, self.phi_inv) == self.unit_elem(3)
            and self.mul(self.phi_inv, self.phi) == self.unit_elem(3))

    # (B1): (id x delta)(delta a) = phi . (delta x id)(delta a) . phi^-1
    ok = True
    for i in range(n):
        left_nested = self.spread(self.basis_elem(i), [(1, 2, 3)], 3)
        # right-nested iterated coproduct: delta on the second leg
        right_nested = self.spread(self.icomult(i, 2),
                                   [(1,), (2, 3)], 3)
        if right_nested != self.mul_chain([self.phi, left_nested, self.phi_inv]):
            ok = False
    rep.add("B1.quasi_coassociativity", ok)

    # (B2) pentagon, as an exact identity in the 4th tensor power
    lhs = self.mul(self.spread(self.phi, [(1,), (2,), (3, 4)], 4),
                   self.spread(self.phi, [(1, 2), (3,), (4,)], 4))
    rhs = self.mul_chain([
        self.spread(self.phi, [(2,), (3,), (4,)], 4),
        self.spread(self.phi, [(1,), (2, 3), (4,)], 4),
        self.spread(self.phi, [(1,), (2,), (3,)], 4),
    ])
    rep.add("B2.pentagon", lhs == rhs)

    rep.add("B4.counit_phi",
            self.counit_legs(self.phi, [2]) == self.unit_elem(2))

    ok = True
    for i in range(n):
        for j in range(n):
            lhs = s_vec(self, mul_vec(self, {i: ONE}, {j: ONE}))
            rhs = mul_vec(self, s_vec(self, {j: ONE}), s_vec(self, {i: ONE}))
            if lhs != rhs:
                ok = False
    rep.add("antipode.antihom", ok)
    rep.add("antipode.unit", s_vec(self, self.unit) == self.unit)
    rep.add("antipode.invertible",
            (self.antipode * self.antipode_inv).is_identity()
            and (self.antipode_inv * self.antipode).is_identity())

    # (H1): S(a_(1)) alpha a_(2) = eps(a) alpha ; (H2) dually with beta
    ok1 = ok2 = True
    for i in range(n):
        h1: dict[int, Fraction] = {}
        h2: dict[int, Fraction] = {}
        for (j, k), d in self.comult[i].items():
            vec_add_scaled(h1, prod_chain(self, [s_vec(self, {j: ONE}), alpha_vec(self),
                                                 {k: ONE}]), d)
            vec_add_scaled(h2, prod_chain(self, [{j: ONE}, beta_vec(self),
                                                 s_vec(self, {k: ONE})]), d)
        if h1 != {k: self.counit[i] * c for k, c in alpha_vec(self).items()
                  if self.counit[i] * c}:
            ok1 = False
        if h2 != {k: self.counit[i] * c for k, c in beta_vec(self).items() if self.counit[i] * c}:
            ok2 = False
    rep.add("H1.alpha_law", ok1)
    rep.add("H2.beta_law", ok2)

    # (H3): Phi^1 beta S(Phi^2) alpha Phi^3 = 1
    acc: dict[int, Fraction] = {}
    for (i, j, k), c in self.phi.coeffs.items():
        vec_add_scaled(acc, prod_chain(
            self, [{i: ONE}, beta_vec(self), s_vec(self, {j: ONE}), alpha_vec(self), {k: ONE}]), c)
    rep.add("H3.zigzag", acc == self.unit)

    # (H4): S(phi^1) alpha phi^2 beta S(phi^3) = 1
    acc = {}
    for (i, j, k), c in self.phi_inv.coeffs.items():
        vec_add_scaled(acc, prod_chain(self, [s_vec(self, {i: ONE}), alpha_vec(self), {j: ONE},
                                              beta_vec(self), s_vec(self, {k: ONE})]), c)
    rep.add("H4.zigzag", acc == self.unit)
    return rep
