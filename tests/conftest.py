import pytest

from quasihopf import builtin
from quasihopf.qha import QuasiHopfAlgebra, TensorElement, _s_alpha

_CACHE = {}

TWISTED = "sweedler_h4_twist"
DENSE_TWIST = "sweedler_h4_dense_twist"
SQUARE = "drinfeld_h2_square"


def twist(h, f):
    """The Drinfeld twist of h by an invertible, counit-normalised f in H (x) H.

    Delta_F = F Delta F^-1, Phi_F = (1 x F)(id x Delta)(F) Phi (Delta x id)(F^-1)(F^-1 x 1),
    alpha_F = S(G1) alpha G2 and beta_F = F1 beta S(F2), where F^-1 = G1 (x) G2.
    """
    finv = h.tensor_inverse(f)
    comult = [h.mul_chain([f, TensorElement(h.dim, 2, h.comult[i]), finv]).coeffs
              for i in range(h.dim)]
    phi = h.mul_chain([h.spread(f, [(2,), (3,)], 3), h.spread(f, [(1,), (2, 3)], 3), h.phi,
                       h.spread(finv, [(1, 2), (3,)], 3), h.spread(finv, [(1,), (2,)], 3)])
    alpha = h.fuse_legs(h.apply_leg(finv, 1, _s_alpha(h)), 1)
    beta = h.fuse_legs(h.apply_leg(h.apply_leg(f, 1, h.right_mult_matrix(h.beta)), 2,
                                   h.antipode), 1)
    return QuasiHopfAlgebra(h.dim, h.basis, h.mult, h.unit, comult, h.counit, phi,
                            h.antipode, alpha, beta, antipode_inv=h.antipode_inv,
                            name=h.name + "_twist")


def tensor_square(d):
    """The tensor square of d, componentwise structure: for the associator
    example, a second genuinely quasi instance with a 64-term associator."""
    n = d.dim * d.dim

    def pidx(i, j):
        return i * d.dim + j

    mult = [[dict() for _ in range(n)] for _ in range(n)]
    for i1 in range(d.dim):
        for i2 in range(d.dim):
            for j1 in range(d.dim):
                for j2 in range(d.dim):
                    out = {}
                    for k1, c1 in d.mult[i1][j1].items():
                        for k2, c2 in d.mult[i2][j2].items():
                            out[pidx(k1, k2)] = c1 * c2
                    mult[pidx(i1, i2)][pidx(j1, j2)] = out
    unit = {}
    for i, c in d.unit.items():
        for j, c2 in d.unit.items():
            unit[pidx(i, j)] = c * c2
    comult = [dict() for _ in range(n)]
    for i1 in range(d.dim):
        for i2 in range(d.dim):
            out = {}
            for (a1, b1), c1 in d.comult[i1].items():
                for (a2, b2), c2 in d.comult[i2].items():
                    out[(pidx(a1, a2), pidx(b1, b2))] = c1 * c2
            comult[pidx(i1, i2)] = out
    counit = [d.counit[i] * d.counit[j] for i in range(d.dim) for j in range(d.dim)]
    phi = {}
    for (x1, y1, z1), c1 in d.phi.coeffs.items():
        for (x2, y2, z2), c2 in d.phi.coeffs.items():
            phi[(pidx(x1, x2), pidx(y1, y2), pidx(z1, z2))] = c1 * c2
    antipode = d.antipode.kron(d.antipode)
    alpha = {}
    for (i,), c in d.alpha.coeffs.items():
        for (j,), c2 in d.alpha.coeffs.items():
            alpha[pidx(i, j)] = c * c2
    beta = {}
    for (i,), c in d.beta.coeffs.items():
        for (j,), c2 in d.beta.coeffs.items():
            beta[pidx(i, j)] = c * c2
    return QuasiHopfAlgebra(
        dim=n, basis=None, mult=mult, unit=unit, comult=comult, counit=counit,
        phi=TensorElement(n, 3, phi), antipode=antipode, alpha=alpha, beta=beta,
        name="drinfeld_square")


def get_algebra(name):
    if name not in _CACHE:
        if name == TWISTED:
            # F = 1 (x) 1 + x (x) (1 - g): a noncommutative algebra with a 17-term Phi
            sw = get_algebra("sweedler_h4")
            f = TensorElement(sw.dim, 2, {(0, 0): 1, (2, 0): 1, (2, 1): -1})
            _CACHE[name] = twist(sw, f).require_valid()
        elif name == DENSE_TWIST:
            # F = 1 (x) 1 + x (x) (1 - g) + (1 - g) (x) x: a 35-term Phi with
            # every basis element on every leg (TWISTED's third legs commute)
            sw = get_algebra("sweedler_h4")
            f = TensorElement(sw.dim, 2, {(0, 0): 1, (2, 0): 1, (2, 1): -1, (0, 2): 1, (1, 2): -1})
            _CACHE[name] = twist(sw, f).require_valid()
        elif name == SQUARE:
            # not validated here: tests/test_user_algebras.py checks its axioms
            _CACHE[name] = tensor_square(get_algebra("drinfeld_h2"))
        else:
            _CACHE[name] = builtin(name)
    return _CACHE[name]


@pytest.fixture(scope="session")
def z2():
    return get_algebra("group_z2")


@pytest.fixture(scope="session")
def dr():
    return get_algebra("drinfeld_h2")


@pytest.fixture(scope="session")
def sw():
    return get_algebra("sweedler_h4")


@pytest.fixture(scope="session")
def tw():
    return get_algebra(TWISTED)


@pytest.fixture(scope="session", params=["group_z2", "drinfeld_h2", "sweedler_h4"])
def any_h(request):
    return get_algebra(request.param)


@pytest.fixture(scope="session", params=["group_z2", "drinfeld_h2", "sweedler_h4", TWISTED])
def any_h_tw(request):
    """The builtins and the twist of sweedler_h4, whose dense associator and
    noncommutative product pin down the factor order of the sandwich formulas."""
    return get_algebra(request.param)
