import pytest

from quasihopf import builtin
from quasihopf.qha import QuasiHopfAlgebra, TensorElement

_CACHE = {}

TWISTED = "sweedler_h4_twist"


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

    def leg_sum(t, middle, s_leg):
        out = {}
        for (u1, u2), c in t.coeffs.items():
            legs = [{u1: 1}, middle, {u2: 1}]
            legs[s_leg] = h.s_vec(legs[s_leg])
            for k, x in h.prod_chain(legs).items():
                out[k] = out.get(k, 0) + c * x
        return out

    return QuasiHopfAlgebra(h.dim, h.basis, h.mult, h.unit, comult, h.counit, phi,
                            h.antipode, leg_sum(finv, h.alpha_vec, 0),
                            leg_sum(f, h.beta_vec, 2), antipode_inv=h.antipode_inv,
                            name=h.name + "_twist")


def get_algebra(name):
    if name not in _CACHE:
        if name == TWISTED:
            # F = 1 (x) 1 + x (x) (1 - g): a noncommutative algebra with a 17-term Phi
            sw = get_algebra("sweedler_h4")
            f = TensorElement(sw.dim, 2, {(0, 0): 1, (2, 0): 1, (2, 1): -1})
            _CACHE[name] = twist(sw, f).require_valid()
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
