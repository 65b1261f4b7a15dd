import pytest
from hypothesis import given, settings, strategies as st

from quasihopf.dsl import (MAX_NESTING, Call, Context, DslError, Elaborator, Name, Seq,
                           Ten, check, eval_expr, parse, print_expr)
from quasihopf.repcat import inner_hom, regular_module, tensor

from conftest import get_algebra


# -- parsing --------------------------------------------------------------------

def test_parse_composition():
    node = parse("eta(C,C) ; eps(CC, C)")
    assert isinstance(node, Seq)
    assert node.parts[0] == Call("eta", (Name("C"), Name("C")))
    assert node.parts[1] == Call("eps", (Name("CC"), Name("C")))


def test_parse_tensor():
    node = parse("id(A) * mu(M)")
    assert isinstance(node, Ten)
    assert node.parts == (Call("id", (Name("A"),)), Call("mu", (Name("M"),)))


def test_parse_precedence():
    # ';' binds looser than '*'
    node = parse("a * b ; c")
    assert isinstance(node, Seq)
    assert isinstance(node.parts[0], Ten)
    assert node.parts[1] == Name("c")


def test_parse_error_position():
    with pytest.raises(DslError) as err:
        parse("mu(M")
    assert "column 5" in str(err.value)


def test_parse_rejects_garbage():
    with pytest.raises(DslError):
        parse("mu(M))")
    with pytest.raises(DslError):
        parse("&")
    with pytest.raises(DslError):
        parse("")


names = st.sampled_from(["f", "g", "mu", "id", "brd", "x1"])


def ast_strategy():
    leaf = st.builds(Name, names)
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.builds(lambda h, args: Call(h, tuple(args)), names,
                      st.lists(kids, min_size=1, max_size=3)),
            st.builds(lambda parts: Ten(tuple(parts)),
                      st.lists(kids, min_size=2, max_size=3)),
            st.builds(lambda parts: Seq(tuple(parts)),
                      st.lists(kids, min_size=2, max_size=3)),
        ),
        max_leaves=12)


@given(ast_strategy())
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip(ast):
    assert parse(print_expr(ast)) == ast


# -- elaboration and evaluation -----------------------------------------------------

@pytest.fixture(scope="module")
def ctx_dr():
    return Context(get_algebra("drinfeld_h2"))


def test_elaborate_triangle_types(ctx_dr):
    el = Elaborator(ctx_dr)
    typed = el.elaborate(parse("(eta(C,C) * id(C)) ; eps(C*C, C)"))
    c = regular_module(ctx_dr.h)
    assert typed.source == tensor(c, c)
    assert typed.target == tensor(c, c)


def test_elaborate_type_error_names_objects(ctx_dr):
    with pytest.raises(DslError) as err:
        Elaborator(ctx_dr).elaborate(parse("pi(C) ; mu(A)"))
    assert "does not match" in str(err.value)


def test_unknown_identifier(ctx_dr):
    with pytest.raises(DslError):
        Elaborator(ctx_dr).elaborate(parse("id(nonsense)"))
    with pytest.raises(DslError):
        Elaborator(ctx_dr).elaborate(parse("mystery(C)"))


def test_eval_triangle_is_identity(ctx_dr):
    f = eval_expr("(eta(C,C) * id(C)) ; eps(C*C, C)", ctx_dr)
    assert f.matrix.is_identity()
    assert f.is_h_linear()


def test_check_triangle(ctx_dr):
    res = check("(eta(C,C) * id(C)) ; eps(C*C, C)", "id(C*C)", ctx_dr)
    assert res.ok


def test_check_commutativity_of_A(ctx_dr):
    res = check("braid(A,A) ; mu(A)", "mu(A)", ctx_dr)
    assert res.ok


def test_check_s_t(ctx_dr):
    assert check("s(A) ; t(A)", "id(heart(A))", ctx_dr).ok
    assert check("t(A) ; s(A)", "id(A*A)", ctx_dr).ok


def test_check_xi_zeta(ctx_dr):
    assert check("zeta(A) ; xi(A)", "id(A)", ctx_dr).ok
    assert check("xi(A) ; zeta(A)", "id(heart(coinv(A)))", ctx_dr).ok


def test_check_reports_witness():
    ctx = Context(get_algebra("sweedler_h4"))
    res = check("braid(A,A)", "id(A*A)", ctx)
    assert not res.ok
    assert res.witness is not None


def test_check_endpoint_mismatch(ctx_dr):
    res = check("id(C)", "id(A*A)", ctx_dr)
    assert not res.ok
    assert "endpoint" in res.message


def test_eval_inverse_of_singular(ctx_dr):
    # pi is not injective, so inv must refuse; its shape is not even square
    with pytest.raises(DslError):
        eval_expr("inv(pi(C))", ctx_dr)


def test_object_expressions(ctx_dr):
    el = Elaborator(ctx_dr)
    m = el.resolve_module(parse("innh(C, C*C)"))
    assert m.dim == inner_hom(regular_module(ctx_dr.h),
                              tensor(regular_module(ctx_dr.h),
                                     regular_module(ctx_dr.h))).dim
    b = el.resolve_module(parse("coinv(heart(C))"))
    assert b.dim == regular_module(ctx_dr.h).dim


def test_diamond_and_pi_relation(ctx_dr):
    # pi is the unit-object component of the evaluation family
    assert check("pi(C)", "diamond(C, I) ; id(C)", ctx_dr).ok


def test_lambda_matches_mu_after_crossing(ctx_dr):
    # the left action evaluated through the DSL agrees with mu after braiding
    assert check("braid_inv(A, A) ; lambda(A)", "mu(A)", ctx_dr).ok


def test_nesting_limit(ctx_dr):
    # MAX_NESTING - 1 grouping parentheses plus the argument list of id(...)
    at_limit = "(" * (MAX_NESTING - 1) + "id(C)" + ")" * (MAX_NESTING - 1)
    assert eval_expr(at_limit, ctx_dr).matrix.is_identity()
    assert check(at_limit, "id(C)", ctx_dr).ok
    for too_deep in ("(" + at_limit + ")", "id(" * (MAX_NESTING + 1) + "C" + ")" * (MAX_NESTING + 1)):
        with pytest.raises(DslError, match="nested deeper"):
            parse(too_deep)
