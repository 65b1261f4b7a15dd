import pytest
from hypothesis import given, settings, strategies as st

from quasihopf.dsl import (MAX_DIM, MAX_NESTING, Call, Context, DslError, Elaborator, Name, Seq,
                           Ten, check, eval_expr, parse, print_expr)
from quasihopf.repcat import inner_hom, regular_module, tensor

from conftest import TWISTED, get_algebra


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


def test_repeated_evaluation_leaves_the_memo_size_unchanged():
    from quasihopf.qha import builtin
    ctx = Context(builtin("drinfeld_h2"))   # a fresh algebra with a memo of its own
    sizes = []
    for _ in range(20):
        eval_expr("p(heart(C))", ctx)
        sizes.append(len(ctx.h._memo))
    for _ in range(2):
        eval_expr("xi(A) ; zeta(A)", ctx)
        sizes.append(len(ctx.h._memo))
    assert sizes[:20] == [sizes[0]] * 20
    assert sizes[21] == sizes[20]


def test_unnamed_operands_leave_no_entry_in_the_algebra_memo():
    from quasihopf.qha import builtin
    ctx = Context(builtin("drinfeld_h2"))
    sizes = []
    for _ in range(4):
        eval_expr("pi(C*C)", ctx)
        sizes.append(len(ctx.h._memo))
    assert sizes == [sizes[0]] * 4


def test_check_reports_witness():
    ctx = Context(get_algebra("sweedler_h4"))
    res = check("braid(A,A)", "id(A*A)", ctx)
    assert not res.ok
    assert res.witness is not None


def test_check_endpoint_mismatch(ctx_dr):
    res = check("id(C)", "id(A*A)", ctx_dr)
    assert not res.ok
    assert "endpoint" in res.message


# Endpoints of equal dimension, so each verdict turns on module equality.  The
# coassociative builtins identify the two bracketings of C*C*C; the twist does not.
_EQUAL_DIM_ENDPOINTS = [
    (name, lhs, rhs, verdict)
    for name in ("drinfeld_h2", "sweedler_h4")
    for lhs, rhs, verdict in [("braid(A,C)", "id(A*C)", "endpoint mismatch"),
                              ("id((C*C)*C)", "id(C*(C*C))", "exactly equal"),
                              ("id(I*C)", "id(C)", "exactly equal"),
                              ("id(C*I)", "id(C)", "exactly equal")]
] + [(TWISTED, "id((C*C)*C)", "id(C*(C*C))", "endpoint mismatch")]


@pytest.mark.parametrize("name, lhs, rhs, verdict", _EQUAL_DIM_ENDPOINTS)
def test_check_endpoints_at_equal_dimension(name, lhs, rhs, verdict):
    res = check(lhs, rhs, Context(get_algebra(name)))
    assert res.ok == (verdict == "exactly equal")
    assert res.message.startswith(verdict)


def test_eval_inverse_of_singular(ctx_dr):
    # pi is not injective, so inv must refuse; its shape is not even square
    with pytest.raises(DslError):
        eval_expr("inv(pi(C))", ctx_dr)


def test_inverses_of_a_singular_braiding_are_one_line_errors(ctx_dr, monkeypatch):
    # a zero coaction braids by the zero map; registered by hand, past the
    # validation add_center would run
    from quasihopf.center import CenterObject
    from quasihopf.linalg import Matrix
    c = regular_module(ctx_dr.h)
    zero = CenterObject(c, [Matrix.zero(c.dim, c.dim)] * ctx_dr.h.dim, label="Z")
    monkeypatch.setitem(ctx_dr.centers, "Z", zero)
    for expr in ("braid_inv(Z, C)", "inv(braid(Z, C))"):
        with pytest.raises(DslError) as info:
            eval_expr(expr, ctx_dr)
        assert str(info.value).splitlines() == [
            "inv of a singular morphism: matrix is singular (line 1, column 1)"]


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


def test_dimension_limit(ctx_dr):
    # elaboration multiplies dimensions and builds nothing: C is 2-dimensional,
    # so C^16 is at the limit; beyond it, an object or an endpoint is refused
    # where its expression starts, before anything is evaluated
    at_limit = "*".join(["C"] * 16)
    typed = Elaborator(ctx_dr).elaborate(parse(f"id({at_limit})"))
    assert typed.source.dim == typed.target.dim == MAX_DIM == 2 ** 16
    half = "*".join(["C"] * 9)
    for text, column in [(f"id({at_limit}*C)", 4), ("id(" + "*".join(["C"] * 41) + ")", 4),
                         ("id(C)*" * 16 + "id(C)", 1), (f"assoc(C, {half}, {half})", 1),
                         (f"id(C) ; id(C) ; id(C) * id({at_limit})", 17)]:
        with pytest.raises(DslError, match=f"larger than the limit {MAX_DIM} "
                                           rf"\(line 1, column {column}\)"):
            Elaborator(ctx_dr).elaborate(parse(text))


# -- one pin per generator and object constructor ---------------------------------

def _named_maps(ctx):
    """The library map each valid pin expression names, keyed like PINS."""
    from quasihopf.algebra_a import diamond, heart, heart_on_morphism, pi_map, s_t_isos
    from quasihopf.center import braiding
    from quasihopf.linalg import inverse
    from quasihopf.mod_a import (algebra_as_amodule, coinvariants, coinvariants_on_morphism,
                                 heart_amodule, left_action, unit_iso)
    from quasihopf.repcat import (HLinearMap, associator, associator_inv, eeps, eeta,
                                  icomp, identity_map, in_map)
    h, a = ctx.h, ctx.algebra
    c = regular_module(h)
    am = algebra_as_amodule(a)
    _, proj, pres = coinvariants(am)
    braid = braiding(a.center, c)
    return {
        "id": lambda: identity_map(tensor(c, c)),
        "assoc": lambda: associator(c, c, c),
        "assoc_inv": lambda: associator_inv(c, c, c),
        "eta": lambda: eeta(c, c),
        "eps": lambda: eeps(c, c),
        "icomp": lambda: icomp(c, c, c),
        "inmap": lambda: in_map(c, c, c),
        "braid": lambda: braid,
        "braid_inv": lambda: HLinearMap(braid.target, braid.source, inverse(braid.matrix)),
        "diamond": lambda: diamond(h, c, c),
        "pi": lambda: pi_map(h, c),
        "mu": lambda: HLinearMap(tensor(a.base, a.base), a.base, am.mu),
        "lambda": lambda: left_action(am),
        "s": lambda: s_t_isos(a.center, a)[0],
        "t": lambda: s_t_isos(a.center, a)[1],
        "xi": lambda: unit_iso(am)[0],
        "zeta": lambda: unit_iso(am)[1],
        "p": lambda: proj,
        "heart": lambda: heart_on_morphism(pi_map(h, c)),
        "coinv": lambda: coinvariants_on_morphism(identity_map(a.base), pres, pres),
        "inv": lambda: associator_inv(c, c, c),
        "heart:object": lambda: identity_map(heart(h, c).base),
        "heart:centre": lambda: braiding(heart(h, c).center, c),
        "heart:right module": lambda: HLinearMap(tensor(heart(h, c).base, a.base),
                                                 heart(h, c).base, heart_amodule(a, c).mu),
        "coinv:object": lambda: identity_map(pres.module),
        "innh:object": lambda: identity_map(inner_hom(c, c)),
    }


# name -> (valid call, (wrong arity, its error), (argument of the wrong sort, its error))
PINS = {
    "id": ("id(C*C)", ("id(C, C)", "id takes 1 argument(s), got 2 (line 1, column 1)"),
           ("id(pi(C))", "'pi' is not an object constructor (line 1, column 4)")),
    "assoc": ("assoc(C,C,C)", ("assoc(C,C)", "assoc takes 3 argument(s), got 2 (line 1, column 1)"),
              ("assoc(C,C,id(C))", "'id' is not an object constructor (line 1, column 11)")),
    "assoc_inv": ("assoc_inv(C,C,C)",
                  ("assoc_inv(C)", "assoc_inv takes 3 argument(s), got 1 (line 1, column 1)"),
                  ("assoc_inv(C;C,C,C)", "';' is not allowed inside an object expression")),
    "eta": ("eta(C,C)", ("eta(C)", "eta takes 2 argument(s), got 1 (line 1, column 1)"),
            ("eta(C, mu(A))", "'mu' is not an object constructor (line 1, column 8)")),
    "eps": ("eps(C,C)", ("eps(C,C,C)", "eps takes 2 argument(s), got 3 (line 1, column 1)"),
            ("eps(C;C, C)", "';' is not allowed inside an object expression")),
    "icomp": ("icomp(C,C,C)", ("icomp()", "icomp takes 3 argument(s), got 0 (line 1, column 1)"),
              ("icomp(C, s(A), C)", "'s' is not an object constructor (line 1, column 10)")),
    "inmap": ("inmap(C,C,C)", ("inmap(C,C)", "inmap takes 3 argument(s), got 2 (line 1, column 1)"),
              ("inmap(id(C),C,C)", "'id' is not an object constructor (line 1, column 7)")),
    "braid": ("braid(A,C)", ("braid(A)", "braid takes 2 argument(s), got 1 (line 1, column 1)"),
              ("braid(C,C)", "'C' does not name a centre object (line 1, column 7)")),
    "braid_inv": ("braid_inv(A,C)",
                  ("braid_inv(A,C,C)", "braid_inv takes 2 argument(s), got 3 (line 1, column 1)"),
                  ("braid_inv(A*A, C)", "expected the name of a centre object")),
    "diamond": ("diamond(C,C)",
                ("diamond(C)", "diamond takes 2 argument(s), got 1 (line 1, column 1)"),
                ("diamond(C, pi(C))", "'pi' is not an object constructor (line 1, column 12)")),
    "pi": ("pi(C)", ("pi(C,C)", "pi takes 1 argument(s), got 2 (line 1, column 1)"),
           ("pi(mu(A))", "'mu' is not an object constructor (line 1, column 4)")),
    "mu": ("mu(A)", ("mu(A,A)", "mu takes 1 argument(s), got 2 (line 1, column 1)"),
           ("mu(C)", "'C' does not name a right module (line 1, column 4)")),
    "lambda": ("lambda(A)", ("lambda()", "lambda takes 1 argument(s), got 0 (line 1, column 1)"),
               ("lambda(A*A)", "expected the name of a right module")),
    "s": ("s(A)", ("s(A,A)", "s takes 1 argument(s), got 2 (line 1, column 1)"),
          ("s(coinv(A))", "expected the name of a centre object")),
    "t": ("t(A)", ("t()", "t takes 1 argument(s), got 0 (line 1, column 1)"),
          ("t(C)", "'C' does not name a centre object (line 1, column 3)")),
    "xi": ("xi(A)", ("xi(A,C)", "xi takes 1 argument(s), got 2 (line 1, column 1)"),
           ("xi(innh(C,C))", "expected the name of a right module")),
    "zeta": ("zeta(A)", ("zeta()", "zeta takes 1 argument(s), got 0 (line 1, column 1)"),
             ("zeta(C)", "'C' does not name a right module (line 1, column 6)")),
    "p": ("p(A)", ("p(A,A)", "p takes 1 argument(s), got 2 (line 1, column 1)"),
          ("p(id(A))", "expected the name of a right module")),
    "heart": ("heart(pi(C))",
              ("heart(pi(C), pi(C))", "heart takes 1 argument(s), got 2 (line 1, column 1)"),
              ("heart(C)", "unknown morphism 'C' (line 1, column 7)")),
    "coinv": ("coinv(id(A))", ("coinv()", "coinv takes 1 argument(s), got 0 (line 1, column 1)"),
              ("coinv(id(C))", "coinv of a morphism needs registered right modules at both "
                               "endpoints; none matches C (line 1, column 1)")),
    "inv": ("inv(assoc(C,C,C))", ("inv(C, C)", "inv takes 1 argument(s), got 2 (line 1, column 1)"),
            ("inv(C)", "unknown morphism 'C' (line 1, column 5)")),
    "heart:object": ("id(heart(C))",
                     ("id(heart(C,C))", "heart takes 1 argument(s), got 2 (line 1, column 4)"),
                     ("id(heart(id(C)))", "'id' is not an object constructor (line 1, column 10)")),
    "heart:centre": ("braid(heart(C), C)",
                     ("braid(heart(C,C), C)",
                      "heart takes 1 argument(s), got 2 (line 1, column 7)"),
                     ("braid(heart(pi(C)), C)",
                      "'pi' is not an object constructor (line 1, column 13)")),
    "heart:right module": ("mu(heart(C))",
                           ("mu(heart())", "heart takes 1 argument(s), got 0 (line 1, column 4)"),
                           ("mu(heart(mu(A)))",
                            "'mu' is not an object constructor (line 1, column 10)")),
    "coinv:object": ("id(coinv(A))",
                     ("id(coinv(A,A))", "coinv takes 1 argument(s), got 2 (line 1, column 4)"),
                     ("id(coinv(C))", "'C' does not name a right module (line 1, column 10)")),
    "innh:object": ("id(innh(C,C))",
                    ("id(innh(C))", "innh takes 2 argument(s), got 1 (line 1, column 4)"),
                    ("id(innh(C, pi(C)))",
                     "'pi' is not an object constructor (line 1, column 12)")),
}


@pytest.mark.parametrize("case", ["valid", "arity", "sort"])
@pytest.mark.parametrize("name", list(PINS))
def test_generator_pins(ctx_dr, name, case):
    valid, arity, sort = PINS[name]
    if case == "valid":
        got = eval_expr(valid, ctx_dr)
        want = _named_maps(ctx_dr)[name]()
        assert (got.source.dim, got.target.dim) == (want.source.dim, want.target.dim)
        assert got.matrix == want.matrix
        return
    text, message = arity if case == "arity" else sort
    with pytest.raises(DslError) as err:
        eval_expr(text, ctx_dr)
    assert str(err.value) == message


def test_readme_table_lists_the_generators():
    from pathlib import Path
    import re
    from quasihopf.dsl import GENERATORS
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| syntax | argument sorts | gives |")[1].split("\n\n")[0]
    firsts = [row.split("|")[1] for row in table.strip().splitlines()[1:]]
    assert set(re.findall(r"`(\w+)\(", "".join(firsts))) == set(GENERATORS)
