import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vnoether import (EVEN, ODD, GradedPoly, NoetherOperator,
                      check_noether_identity, euler_lagrange, jet, load_model,
                      noether_operator_from_density, poly_to_data,
                      print_elaborated)
from vnoether.cli import EXIT_USAGE, main
from vnoether.model import ElaborationError, ParseError, _Elaborator, parse

P = GradedPoly.variable
MODELS = Path(__file__).resolve().parent.parent / "models"

MAXWELL = """
dim 2
metric euclidean
field A[mu] even
ghost c odd for gauge
let F[mu,nu] = d[mu](A[nu]) - d[nu](A[mu])
lagrangian (-1/4)*F[mu,nu]*F[mu,nu]
identity gauge: 1*d[nu](EL(A[nu]))
symmetry gauge_sym: A[mu] <- -d[mu](c)
"""


def test_parse_minimal_scalar():
    model = load_model("dim 1\nfield phi even\nlagrangian (1/2)*d[x](phi)^2\n")
    phi = model.symbols["phi"]
    assert model.lagrangian.density == Fraction(1, 2) * P(jet(phi, (0,))) ** 2
    # the copies of a power contract
    model = load_model("dim 2\nfield a[m] even\nlagrangian a[mu]^2\n")
    a0, a1 = model.symbols["a0"], model.symbols["a1"]
    assert model.lagrangian.density == P(jet(a0)) ** 2 + P(jet(a1)) ** 2


def test_parse_maxwell():
    src = parse(MAXWELL)
    assert src.dim == 2
    assert [f[0] for f in src.fields] == ["A"]
    assert list(src.identities) == ["gauge"]


def test_elaborate_maxwell_euclidean():
    model = load_model(MAXWELL)
    a0, a1 = model.symbols["A0"], model.symbols["A1"]
    f01 = P(jet(a1, (0,))) - P(jet(a0, (1,)))
    assert model.lagrangian.density == -Fraction(1, 2) * f01 * f01
    el = euler_lagrange(model.lagrangian)
    assert check_noether_identity(model.identities["gauge"], el)
    c = model.symbols["c"]
    sym = model.symmetries["gauge_sym"]
    assert sym.component(a0) == -P(jet(c, (0,)))
    assert sym.component(a1) == -P(jet(c, (1,)))
    assert model.ghost_of("gauge") is c


def test_elaborate_maxwell_minkowski_signs():
    model = load_model(MAXWELL.replace("metric euclidean",
                                       "metric minkowski +-"))
    a0, a1 = model.symbols["A0"], model.symbols["A1"]
    f01 = P(jet(a1, (0,))) - P(jet(a0, (1,)))
    assert model.lagrangian.density == Fraction(1, 2) * f01 * f01
    el = euler_lagrange(model.lagrangian)
    assert check_noether_identity(model.identities["gauge"], el)
    # the trace of a two-slot family takes the metric signs
    model = load_model("dim 2\nmetric minkowski +-\nfield h[m,n] even\n"
                       "lagrangian h[mu,mu]\n")
    h00, h11 = model.symbols["h00"], model.symbols["h11"]
    assert model.lagrangian.density == P(jet(h00)) - P(jet(h11))


def test_metric_flip_preserves_monomial_support():
    euclid = load_model(MAXWELL)
    mink = load_model(MAXWELL.replace("metric euclidean",
                                      "metric minkowski +-"))
    support_e = {k for k in euclid.lagrangian.density.terms}
    support_m = {k for k in mink.lagrangian.density.terms}
    # identical monomial structure; only coefficient signs change
    assert {tuple((v.symbol.name, v.index, e) for v, e in key[0])
            for key in support_e} \
        == {tuple((v.symbol.name, v.index, e) for v, e in key[0])
            for key in support_m}


def test_dim1_family_collapses():
    model = load_model("dim 1\nfield B[mu] even\nlagrangian B[0]^2\n")
    assert set(model.symbols) == {"B0"}
    with pytest.raises(ElaborationError, match="index 1 out of range"):
        load_model("dim 1\nfield B[mu] even\nlagrangian B[1]^2\n")


def test_summation_arity_error():
    for source in ("dim 2\nfield a[m] even\nlagrangian a[mu]*a[mu]*a[mu]\n",
                   "dim 2\nfield a[m] even\nlagrangian a[mu]^3\n"):
        with pytest.raises(ElaborationError, match="3 times"):
            load_model(source)


def test_unbound_index_error():
    with pytest.raises(ElaborationError, match="appears once"):
        load_model("dim 2\nfield a[m] even\nlagrangian a[mu]\n")
    with pytest.raises(ElaborationError,
                       match="summands expose different free indices"):
        load_model("dim 2\nfield a[m] even\nlagrangian a[mu]*(a[mu] + a[0])\n")


def test_nested_dummy_sums_inside_parentheses():
    # the parenthesized pair is summed inside the factor, not tied to the
    # outer pair of the same letter
    model = load_model("dim 2\nfield phi even\n"
                       "lagrangian d[mu](phi)*d[mu](phi)*(d[mu](phi)*d[mu](phi))\n")
    phi = model.symbols["phi"]
    square = P(jet(phi, (0,))) ** 2 + P(jet(phi, (1,))) ** 2
    assert model.lagrangian.density == square * square


def test_nested_dummy_in_identity_coefficient():
    # the coefficient's own pair is summed before the coefficient meets the
    # d[nu](EL(A[nu])) pair of the term
    model = load_model("dim 2\nfield a[m] even\nfield b[m] even\n"
                       "field A[m] even\n"
                       "identity g: a[nu]*b[nu]*d[nu](EL(A[nu]))\n")
    a0, a1, b0, b1 = (model.symbols[n] for n in ("a0", "a1", "b0", "b1"))
    dot = P(jet(a0)) * P(jet(b0)) + P(jet(a1)) * P(jet(b1))
    coeffs = model.identities["g"].coefficients
    assert coeffs == {(model.symbols["A0"], (0,)): dot,
                      (model.symbols["A1"], (1,)): dot}


def test_identity_with_odd_fields_is_its_antifield_density():
    # odd fields and odd coefficients: the identity evaluates to its
    # antifield density, and the operator read back from it is the one
    # written term by term
    model = load_model("dim 2\nfield phi even\nfield psi odd\n"
                       "field chi odd\n"
                       "identity g: psi*chi*EL(phi) - 3*chi*d[0](EL(psi))"
                       " + psi*d[1](EL(chi))\n")
    phi, psi, chi = (model.symbols[n] for n in ("phi", "psi", "chi"))
    want = NoetherOperator("g", {(phi, ()): P(jet(psi)) * P(jet(chi)),
                                 (psi, (0,)): -3 * P(jet(chi)),
                                 (chi, (1,)): P(jet(psi))})
    assert model.identities["g"] == want
    assert want.parity == ODD
    assert noether_operator_from_density(want.density(), "g") == want


def test_el_only_as_the_last_factor_of_an_identity_term():
    base = "dim 1\nfield phi even\nfield psi odd\n"
    for text in ("identity g: EL(psi)*EL(phi)\n",
                 "identity g: EL(psi)*d[0](EL(phi))\n",
                 "lagrangian EL(phi)\n",
                 "let F = EL(phi)\n",
                 "symmetry s: phi <- EL(phi)\n"):
        with pytest.raises(ElaborationError,
                           match="only allowed inside identities"):
            load_model(base + text)
    for text in ("identity g: EL(phi)*psi\n", "identity g: -EL(phi)\n",
                 "identity g: d[0](d[0](EL(phi)))\n",
                 "identity g: d[0](EL(phi))^2\n"):
        with pytest.raises(ParseError, match="must end in an EL"):
            load_model(base + text)


def test_symmetry_left_side_letters_are_fixed():
    # a letter bound by the left side takes the component's value on the
    # right side and is never summed there
    model = load_model("dim 2\nfield A[m] even\nfield a[m] even\n"
                       "field b[m] even\nghost c odd for g\n"
                       "identity g: 0*EL(A[0])\n"
                       "symmetry s: A[mu] <- a[mu]*b[mu]\n"
                       "symmetry t: A[mu] <- 1 - d[mu](c)\n")
    sym = model.symbols
    s, t = model.symmetries["s"], model.symmetries["t"]
    for v in range(2):
        target = sym[f"A{v}"]
        assert s.component(target) == P(jet(sym[f"a{v}"])) * P(jet(sym[f"b{v}"]))
        assert t.component(target) == 1 - P(jet(sym["c"], (v,)))


def test_symmetry_left_side_literal_out_of_range(tmp_path, capsys):
    # a literal left slot is checked against dim like one on the right side,
    # instead of matching no component and giving the empty symmetry
    source = ("dim 2\nfield A[mu] even\nghost c odd for g\n"
              "identity g: 1*d[nu](EL(A[nu]))\n"
              "symmetry s: A[7] <- d[0](c)\n")
    with pytest.raises(ElaborationError, match="index 7 out of range"):
        load_model(source)
    path = tmp_path / "range.vln"
    path.write_text(source)
    assert main(["superpotential", str(path), "s"]) == EXIT_USAGE
    assert "index 7 out of range" in capsys.readouterr().err
    # an in-range literal picks its one component
    model = load_model(source.replace("A[7]", "A[1]"))
    assert dict(model.symmetries["s"].vertical) \
        == {model.symbols["A1"]: P(jet(model.symbols["c"], (0,)))}


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("dim 2\nfield ) even\n")
    assert err.value.line == 2


def test_duplicate_declaration():
    with pytest.raises(ParseError, match="duplicate"):
        parse("field a even\nfield a even\n")


def test_identity_and_symmetry_share_one_namespace(tmp_path, capsys):
    # superpotential NAME takes an identity or a symmetry, so one name
    # cannot be both
    source = MAXWELL.replace("symmetry gauge_sym:", "symmetry gauge:")
    with pytest.raises(ParseError,
                       match="9:1: identity 'gauge' is already declared"):
        parse(source)
    path = tmp_path / "shared.vln"
    path.write_text(source)
    assert main(["superpotential", str(path), "gauge"]) == EXIT_USAGE
    assert "identity 'gauge' is already declared" in capsys.readouterr().err
    for source, kind in (("symmetry s: a <- 1\nidentity s: EL(a)\n",
                          "symmetry"),
                         ("identity s: EL(a)\nidentity s: EL(a)\n",
                          "identity"),
                         ("symmetry s: a <- 1\nsymmetry s: a <- 2\n",
                          "symmetry")):
        with pytest.raises(ParseError,
                           match=f"2:1: {kind} 's' is already declared"):
            parse(source)


def test_only_decimal_digits_are_integers():
    # a superscript or circled digit is a digit to str.isdigit but not to
    # int(); other decimal digits read as their value
    for text in ("dim \u00b2\n", "dim \u2460\n"):
        with pytest.raises(ParseError, match="1:5: unexpected character"):
            load_model(text)
    assert load_model("dim \u0662\n").dim == 2


def test_unknown_symbol():
    with pytest.raises(ElaborationError, match="unknown"):
        load_model("dim 1\nfield a even\nlagrangian a*b\n")


def test_el_target_is_checked_under_a_zero_coefficient():
    for target, message in (("b", "unknown symbol 'b'"),
                            ("A[7]", "index 7 out of range")):
        with pytest.raises(ElaborationError, match=message):
            load_model("dim 2\nfield A[mu] even\n"
                       f"identity g: 0*EL({target})\n")


def test_let_hygiene():
    # the summation index inside the let body must not capture the
    # caller's letters
    model = load_model("""
dim 2
field a[m] even
field b[m] even
let T[mu] = a[nu]*d[nu](b[mu])
lagrangian T[nu]*a[nu]
""")
    a0, a1 = model.symbols["a0"], model.symbols["a1"]
    b0, b1 = model.symbols["b0"], model.symbols["b1"]
    expect = GradedPoly.zero()
    for nu in range(2):
        t = GradedPoly.zero()
        for inner in range(2):
            b = (b0, b1)[nu]
            t = t + P(jet((a0, a1)[inner])) * P(jet(b, (inner,)))
        expect = expect + t * P(jet((a0, a1)[nu]))
    assert model.lagrangian.density == expect
    # nor a caller's letter of any spelling
    source = "dim 2\nfield a[m] even\nlet T[mu] = a[mu]*a[nu]*a[nu]\n"
    want = load_model(source + "lagrangian T[x]*a[x]\n").lagrangian.density
    got = load_model(source + "lagrangian T[nu_1_]*a[nu_1_]\n")
    assert got.lagrangian.density == want


def test_let_body_is_evaluated_once(monkeypatch):
    # maxwell4 uses F twice; its body is a table built where F is defined
    text = (MODELS / "maxwell4.vln").read_text()
    (_, _, body), = parse(text).lets
    calls = []
    evaluate = _Elaborator._eval

    def counting(self, expr):
        if expr == body:
            calls.append(expr)
        return evaluate(self, expr)
    monkeypatch.setattr(_Elaborator, "_eval", counting)
    load_model(text)
    assert len(calls) == 1


def test_let_body_leaves_open_exactly_its_parameters():
    head = "dim 2\nfield a[m] even\nfield b[m] even\n"
    for let in ("let S[mu] = a[mu]*b[mu]",        # a parameter is summed
                "let S[mu,mu] = a[mu]",           # a repeated parameter
                "let S[mu] = a[mu]*b[nu]",        # an extra open letter
                "let S[mu] = a[0]"):              # a parameter never used
        # checked where it is defined, although nothing uses it
        with pytest.raises(ElaborationError, match="let 'S'"):
            load_model(head + let + "\n")
    with pytest.raises(ElaborationError, match="let 'S' expects 1 indices"):
        load_model(head + "let S[mu] = a[mu]\nlagrangian S[0,1]\n")
    # the parameter order keys the table: T[0,1] is a0*b1 however the
    # body spells its letters
    model = load_model(head + "let T[nu,mu] = a[nu]*b[mu]\n"
                       "lagrangian T[0,1]\n")
    assert model.lagrangian.density \
        == P(jet(model.symbols["a0"])) * P(jet(model.symbols["b1"]))


def test_let_on_symmetry_right_side_with_fixed_letter():
    model = load_model("dim 2\nfield A[m] even\nghost c odd for g\n"
                       "identity g: 1*d[nu](EL(A[nu]))\n"
                       "let G[mu] = d[mu](c)\n"
                       "symmetry s: A[mu] <- G[mu]\n")
    c, ups = model.symbols["c"], model.symmetries["s"]
    for v in range(2):
        assert ups.component(model.symbols[f"A{v}"]) == P(jet(c, (v,)))


def test_ghost_parity_validation():
    bad = MAXWELL.replace("ghost c odd for gauge", "ghost c even for gauge")
    with pytest.raises(ElaborationError, match="parity"):
        load_model(bad)


def test_mixed_parity_lagrangian_rejected(tmp_path, capsys):
    # an even and an odd term cannot share one Lagrangian
    source = ("dim 1\nfield phi even\nfield psi odd\n"
              "lagrangian (1/2)*d[0](phi)^2 + psi*d[0](psi) + psi\n")
    with pytest.raises(ElaborationError,
                       match=r"lagrangian \(line 4\): terms of mixed parity"):
        load_model(source)
    path = tmp_path / "mixed.vln"
    path.write_text(source)
    assert main(["el", str(path)]) == EXIT_USAGE
    assert "line 4" in capsys.readouterr().err
    # each parity on its own elaborates
    assert load_model(source.replace(" + psi\n", "\n")).lagrangian.parity \
        == EVEN
    assert load_model("dim 1\nfield psi odd\nlagrangian psi\n") \
        .lagrangian.parity == ODD


def test_empty_model_defaults():
    model = load_model("")
    assert model.dim == 1
    assert model.lagrangian.density.is_zero()
    assert not model.identities and not model.symmetries


def test_division_by_constant_only():
    load_model("dim 1\nfield a even\nlagrangian a^2/4\n")
    with pytest.raises(ElaborationError, match="division"):
        load_model("dim 1\nfield a even\nlagrangian a/a\n")


def test_print_parse_roundtrip():
    for source in (MAXWELL,
                   MAXWELL.replace("metric euclidean", "metric minkowski +-"),
                   "dim 1\nfield phi even\nlagrangian (1/2)*d[x](phi)^2\n"):
        model = load_model(source)
        text = print_elaborated(model)
        again = load_model(text)
        assert again.dim == model.dim
        assert again.signature == model.signature
        assert poly_to_data(again.lagrangian.density) \
            == poly_to_data(model.lagrangian.density)
        assert set(again.symbols) == set(model.symbols)
        for name, op in model.identities.items():
            got = {(s.name, i): poly_to_data(p)
                   for (s, i), p in again.identities[name].coefficients.items()}
            want = {(s.name, i): poly_to_data(p)
                    for (s, i), p in op.coefficients.items()}
            assert got == want
        for name, ups in model.symmetries.items():
            got = {s.name: poly_to_data(p)
                   for s, p in again.symmetries[name].vertical}
            want = {s.name: poly_to_data(p) for s, p in ups.vertical}
            assert got == want
        # printing is idempotent once flat
        assert print_elaborated(again) == text


@pytest.mark.parametrize("body", [
    "(" * 300 + "d[0](phi)" + ")" * 300 + "^2",
    "-" * 3000 + "d[0](phi)^2",
])
def test_nesting_beyond_the_limit_is_a_parse_error(tmp_path, capsys, body):
    # "(", "d[..](" and prefix "-" each open a level; the first token past
    # MAX_NESTING is reported, where a deeper parse would have run out of
    # Python's recursion limit
    from vnoether.model import MAX_NESTING
    text = f"dim 1\nfield phi even\nlagrangian {body}\n"
    with pytest.raises(ParseError) as err:
        load_model(text)
    first = len("lagrangian ") + 1
    assert (err.value.line, err.value.col) == (3, first + MAX_NESTING)
    path = tmp_path / "deep.vln"
    path.write_text(text)
    assert main(["el", str(path)]) == EXIT_USAGE
    assert f"3:{first + MAX_NESTING}: expression nested deeper than" \
        in capsys.readouterr().err


def test_nesting_at_the_limit_loads():
    from vnoether.model import MAX_NESTING
    k = MAX_NESTING - 1   # the d[0]( inside is one more level
    for body, sign in (("(" * k + "d[0](phi)" + ")" * k + "^2", 1),
                       ("-" * k + "d[0](phi)^2", (-1) ** k)):
        model = load_model(f"dim 1\nfield phi even\nlagrangian {body}\n")
        phi = model.symbols["phi"]
        assert model.lagrangian.density == sign * P(jet(phi, (0,))) ** 2


@pytest.mark.parametrize("text, where, message", [
    ("dim 1000000000\nfield phi even\nlagrangian d[0](phi)^2\n",
     (1, 5), "dimension must be at most"),
    ("dim 1\nfield phi even\nlagrangian d[0](phi)^2 + phi^1000000000\n",
     (3, 30), "exponent must be at most"),
])
def test_oversized_dimension_or_exponent_is_a_parse_error(
        tmp_path, capsys, text, where, message):
    # elaboration allocates per dimension and per power copy, so a huge
    # literal is refused at parse time instead of exhausting memory
    with pytest.raises(ParseError, match=message) as err:
        load_model(text)
    assert (err.value.line, err.value.col) == where
    path = tmp_path / "big.vln"
    path.write_text(text)
    assert main(["el", str(path)]) == EXIT_USAGE
    assert f"{where[0]}:{where[1]}: {message}" in capsys.readouterr().err


def test_dimension_and_exponent_at_the_limit_load():
    from vnoether.model import MAX_DIM, MAX_POWER
    assert load_model(f"dim {MAX_DIM}\nfield phi even\n"
                      "lagrangian phi^2\n").dim == MAX_DIM
    model = load_model(f"dim 1\nfield phi even\nlagrangian phi^{MAX_POWER}\n")
    phi = model.symbols["phi"]
    assert model.lagrangian.density == P(jet(phi)) ** MAX_POWER


def test_flat_names_are_distinct_from_dim_11():
    # joined without a separator, h[1,10] and h[11,0] would both be h110
    model = load_model("dim 12\nfield h[a,b] even\nlagrangian h[a,b]*h[a,b]\n")
    assert len(model.symbols) == 144
    assert model.symbols["h_1_10"] != model.symbols["h_11_0"]
    assert model.lagrangian.density == sum(
        (P(jet(s)) ** 2 for s in model.fields), GradedPoly.zero())
    model = load_model("dim 11\nfield t[a,b,c] odd\n")
    assert len(model.symbols) == 11 ** 3 and "t_10_1_0" in model.symbols
    # up to dim 10 the values are joined as before
    model = load_model("dim 10\nfield h[a,b] even\nfield t[a,b,c] even\n")
    assert {"h19", "h91", "t999"} <= set(model.symbols)
    assert len(model.symbols) == 100 + 1000


@pytest.mark.parametrize("template, where", [
    ("dim {}\nfield phi even\n", (1, 5)),
    ("dim 1\nfield phi even\nlagrangian {}*phi^2\n", (3, 12)),
    ("dim 1\nfield phi even\nlagrangian phi^{}\n", (3, 16)),
    ("dim 1\nfield phi even\nlagrangian d[{}](phi)^2\n", (3, 14)),
])
def test_long_literal_is_a_parse_error_in_the_library(template, where):
    # only the CLI lifts the int/str digit limit; the library reports the
    # literal instead of a bare ValueError from int()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int/str digit limit")
    with pytest.raises(ParseError, match="sys.set_int_max_str_digits") as err:
        load_model(template.format("7" * (limit + 1)))
    assert (err.value.line, err.value.col) == where


def test_parse_error_column_counts_every_token_before_it():
    # "<-", a number and a name each move the column by their length
    with pytest.raises(ParseError, match="expected a statement") as err:
        parse("dim 1\nfield phi even\nsymmetry s: phi <- 12*phi )\n")
    assert (err.value.line, err.value.col) == (3, 27)


def test_index_enumeration_is_bounded(tmp_path, capsys):
    # dim^k rows for k letters at one product level, dim^arity symbols for
    # a family: both are refused before anything is allocated
    from vnoether.model import MAX_ROWS
    rows = ("dim 6\nfield phi even\nlagrangian d[a,b,c,e](phi)*d[a,b,c,e](phi)"
            "*d[f,g,i,j](phi)*d[f,g,i,j](phi)\n")
    assert 6 ** 8 > MAX_ROWS >= 6 ** 4
    with pytest.raises(ElaborationError,
                       match=r"indices \[a, b, c, e, f, g, i, j\]"):
        load_model(rows)
    family = "dim 64\nfield h[a,b,c] even\nlagrangian h[0,0,0]^2\n"
    assert 64 ** 3 > MAX_ROWS >= 64 ** 2
    with pytest.raises(ElaborationError, match="family 'h'"):
        load_model(family)
    assert len(load_model("dim 64\nfield h[a,b] even\n").symbols) == 64 ** 2
    path = tmp_path / "rows.vln"
    path.write_text(rows)
    assert main(["el", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "more than" in err and "Traceback" not in err
