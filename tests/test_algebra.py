import functools
import math
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest

from vnoether import (EVEN, KIND_ANTIFIELD, KIND_FIELD, KIND_GHOST, ODD,
                      DeclarationError, EvaluationError, FieldSymbol,
                      GradedPoly, GrassmannAlgebra, GrassmannElement,
                      JetCapError, antifield, jet, poly_text, poly_to_data)
from vnoether.algebra import (bump, mi_binomial, mi_permutations,
                              multi_index, var_key)

from helpers import (CH2 as C, PHI, PSI, assert_canonical, poly_from_data,
                     rand_element, rand_poly, ref_evaluate)

P = GradedPoly.variable


def test_multi_index_canonical():
    assert multi_index((2, 0, 1)) == (0, 1, 2)
    assert multi_index(()) == ()
    assert mi_permutations((0, 0, 1)) == 3
    assert mi_binomial((0, 0, 1), (0,)) == 2


def test_odd_square_vanishes():
    c = jet(C)
    assert (P(c) * P(c)).is_zero()


def test_reordering_sign():
    c, cx = jet(C), jet(C, (0,))
    # c_x*c normalizes to -c*c_x, so the difference collapses to one
    # monomial with coefficient 2 after reordering with sign
    assert P(cx) * P(c) == -(P(c) * P(cx))
    assert P(cx) * P(c) - P(c) * P(cx) == -2 * (P(c) * P(cx))
    assert (P(cx) * P(c) + P(c) * P(cx)).is_zero()


def test_like_terms_collect():
    phi = P(jet(PHI))
    assert phi + phi == 2 * phi


def test_canonical_form_uniqueness_random():
    # random reassociation/reordering of products denote the same element
    rng = random.Random(5)
    vars_ = [jet(PHI), jet(PHI, (0,)), jet(PSI), jet(C), jet(C, (0,))]
    for _ in range(100):
        factors = [rng.choice(vars_) for _ in range(rng.randint(2, 5))]
        left = GradedPoly.constant(1)
        for v in factors:
            left = left * P(v)
        # reassociate: random split point, then multiply the blocks
        k = rng.randint(1, len(factors) - 1)
        a = GradedPoly.constant(1)
        for v in factors[:k]:
            a = a * P(v)
        b = GradedPoly.constant(1)
        for v in factors[k:]:
            b = b * P(v)
        assert a * b == left
        # reorder with the graded sign: count odd transpositions via bubble
        perm = list(range(len(factors)))
        rng.shuffle(perm)
        sign = 1
        order = list(perm)
        for i in range(len(order)):
            for j in range(len(order) - 1 - i):
                if order[j] > order[j + 1]:
                    if factors[order[j]].parity and factors[order[j + 1]].parity:
                        sign = -sign
                    order[j], order[j + 1] = order[j + 1], order[j]
        right = GradedPoly.constant(sign)
        for idx in perm:
            right = right * P(factors[idx])
        assert right == left


def test_graded_commutativity_random():
    rng = random.Random(6)
    done = 0
    while done < 200:
        p = rand_poly(rng, parity=rng.randint(0, 1))
        q = rand_poly(rng, parity=rng.randint(0, 1))
        if p.is_zero() or q.is_zero():
            continue
        sign = -1 if (p.parity and q.parity) else 1
        assert p * q == (q * p) * Fraction(sign)
        done += 1


def test_mixed_parity_product_example():
    phi, c = P(jet(PHI)), P(jet(C))
    assert (phi + c) * (phi - c) == phi ** 2


def test_partial_examples():
    phi, c, cx = jet(PHI), jet(C), jet(C, (0,))
    assert (P(phi) ** 2).partial(phi) == 2 * P(phi)
    assert (P(c) * P(cx)).partial(c) == P(cx)
    assert (P(c) * P(cx)).partial(cx) == -P(c)
    assert (P(phi)).partial(jet(PSI)).is_zero()
    assert P(phi).partial(phi) == GradedPoly.constant(1)


def test_partial_left_leibniz_random():
    rng = random.Random(7)
    done = 0
    while done < 80:
        p = rand_poly(rng, parity=rng.randint(0, 1))
        q = rand_poly(rng, parity=rng.randint(0, 1))
        if p.is_zero() or q.is_zero():
            continue
        v = rng.choice([jet(PHI), jet(C), jet(C, (0,)), jet(PSI, (0,))])
        sign = -1 if (v.parity and p.parity) else 1
        lhs = (p * q).partial(v)
        rhs = p.partial(v) * q + Fraction(sign) * (p * q.partial(v))
        assert lhs == rhs
        done += 1


def test_total_derivative_examples():
    phi, phix, phixx = jet(PHI), jet(PHI, (0,)), jet(PHI, (0, 0))
    c, cx, cxx = jet(C), jet(C, (0,)), jet(C, (0, 0))
    assert (P(phi) * P(phix)).total_derivative(0) == P(phix) ** 2 + P(phi) * P(phixx)
    assert (P(c) * P(cx)).total_derivative(0) == P(c) * P(cxx)
    p = P(jet(PHI))
    assert p.total_derivative(0).total_derivative(1) == P(jet(PHI, (0, 1)))
    assert p.total_derivative(1).total_derivative(0) == P(jet(PHI, (0, 1)))


def test_total_derivatives_commute_random():
    rng = random.Random(8)
    for _ in range(120):
        p = rand_poly(rng, dim=2, max_order=3)
        a = p.total_derivative(0).total_derivative(1)
        b = p.total_derivative(1).total_derivative(0)
        assert a == b


def test_jet_cap():
    p = P(jet(PHI, (0,) * 6))
    with pytest.raises(JetCapError):
        p.total_derivative(0, cap=6)
    assert p.total_derivative(0, cap=7) == P(jet(PHI, (0,) * 7))


def test_evaluate_examples():
    alg = GrassmannAlgebra(4)
    phi = jet(PHI)
    assert (P(phi) ** 2).evaluate({phi: Fraction(3)}, alg) == alg.scalar(9)
    c, cx = jet(C), jet(C, (0,))
    t1, t2 = alg.generator(0), alg.generator(1)
    assert (P(c) * P(c)).evaluate({c: t1}, alg).is_zero()
    assert (P(c) * P(cx)).evaluate({c: t1, cx: t2}, alg) == t1 * t2
    with pytest.raises(EvaluationError):
        P(phi).evaluate({}, alg)


def test_evaluate_homomorphism_random():
    rng = random.Random(9)
    alg = GrassmannAlgebra(4)
    variables = [jet(PHI), jet(PSI), jet(C), jet(FieldSymbol("b", KIND_GHOST, ODD))]
    done = 0
    while done < 100:
        p = rand_poly(rng, max_order=0, max_factors=2)
        q = rand_poly(rng, max_order=0, max_factors=2)
        assign = {}
        gens = iter(range(4))
        for v in sorted(p.variables() | q.variables(),
                        key=lambda v: v.symbol.name):
            if v.parity == ODD:
                assign[v] = alg.generator(next(gens))
            else:
                assign[v] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        ev = lambda r: r.evaluate(assign, alg)
        assert ev(p * q) == ev(p) * ev(q)
        assert ev(p + q) == ev(p) + ev(q)
        done += 1


def test_serialization_roundtrip():
    rng = random.Random(10)
    symbols = {s.name: s for s in (PHI, PSI, C)}
    for _ in range(25):
        p = rand_poly(rng, symbols=(PHI, PSI, C), dim=2)
        data = poly_to_data(p)
        assert poly_from_data(data, symbols) == p
    assert poly_to_data(GradedPoly.zero()) == []


def test_antifield_parity_invariant():
    from vnoether import antifield
    assert antifield(PHI).parity == ODD
    assert antifield(C).parity == EVEN
    assert antifield(PHI).base is PHI


# ---------------------------------------------------------------------------
# ring invariants

def test_coefficients_stay_canonical_random():
    rng = random.Random(11)
    for _ in range(150):
        p, q = rand_poly(rng, max_terms=4), rand_poly(rng, max_terms=4)
        results = [p + q, p * q, p - q, -p, p * Fraction(3, 1),
                   p * Fraction(1, 2), p * -1, Fraction(2) * p,
                   p.total_derivative(0)]
        results.extend(p.partial(v) for v in p.variables())
        for r in results:
            assert_canonical(r)


def test_integral_fraction_results_are_stored_as_int():
    phi = P(jet(PHI))
    half = Fraction(1, 2)
    assert type(GradedPoly.constant(Fraction(4, 2)).constant_term()) is int
    assert type((phi * half * 2).partial(jet(PHI)).constant_term()) is int
    assert type((half * phi ** 2).partial(jet(PHI)).partial(jet(PHI))
                .constant_term()) is int
    assert type((half * phi + half * phi).partial(jet(PHI))
                .constant_term()) is int
    assert type((half * phi * (2 * phi)).partial(jet(PHI)).partial(jet(PHI))
                .constant_term()) is int
    assert GradedPoly.zero().constant_term() == 0
    assert type(GradedPoly.zero().constant_term()) is int


def test_scalar_multiplication_by_one_and_minus_one():
    p = rand_poly(random.Random(3), max_terms=4)
    assert p * 1 is p
    assert p * -1 == -p
    assert (p * 0).is_zero()


def test_gradient_matches_partials_random():
    rng = random.Random(12)
    for _ in range(150):
        p = rand_poly(rng, dim=2, max_terms=4)
        grad = p.gradient()
        assert grad == {v: p.partial(v) for v in p.variables()}
        assert all(not g.is_zero() for g in grad.values())
        for g in grad.values():
            assert_canonical(g)
    assert GradedPoly.zero().gradient() == {}


def test_equal_symbols_built_apart_are_equal_and_hash_equal():
    a, b = antifield(PHI), antifield(PHI)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert jet(a, (0,)) == jet(b, (0,))
    assert hash(jet(a, (0,))) == hash(jet(b, (0,)))
    assert P(jet(a)) + P(jet(b)) == 2 * P(jet(a))


def test_symbols_differing_in_one_field_are_unequal():
    assert FieldSymbol("c", KIND_FIELD) != FieldSymbol("c", KIND_GHOST)
    assert FieldSymbol("c", KIND_GHOST, EVEN) != FieldSymbol("c", KIND_GHOST, ODD)
    assert antifield(PHI) != antifield(FieldSymbol("phi", KIND_GHOST))
    assert PHI != "phi"
    # distinct symbols sharing kind and name keep distinct variable keys:
    # their even product commutes, their odd product anticommutes
    s = antifield(FieldSymbol("phi", KIND_FIELD, ODD))
    t = antifield(FieldSymbol("phi", KIND_GHOST, ODD))
    assert s != t and s.name == t.name == "phi~" and s.parity == EVEN
    x0, x1 = P(jet(s)), P(jet(t))
    assert not (x0 * x1).is_zero() and x0 * x1 == x1 * x0
    a = P(jet(antifield(PHI)))
    b = P(jet(antifield(FieldSymbol("phi", KIND_GHOST))))
    assert not (a * b).is_zero() and a * b == -(b * a)


def test_public_constructor_drops_zeros():
    k = next(iter(P(jet(PHI)).terms))
    k2 = next(iter(P(jet(PSI)).terms))
    p = GradedPoly({k: 0, k2: 1})
    assert p == P(jet(PSI))
    assert list(p.terms) == [k2]
    assert type(GradedPoly({k: Fraction(6, 3)}).terms[k]) is int


def test_jet_variables_are_interned():
    assert jet(PHI, (1, 0)) is jet(PHI, (0, 1))
    a, b = antifield(PHI), antifield(PHI)
    assert a is not b and jet(a, (0,)) is jet(b, (0,))
    assert jet(PHI) is not jet(PSI) and jet(PHI) is not jet(PHI, (0,))
    v = jet(C, (2,))
    assert pickle.loads(pickle.dumps(v)) is v
    with pytest.raises(AttributeError):
        v.index = (3,)


def test_field_symbols_are_immutable_values_that_pickle_by_value():
    a = antifield(FieldSymbol("chi", KIND_GHOST, ODD))
    twin = antifield(FieldSymbol("chi", KIND_GHOST, ODD))
    assert a is not twin and a == twin and hash(a) == hash(twin)
    for attr, value in (("name", "x"), ("parity", ODD), ("base", None),
                        ("_hash", 0)):
        with pytest.raises(AttributeError):
            setattr(a, attr, value)
    with pytest.raises(AttributeError):
        del a.name
    assert a.name == "chi~" and a.parity == EVEN and a._hash == hash(twin)
    back = pickle.loads(pickle.dumps(a))
    assert back is not a and back == a and hash(back) == hash(a)
    assert back.base == a.base and back.base is not a.base
    # a pickled jet variable comes back as the interned one
    v = jet(a, (0, 1))
    assert pickle.loads(pickle.dumps(v)) is v
    assert pickle.loads(pickle.dumps(jet(back, (1, 0)))) is v
    # JetVariable's repr embeds the symbol's
    assert repr(jet(PHI, (0,))) == (
        "JetVariable(symbol=FieldSymbol(name='phi', kind='field', parity=0, "
        "base=None), index=(0,))")


def test_memoized_successor_still_meets_the_cap():
    # d_1 of phi_{,0} is memoized under cap 6; cap 1 must still refuse it
    v = jet(PHI, (0,))
    assert bump(v, 1, 6) is jet(PHI, (0, 1))
    with pytest.raises(JetCapError):
        bump(v, 1, 1)
    with pytest.raises(JetCapError):
        P(v).total_derivative(1, cap=1)


def test_stored_key_sorts_like_the_built_key():
    syms = [PHI, PSI, C, antifield(PHI), antifield(C),
            antifield(FieldSymbol("phi", KIND_GHOST)),
            FieldSymbol("x"), FieldSymbol("c", KIND_GHOST, EVEN)]
    variables = [jet(s, i) for s in syms
                 for i in ((), (0,), (1,), (0, 1), (1, 1))]
    random.Random(7).shuffle(variables)
    rank = {KIND_FIELD: 0, KIND_GHOST: 1, KIND_ANTIFIELD: 2}

    def built(v):
        s = v.symbol
        return (rank[s.kind], s.name, v.index, s._tie)

    assert sorted(variables, key=var_key) == sorted(variables, key=built)
    assert len({var_key(v) for v in variables}) == len(variables)


def test_split_linear_round_trip():
    # random polynomials linear in the jets of an odd and an even ghost,
    # with odd fields in the coefficients and the ghost-free part: the
    # factored monomials, put back together on their side, give p back
    theta = FieldSymbol("theta", KIND_FIELD, ODD)
    even_ghost = FieldSymbol("e", KIND_GHOST, EVEN)
    ghosts = {C, even_ghost}
    fields = (PHI, PSI, theta)
    rng = random.Random(53)
    for _ in range(60):
        p = rand_poly(rng, fields, dim=2, max_order=1)
        for _ in range(rng.randint(1, 3)):
            g = P(jet(rng.choice((C, even_ghost)),
                      rng.choice([(), (0,), (1,), (0, 1)])))
            coeff = rand_poly(rng, fields, dim=2, max_order=1)
            p = p + (coeff * g if rng.random() < 0.5 else g * coeff)
        for side in ("left", "right"):
            table, free = p.split_linear(lambda v: v.symbol in ghosts, side)
            assert not free.symbols() & ghosts
            rebuilt = free
            for v, coeff in table.items():
                assert not coeff.is_zero()
                assert not coeff.symbols() & ghosts
                rebuilt = rebuilt + (coeff * P(v) if side == "right"
                                     else P(v) * coeff)
            assert rebuilt == p, side
    # a monomial of degree two in the matched variables is refused
    for bad in (P(jet(even_ghost)) ** 2 * P(jet(theta)),
                P(jet(C, (0,))) * P(jet(PHI)) * P(jet(even_ghost, (1,))),
                P(jet(C)) * P(jet(theta)) + P(jet(C)) * P(jet(C, (0,)))):
        for side in ("left", "right"):
            with pytest.raises(ValueError):
                bad.split_linear(lambda v: v.symbol in ghosts, side)


def test_sum_is_the_fold_of_add():
    # the one fold agrees with adding one operand at a time, odd ghosts
    # included, and leaves its operands as they were
    rng = random.Random(71)
    for _ in range(80):
        polys = [rand_poly(rng, max_terms=4) for _ in range(rng.randint(0, 6))]
        if polys and rng.random() < 0.3:
            polys.append(-polys[0])
        before = [dict(p.terms) for p in polys]
        total = GradedPoly.sum(polys)
        assert total == functools.reduce(operator.add, polys, GradedPoly.zero())
        # and a coefficient table built without the ring
        table = {}
        for p in polys:
            for c, factors in p.monomials():
                table[factors] = table.get(factors, 0) + c
        assert {f: c for c, f in total.monomials()} \
            == {f: c for f, c in table.items() if c}
        assert_canonical(total)
        assert [p.terms for p in polys] == before


def test_sum_edge_cases():
    assert GradedPoly.sum([]).is_zero()
    assert GradedPoly.sum(iter([])) == GradedPoly.zero()
    p = P(jet(PHI, (0,))) * P(jet(C)) - 3 * P(jet(PSI))
    cancelled = GradedPoly.sum([p, GradedPoly.zero(), -p])
    assert cancelled.is_zero() and not cancelled.terms
    half = GradedPoly.constant(Fraction(1, 2))
    one = GradedPoly.sum([half, half])
    assert one == 1 and type(one.constant_term()) is int
    assert GradedPoly.sum([p]) is p


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int/str digit limit")
def test_long_coefficients_print_under_the_digit_limit():
    # poly_text and poly_to_data write every digit of a coefficient past
    # the default int/str digit limit, which this process keeps; the
    # expected digits are written out because str() cannot give them
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)   # the default limit
    try:
        with pytest.raises(ValueError):
            str(10 ** 5000)
        cases = {10 ** 5000: "1" + "0" * 5000,
                 10 ** 5000 + 1: "1" + "0" * 4999 + "1",
                 -(10 ** 5000 - 1): "-" + "9" * 5000,
                 Fraction(-7 * 10 ** 4999, 3): "-7" + "0" * 4999 + "/3",
                 Fraction(1, 10 ** 5000 + 1): "1/1" + "0" * 4999 + "1"}
        for c, text in cases.items():
            p = GradedPoly.constant(c)
            assert poly_text(p) == text
            assert poly_to_data(p)[0]["coeff"] == text
        assert poly_text(GradedPoly.constant(10 ** 5000) * P(jet(PHI))) \
            == f"(1{'0' * 5000})*phi"
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# the fraction-free layout: int numerators over one reduced denominator

def _assert_reduced(p):
    """gcd(den, every numerator) is 1 and zero has den 1, so equal
    polynomials have equal (terms, den)."""
    assert all(type(c) is int and c for c in p.terms.values()), p.terms
    assert type(p.den) is int and p.den >= 1
    assert math.gcd(p.den, *p.terms.values()) == 1 if p.terms else p.den == 1


def _rational_poly(rng, max_terms=4):
    """Coefficients p/q with q <= 6 over even and odd jets of two bases."""
    symbols = (PHI, PSI, C, FieldSymbol("b", KIND_GHOST, ODD))
    indices = [(), (0,), (1,), (0, 1)]
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        term = GradedPoly.constant(
            Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)))
        for _ in range(rng.randint(0, 3)):
            term = term * P(jet(rng.choice(symbols), rng.choice(indices)))
        terms.append(term)
    return GradedPoly.sum(terms)


def test_one_rational_has_one_layout():
    x = P(jet(PHI))
    k = next(iter(x.terms))
    half = [GradedPoly({k: Fraction(2, 4)}),
            GradedPoly.constant(Fraction(1, 2)) * x,
            (x + x) * Fraction(1, 4),
            GradedPoly({k: Fraction(1, 2), next(iter(P(jet(PSI)).terms)): 0})]
    for p in half:
        _assert_reduced(p)
        assert p == half[0] and hash(p) == hash(half[0])
        assert (p.terms, p.den) == ({k: 1}, 2)
    y = P(jet(PSI, (0,))) * P(jet(C))
    p = Fraction(1, 2) * x + Fraction(3, 2) * y
    assert p * 2 == x + 3 * y and hash(p * 2) == hash(x + 3 * y)
    assert (p * 2).den == 1
    # the public constructor takes int and Fraction values mixed
    mixed = GradedPoly({k: 2, next(iter(y.terms)): Fraction(1, 3)})
    assert mixed == 2 * x + Fraction(1, 3) * y and mixed.den == 3
    assert GradedPoly.sum([p, -p]).den == 1


def test_ring_laws_over_rational_coefficients_random():
    rng = random.Random(2203)
    alg = GrassmannAlgebra(8)
    for _ in range(150):
        p, q, r = (_rational_poly(rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert (p - p).is_zero() and (p - p).den == 1
        for lam in (0, 1):
            assert (p * q).total_derivative(lam) \
                == p.total_derivative(lam) * q + p * q.total_derivative(lam)
        results = [p * q, p + q, p - q, -p, p * Fraction(6, 5),
                   p.total_derivative(0), p.involution(), p.parity_part(ODD),
                   GradedPoly.sum([p, q, r])]
        results.extend(p.gradient().values())
        for res in results:
            _assert_reduced(res)
            assert_canonical(res)
        assign = {}
        gens = iter(range(8))
        for v in sorted(p.variables() | q.variables(), key=var_key):
            assign[v] = (alg.generator(next(gens)) if v.parity == ODD
                         else Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
        ev = lambda s: s.evaluate(assign, alg)
        assert ev(p * q) == ev(p) * ev(q)
        assert ev(p + q) == ev(p) + ev(q)


def test_ring_arithmetic_builds_no_fraction(monkeypatch):
    # products, sums and derivatives of rational polynomials run on int
    # numerators: with Fraction arithmetic disabled they give the same
    # polynomials, whose coefficients are read only afterwards
    rng = random.Random(2204)
    pairs = [(_rational_poly(rng), _rational_poly(rng)) for _ in range(20)]

    def run():
        out = []
        for p, q in pairs:
            v = next(iter(p.variables()), jet(PHI))
            out += [p * q, GradedPoly.sum([p, q, -p, q]), p - q,
                    p * Fraction(2, 3), p.total_derivative(1),
                    p.partial(v), p.parity_part(EVEN)]
        return out

    expected = run()

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the ring")

    with monkeypatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__neg__"):
            patch.setattr(Fraction, name, refuse)
        got = run()
    assert got == expected
    assert [list(p.monomials()) for p in got] \
        == [list(p.monomials()) for p in expected]
    assert any(type(c) is Fraction for p in got for c, _ in p.monomials())


# ---------------------------------------------------------------------------
# evaluation in the Grassmann oracle against the per-factor reference

def _evaluation_point(rng, variables, alg):
    """Odd variables get distinct generators or odd elements, even ones
    ints, Fractions or even elements; None when the generators run out."""
    point, gens = {}, list(range(alg.ngen))
    rng.shuffle(gens)
    for v in sorted(variables, key=var_key):
        kind = rng.randint(0, 2)
        if v.parity == ODD:
            if not gens:
                return None
            point[v] = (alg.generator(gens.pop()) if kind
                        else rand_element(rng, alg, ODD, max_terms=2))
        elif kind == 0:
            point[v] = rng.randint(-4, 4)
        elif kind == 1:
            point[v] = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        else:
            point[v] = rand_element(rng, alg, EVEN, max_terms=3)
    return point


def test_evaluate_matches_the_per_factor_reference_random():
    rng = random.Random(2705)
    alg = GrassmannAlgebra(6)
    done = 0
    while done < 300:
        p = (_rational_poly(rng) if rng.random() < 0.5 else
             rand_poly(rng, dim=2, max_factors=4, max_terms=5))
        point = _evaluation_point(rng, p.variables(), alg)
        if point is None:
            continue
        got = p.evaluate(point, alg)
        want = ref_evaluate(p, point, alg)
        assert got.terms == want, (p, point)
        assert got == GrassmannElement(alg, want)
        assert math.gcd(got.den, *got.num.values()) == 1 \
            if got.num else got.den == 1
        done += 1
    # an even variable to a power, the value an even element
    phi, c = jet(PHI), jet(C)
    x = alg.scalar(Fraction(1, 2)) + alg.generator(0) * alg.generator(1)
    p = P(phi) ** 3 * P(c) * Fraction(2, 3)
    point = {phi: x, c: alg.generator(2)}
    assert p.evaluate(point, alg).terms == ref_evaluate(p, point, alg)
    assert p.evaluate(point, alg) \
        == x * x * x * alg.generator(2) * Fraction(2, 3)
    # the factor order holds even for odd values given to even variables
    psi = jet(PSI)
    g0, g1 = alg.generator(0), alg.generator(1)
    point = {phi: g0, psi: g1}
    assert (P(phi) * P(psi)).evaluate(point, alg) == g0 * g1 \
        == GrassmannElement(alg, ref_evaluate(P(phi) * P(psi), point, alg))


def test_evaluate_names_the_first_missing_variable_random():
    rng = random.Random(2706)
    alg, other = GrassmannAlgebra(6), GrassmannAlgebra(6)
    raised = 0
    for _ in range(300):
        p = rand_poly(rng, dim=2, max_factors=4, max_terms=4)
        point = _evaluation_point(rng, p.variables(), alg)
        if point is None:
            continue
        for v in list(point):
            if rng.random() < 0.3:
                del point[v]
            elif rng.random() < 0.1:
                point[v] = other.scalar(1) if v.parity == EVEN \
                    else other.generator(0)
        errors = []
        for run in (lambda: p.evaluate(point, alg),
                    lambda: ref_evaluate(p, point, alg)):
            try:
                run()
                errors.append(None)
            except (EvaluationError, ValueError) as exc:
                errors.append((type(exc), str(exc)))
        assert errors[0] == errors[1], (p, errors)
        raised += errors[0] is not None
    assert raised > 100


def test_evaluate_builds_no_fraction(monkeypatch):
    # rational values are read as numerator and denominator, so with
    # Fraction construction and arithmetic refused the evaluation is the same
    rng = random.Random(2707)
    alg = GrassmannAlgebra(6)
    cases = []
    while len(cases) < 40:
        p = _rational_poly(rng)
        point = _evaluation_point(rng, p.variables(), alg)
        if point is not None:
            cases.append((p, point))
    expected = [p.evaluate(point, alg) for p, point in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built or used in evaluate")

    with monkeypatch.context() as patch:
        for name in ("__new__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__neg__", "__pow__", "__eq__", "__hash__"):
            patch.setattr(Fraction, name, refuse)
        got = [p.evaluate(point, alg) for p, point in cases]
    assert [(x.num, x.den) for x in got] \
        == [(x.num, x.den) for x in expected]
    assert any(x.den > 1 for x in got)
