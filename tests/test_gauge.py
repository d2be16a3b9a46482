import random
from fractions import Fraction
from pathlib import Path

import pytest

from vnoether import (EVEN, ODD, FieldSymbol, GaugeError, GeneralizedVectorField,
                      GradedPoly, Lagrangian, NoetherOperator, adjoint,
                      adjoint_table, antifield, check_noether_identity,
                      euler_lagrange, extended_lagrangian, first_variational_residual,
                      gauge_symmetry, ghost_for, is_variational_symmetry, jet,
                      koszul_tate, load_model,
                      noether_operator_from_density,
                      recover_identity)
from vnoether.algebra import JetCapError, var_key
from vnoether.variational import EXACT

from helpers import PHI, PSI, rand_coeff, rand_lagrangian, rand_poly

P = GradedPoly.variable


def _scalar_model():
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    return L, euler_lagrange(L)


def _maxwell2():
    A = [FieldSymbol("A0"), FieldSymbol("A1")]
    F01 = P(jet(A[1], (0,))) - P(jet(A[0], (1,)))
    L = Lagrangian(-Fraction(1, 2) * F01 * F01, 2)
    op = NoetherOperator("gauge", {(A[v], (v,)): GradedPoly.constant(1)
                                   for v in range(2)})
    return A, F01, L, op


def test_koszul_tate_substitution():
    L, el = _scalar_model()
    bar = antifield(PHI)
    assert koszul_tate(P(jet(bar)), el) == -P(jet(PHI, (0, 0)))


def test_koszul_tate_maxwell_divergence():
    A, F01, L, op = _maxwell2()
    el = euler_lagrange(L)
    dens = GradedPoly.zero()
    for mu in range(2):
        dens = dens + P(jet(antifield(A[mu]), (mu,)))
    assert koszul_tate(dens, el).is_zero()


def test_koszul_tate_nilpotent_random():
    rng = random.Random(61)
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2
                   + P(jet(PSI)) * P(jet(PSI, (0,))), 1)
    el = euler_lagrange(L)
    ghost = FieldSymbol("c", "ghost", ODD)
    pool = [jet(s, idx) for s in (PHI, PSI, ghost, antifield(PHI),
                                  antifield(PSI), antifield(ghost))
            for idx in ((), (0,), (0, 0))]
    for _ in range(100):
        poly = GradedPoly.zero()
        for _ in range(rng.randint(1, 3)):
            term = GradedPoly.constant(rand_coeff(rng))
            anti = 0
            for _ in range(rng.randint(1, 3)):
                v = rng.choice(pool)
                if v.symbol.kind == "antifield":
                    if anti >= 2:
                        continue
                    anti += 1
                term = term * P(v)
            poly = poly + term
        assert koszul_tate(koszul_tate(poly, el), el).is_zero()


def test_koszul_tate_mixed_parity_nilpotency():
    # odd fields give even antifields with nonzero equations of motion;
    # the replacement must be inserted at the antifield's position
    rng = random.Random(65)
    theta = FieldSymbol("theta", parity=ODD)
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2
                   + P(jet(theta)) * P(jet(theta, (0,))), 1)
    el = euler_lagrange(L)
    pool = [jet(s, idx)
            for s in (PHI, theta, antifield(PHI), antifield(theta))
            for idx in ((), (0,), (0, 0))]
    for _ in range(150):
        poly = GradedPoly.zero()
        for _ in range(rng.randint(1, 3)):
            term = GradedPoly.constant(rand_coeff(rng))
            anti = 0
            for _ in range(rng.randint(1, 4)):
                v = rng.choice(pool)
                if v.symbol.kind == "antifield":
                    if anti >= 2:
                        continue
                    anti += 1
                term = term * P(v)
            poly = poly + term
        assert koszul_tate(koszul_tate(poly, el), el).is_zero()
    # a mixed-parity boundary is still an identity, with an even ghost
    dens = P(jet(antifield(PHI))) * P(jet(antifield(theta), (0,)))
    image = koszul_tate(dens, el)
    op = noether_operator_from_density(image, "mixed")
    assert check_noether_identity(op, el)
    assert op.parity == EVEN
    ghost = ghost_for(op, "ce")
    result = gauge_symmetry(op, ghost, L)
    assert recover_identity(result.symmetry, ghost, L).coefficients \
        == op.coefficients


def _koszul_tate_per_parity(p, el, cap=6):
    # the even/odd split the involution replaced: right partial = left
    # partial * (-1)^([a]([p]+1)) on each parity part of p
    out = GradedPoly.zero()
    parts = [(par, p.parity_part(par).gradient()) for par in (EVEN, ODD)]
    for a in sorted(filter(lambda v: v.symbol.kind == "antifield",
                           p.variables()), key=var_key):
        repl = el.component(a.symbol.base).total_derivative_multi(a.index, cap)
        if repl.is_zero():
            continue
        for par, gradient in parts:
            right_partial = gradient.get(a)
            if right_partial is None:
                continue
            if a.parity == ODD and par == EVEN:
                right_partial = -right_partial
            out = out + right_partial * repl
    return out


def test_koszul_tate_matches_per_parity_reference():
    # mixed-parity polynomials in odd (phi~) and even (theta~) antifields
    rng = random.Random(66)
    theta = FieldSymbol("theta", parity=ODD)
    ghost = FieldSymbol("c", "ghost", ODD)
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2
                   + P(jet(theta)) * P(jet(theta, (0,))), 1)
    el = euler_lagrange(L)
    pool = [jet(s, idx)
            for s in (PHI, theta, ghost, antifield(PHI), antifield(theta))
            for idx in ((), (0,), (0, 0))]
    seen = set()
    for _ in range(200):
        poly = GradedPoly.zero()
        for _ in range(rng.randint(1, 4)):
            term = GradedPoly.constant(rand_coeff(rng))
            for _ in range(rng.randint(1, 4)):
                term = term * P(rng.choice(pool))
            poly = poly + term
        assert koszul_tate(poly, el) == _koszul_tate_per_parity(poly, el)
        seen |= {(v.parity, poly.parity) for v in poly.variables()
                 if v.symbol.kind == "antifield"}
    assert seen == {(EVEN, EVEN), (EVEN, ODD), (EVEN, None),
                    (ODD, EVEN), (ODD, ODD), (ODD, None)}


def test_check_noether_identity_examples():
    A, F01, LM, op = _maxwell2()
    assert check_noether_identity(op, euler_lagrange(LM))
    L, el = _scalar_model()
    wrong = NoetherOperator("w", {(PHI, ()): GradedPoly.constant(1)})
    assert not check_noether_identity(wrong, el)


def test_boundaries_are_identities():
    rng = random.Random(62)
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2
                   + P(jet(PSI)) ** 2, 1)
    el = euler_lagrange(L)
    bars = [antifield(PHI), antifield(PSI)]
    done = 0
    while done < 25:
        dens = GradedPoly.zero()
        for _ in range(rng.randint(1, 2)):
            term = GradedPoly.constant(rand_coeff(rng))
            term = term * P(jet(rng.choice(bars), rng.choice(((), (0,)))))
            term = term * P(jet(rng.choice(bars), rng.choice(((), (0,)))))
            dens = dens + term
        image = koszul_tate(dens, el)
        if image.is_zero():
            continue
        op = noether_operator_from_density(image, "bnd")
        assert check_noether_identity(op, el)
        done += 1


def test_adjoint_examples():
    f = P(jet(PHI))
    op1 = NoetherOperator("t1", {(PSI, ()): f})
    c1 = ghost_for(op1, "c1")
    assert c1.parity == ODD
    u1 = adjoint(op1, c1)
    assert u1.component(PSI) == P(jet(c1)) * f
    op2 = NoetherOperator("t2", {(PSI, (0,)): GradedPoly.constant(1)})
    c2 = ghost_for(op2, "c2")
    u2 = adjoint(op2, c2)
    assert u2.component(PSI) == -P(jet(c2, (0,)))
    op3 = NoetherOperator("t3", {(PSI, (0, 0)): P(jet(PHI))})
    c3 = ghost_for(op3, "c3")
    u3 = adjoint(op3, c3)
    expect = (P(jet(c3, (0, 0))) * P(jet(PHI))
              + 2 * P(jet(c3, (0,))) * P(jet(PHI, (0,)))
              + P(jet(c3)) * P(jet(PHI, (0, 0))))
    assert u3.component(PSI) == expect
    eta = adjoint_table(op3)
    assert eta[(PSI, ())] == P(jet(PHI, (0, 0)))
    assert eta[(PSI, (0,))] == 2 * P(jet(PHI, (0,)))
    assert eta[(PSI, (0, 0))] == P(jet(PHI))
    # a ghost jet past the jet cap is refused, as any other jet
    with pytest.raises(JetCapError):
        adjoint(op2, c2, cap=0)


def test_adjoint_involution_check_fails_on_a_corrupted_table(monkeypatch):
    # adjoint checks its table by the involution, so one flipped
    # coefficient of eta is caught before u is built from it
    from vnoether import gauge
    op = NoetherOperator("t", {(PSI, (0, 0)): P(jet(PHI))})
    ghost = ghost_for(op, "c")
    true_table = gauge.adjoint_table

    def flipped(op, cap):
        eta = true_table(op, cap)
        eta[(PSI, (0,))] = -eta[(PSI, (0,))]
        return eta

    monkeypatch.setattr(gauge, "adjoint_table", flipped)
    with pytest.raises(AssertionError, match="adjoint involution failed"):
        adjoint(op, ghost)


def test_adjoint_parity_mismatch():
    op = NoetherOperator("p", {(PSI, ()): P(jet(PHI))})
    with pytest.raises(GaugeError):
        adjoint(op, FieldSymbol("c", "ghost", EVEN))


def test_adjoint_involution_random():
    rng = random.Random(63)
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    indices = ((), (0,), (0, 0))
    done = 0
    while done < 100:
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            key = (rng.choice((PHI, PSI)), rng.choice(indices))
            poly = rand_poly(rng, (PHI, PSI), max_order=1, parity=EVEN)
            if poly.is_zero():
                continue
            coeffs[key] = coeffs.get(key, GradedPoly.zero()) + poly
        op = NoetherOperator(f"r{done}", coeffs)
        if not op.coefficients:
            continue
        ghost = ghost_for(op, "cg")
        u = adjoint(op, ghost)
        recovered = recover_identity(u, ghost, L, "rec")
        assert recovered.coefficients == op.coefficients
        done += 1


def test_recover_identity_examples():
    A, F01, LM, op = _maxwell2()
    ghost = ghost_for(op, "c")
    u = adjoint(op, ghost)
    recovered = recover_identity(u, ghost, LM, "rec")
    assert recovered.coefficients == op.coefficients
    zero = recover_identity(GeneralizedVectorField.make({}), ghost, LM)
    assert not zero.coefficients
    with pytest.raises(GaugeError):
        recover_identity(GeneralizedVectorField.make(
            {PHI: P(jet(PHI))}), ghost, LM)


def test_gauge_symmetry_maxwell():
    A, F01, LM, op = _maxwell2()
    ghost = ghost_for(op, "c")
    result = gauge_symmetry(op, ghost, LM)
    for v in range(2):
        assert result.symmetry.component(A[v]) == -P(jet(ghost, (v,)))
    def F(m, v):
        if m == v:
            return GradedPoly.zero()
        return F01 if (m, v) == (0, 1) else -F01
    for mu in range(2):
        expect = GradedPoly.zero()
        for v in range(2):
            expect = expect + P(jet(ghost, (v,))) * F(v, mu)
        assert result.current.component(mu) == expect


def test_gauge_symmetry_refuses_bad_identity():
    L, el = _scalar_model()
    bad = NoetherOperator("bad", {(PHI, ()): GradedPoly.constant(1)})
    with pytest.raises(GaugeError) as info:
        gauge_symmetry(bad, ghost_for(bad, "c"), L)
    # the refusal carries the one evaluation of the identity
    assert info.value.residual == bad.contraction(euler_lagrange(L))
    assert not info.value.residual.is_zero()


def test_gauge_symmetry_trivial():
    L = Lagrangian(P(jet(PHI)) ** 2, 1)
    op = NoetherOperator("none", {})
    result = gauge_symmetry(op, ghost_for(op, "c"), L)
    assert not result.symmetry.vertical
    assert all(p.is_zero() for p in result.current.components.values())


def test_gauge_symmetry_two_field_shift():
    chi = FieldSymbol("chi")
    p = P(jet(PHI, (0,))) - P(jet(chi, (0,)))
    L = Lagrangian(Fraction(1, 2) * p * p, 1)
    op = NoetherOperator("shift", {(PHI, ()): GradedPoly.constant(1),
                                   (chi, ()): GradedPoly.constant(1)})
    ghost = ghost_for(op, "c")
    result = gauge_symmetry(op, ghost, L)
    assert result.symmetry.component(PHI) == P(jet(ghost))
    assert result.symmetry.component(chi) == P(jet(ghost))
    # second-Noether round trip
    assert first_variational_residual(result.symmetry, L).is_zero()
    assert is_variational_symmetry(result.symmetry, L).status == EXACT


def test_second_noether_round_trip_random():
    rng = random.Random(64)
    done = 0
    while done < 20:
        L = rand_lagrangian(rng, dim=1, max_order=1)
        el = euler_lagrange(L, [PHI, PSI])
        bars = [antifield(PHI), antifield(PSI)]
        dens = GradedPoly.zero()
        for _ in range(rng.randint(1, 2)):
            term = GradedPoly.constant(rand_coeff(rng))
            term = term * P(jet(rng.choice(bars), rng.choice(((), (0,)))))
            term = term * P(jet(rng.choice(bars), rng.choice(((), (0,)))))
            dens = dens + term
        image = koszul_tate(dens, el)
        if image.is_zero():
            continue
        op = noether_operator_from_density(image, "bnd")
        if not op.coefficients:
            continue
        ghost = ghost_for(op, "cg")
        result = gauge_symmetry(op, ghost, L)
        assert is_variational_symmetry(result.symmetry, L).status == EXACT
        done += 1


def test_extended_lagrangian():
    A, F01, LM, op = _maxwell2()
    ghost = ghost_for(op, "c")
    out = extended_lagrangian(LM, [(op, ghost)])
    assert out == LM.density + P(jet(ghost)) * op.density()
    el = euler_lagrange(LM)
    assert koszul_tate(out, el).is_zero()
    L, _ = _scalar_model()
    assert extended_lagrangian(L, []) == L.density
    wrong = NoetherOperator("w", {(PHI, ()): GradedPoly.constant(1)})
    with pytest.raises(GaugeError):
        extended_lagrangian(L, [(wrong, ghost_for(wrong, "cw"))])


def test_parity_bookkeeping():
    # ghost parity equals the density parity of its operator; mismatches
    # are construction-time errors
    op_even_field = NoetherOperator("a", {(PHI, ()): P(jet(PSI))})
    assert op_even_field.parity == ODD
    assert ghost_for(op_even_field, "c").parity == ODD
    odd_sym = FieldSymbol("th", "ghost", ODD)
    op_odd_field = NoetherOperator("b", {(odd_sym, ()): P(jet(PHI))})
    assert op_odd_field.parity == EVEN
    mixed = NoetherOperator("m", {(PHI, ()): P(jet(PSI)),
                                  (odd_sym, ()): P(jet(PHI))})
    with pytest.raises(GaugeError):
        mixed.parity


def test_every_single_sign_mutant_of_the_corpus_identities_fails():
    # negating one coefficient Delta^{A,I} of a declared identity moves its
    # contraction by -2 Delta^{A,I} d_I E_A, computed here term by term; a
    # fold that dropped or double-counted a summand would break the equality,
    # and a check that always passed would accept the mutant
    root = Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("models/*.vln")) \
        + sorted(root.glob("perfbench/models/*.vln"))
    mutants = 0
    for path in paths:
        model = load_model(path.read_text(encoding="utf-8"))
        el = model.lagrangian.el
        cap = model.jet_cap
        for op in model.identities.values():
            residual = op.contraction(el, cap)
            for (sym, index), delta in op.coefficients.items():
                flipped = dict(op.coefficients)
                flipped[(sym, index)] = -delta
                got = NoetherOperator(op.name, flipped).contraction(el, cap)
                shift = delta * el.component(sym).total_derivative_multi(
                    index, cap)
                assert got == residual - 2 * shift, (path.name, op.name)
                assert not got.is_zero(), (path.name, op.name, sym, index)
                mutants += 1
    assert mutants >= 133   # the corpus and benchmark models hold 133
