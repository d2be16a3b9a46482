"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an identity over the rationals; the tolerance everywhere is
exactly zero.  Each test prints a single pass line so running this module
with ``pytest -s`` yields a per-criterion report.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from vnoether import (EVEN, ODD, Current, FieldSymbol,
                      GradedPoly, GrassmannAlgebra, Lagrangian,
                      NoetherOperator, adjoint, antifield, check_lepage,
                      check_noether_identity, euler_lagrange,
                      euler_lagrange_form, extract,
                      first_variational_residual, gauge_symmetry, ghost_for,
                      jet, koszul_tate, lie_derivative,
                      load_model, lepage_equivalent, prolong,
                      recover_identity, structural_checks, verify_split)
from vnoether.forms import contract
from helpers import (CH2, PHI, PSI, rand_coeff, rand_form,
                     rand_lagrangian, rand_poly, rand_vertical)

P = GradedPoly.variable
ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

CORPUS = ["scalar_shift.vln", "two_field_shift.vln", "maxwell2.vln",
          "maxwell2_minkowski.vln", "maxwell4.vln", "maxwell4_minkowski.vln"]


def report(line):
    print(line)


def test_criterion_1_variational_complex_identities():
    started = time.monotonic()
    rng = random.Random(101)
    for trial in range(200):
        dim = rng.choice([1, 2, 3])
        # horizontal square zero on mixed forms with odd generators
        form = rand_form(rng, dim=dim, max_order=3, max_terms=2)
        assert form.horizontal_differential(cap=8) \
            .horizontal_differential(cap=8).is_zero()
        # the Euler-Lagrange operator kills total divergences
        comps = {mu: rand_poly(rng, dim=dim, max_order=3, max_factors=3)
                 for mu in range(dim)}
        density = Current(comps, dim).divergence(cap=8)
        L = Lagrangian(density, dim,
                       parity=density.parity if density.parity is not None
                       else EVEN, jet_cap=8)
        assert euler_lagrange(L).is_zero(), (trial, density)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(f"criterion 1 (complex identities, 200 random cases, "
           f"{elapsed:.1f}s): PASS")


def test_criterion_2_lepage_identity():
    started = time.monotonic()
    # the stated second-order fixture
    L2 = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0, 0))) ** 2, 1)
    assert check_lepage(L2)
    rng = random.Random(102)
    for trial in range(100):
        dim = rng.choice([1, 2])
        L = rand_lagrangian(rng, dim=dim, max_order=2)
        assert check_lepage(L), (trial, L.density)
    elapsed = time.monotonic() - started
    report(f"criterion 2 (Lepage decomposition, 100 random + order-2 "
           f"fixture, {elapsed:.1f}s): PASS")


def test_criterion_3_first_variational_formula():
    started = time.monotonic()
    rng = random.Random(103)
    done = 0
    while done < 100:
        dim = rng.choice([1, 2])
        L = rand_lagrangian(rng, dim=dim, max_order=rng.choice([1, 2]))
        ups = rand_vertical(rng, (PHI, PSI), dim=dim)
        if not ups.vertical:
            continue
        assert first_variational_residual(ups, L).is_zero()
        done += 1
    elapsed = time.monotonic() - started
    report(f"criterion 3 (first variational formula, 100 random pairs, "
           f"{elapsed:.1f}s): PASS")


def _maxwell_fixture(dim, signs):
    """Hand oracle for the gauge model on a diagonal metric.

    With F(m,v) = d_m A_v - d_v A_m and raised components
    Fup(m,v) = s_m s_v F(m,v), integration by parts gives, entirely by
    hand: E^v = d_m Fup(m,v); the divergence identity d_v E^v = 0 by
    antisymmetry; the gauge variation -c_v of A_v; the current
    J^mu = c_v Fup(v,mu); the split W^mu = -c E^mu, U^(nu,mu) = c Fup(nu,mu)
    via J^mu = d_nu(c Fup(nu,mu)) - c d_nu Fup(nu,mu)."""
    A = [FieldSymbol(f"A{i}") for i in range(dim)]
    c = FieldSymbol("c", "ghost", ODD)
    F = {}
    for m in range(dim):
        for v in range(dim):
            F[(m, v)] = (P(jet(A[v], (m,))) - P(jet(A[m], (v,)))) \
                * Fraction(signs[m] * signs[v])
    el = {v: sum((F[(m, v)].total_derivative(m) for m in range(dim)),
                 GradedPoly.zero()) for v in range(dim)}
    current = {mu: sum((P(jet(c, (v,))) * F[(v, mu)] for v in range(dim)),
                       GradedPoly.zero()) for mu in range(dim)}
    w = {mu: -P(jet(c)) * el[mu] for mu in range(dim)}
    u_pairs = {(nu, mu): P(jet(c)) * F[(nu, mu)]
               for nu in range(dim) for mu in range(dim) if nu != mu}
    return A, c, el, current, w, u_pairs


@pytest.mark.parametrize("name,dim,signs", [
    ("maxwell2.vln", 2, (1, 1)),
    ("maxwell2_minkowski.vln", 2, (1, -1)),
    ("maxwell4.vln", 4, (1, 1, 1, 1)),
    ("maxwell4_minkowski.vln", 4, (1, -1, -1, -1)),
])
def test_criterion_4_maxwell_end_to_end(name, dim, signs):
    started = time.monotonic()
    model = load_model((MODELS / name).read_text())
    A = [model.symbols[f"A{i}"] for i in range(dim)]
    ghost = model.symbols["c"]
    _, _, el_fix, j_fix, w_fix, u_fix = _maxwell_fixture(dim, signs)
    rename = {f"A{i}": A[i] for i in range(dim)}
    rename["c"] = ghost

    def relabel(poly):
        out = GradedPoly.zero()
        for coeff, factors in poly.monomials():
            term = GradedPoly.constant(coeff)
            for v, e in factors:
                term = term * P(jet(rename[v.symbol.name], v.index)) ** e
            out = out + term
        return out

    el = euler_lagrange(model.lagrangian)
    for v in range(dim):
        assert el.component(A[v]) == relabel(el_fix[v])
    # the divergence identity holds exactly
    div = GradedPoly.zero()
    for v in range(dim):
        div = div + el.component(A[v]).total_derivative(v)
    assert div.is_zero()
    op = model.identities["gauge"]
    assert check_noether_identity(op, el)
    result = gauge_symmetry(op, ghost, model.lagrangian)
    for v in range(dim):
        assert result.symmetry.component(A[v]) == -P(jet(ghost, (v,)))
    for mu in range(dim):
        assert result.current.component(mu) == relabel(j_fix[mu])
    split = extract(result, model.lagrangian)
    for mu in range(dim):
        assert split.w_component(mu) == relabel(w_fix[mu])
        for nu in range(dim):
            if nu != mu:
                assert split.superpotential.component(nu, mu) \
                    == relabel(u_fix[(nu, mu)])
    assert split.superpotential.is_antisymmetric()
    ok, report_map = verify_split(result.current, split, el)
    assert ok, report_map
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(f"criterion 4 ({name}, end-to-end fixtures, {elapsed:.1f}s): PASS")


def test_criterion_5_adjoint_involution():
    started = time.monotonic()
    rng = random.Random(105)
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    indices = ((), (0,), (0, 0))
    done = 0
    while done < 100:
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            key = (rng.choice((PHI, PSI)), rng.choice(indices))
            poly = rand_poly(rng, (PHI, PSI), max_order=2, parity=EVEN)
            if poly.is_zero():
                continue
            coeffs[key] = coeffs.get(key, GradedPoly.zero()) + poly
        op = NoetherOperator(f"r{done}", coeffs)
        if not op.coefficients:
            continue
        ghost = ghost_for(op, "cg")
        u = adjoint(op, ghost)
        assert recover_identity(u, ghost, L).coefficients == op.coefficients
        done += 1
    elapsed = time.monotonic() - started
    report(f"criterion 5 (adjoint involution, 100 random operators, "
           f"{elapsed:.1f}s): PASS")


def test_criterion_6_koszul_tate_nilpotency():
    started = time.monotonic()
    rng = random.Random(106)
    theta = FieldSymbol("theta", parity=ODD)
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2
                   + P(jet(PSI)) * P(jet(PSI, (0,)))
                   + P(jet(theta)) * P(jet(theta, (0,))), 1)
    el = euler_lagrange(L)
    bars = [antifield(PHI), antifield(PSI), antifield(theta), antifield(CH2)]
    pool = [jet(s, idx) for s in (PHI, PSI, theta, CH2) + tuple(bars)
            for idx in ((), (0,), (0, 0))]
    for _ in range(100):
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
    elapsed = time.monotonic() - started
    report(f"criterion 6 (Koszul-Tate nilpotency, 100 random densities, "
           f"{elapsed:.1f}s): PASS")


def test_criterion_7_superpotential_pipeline_on_corpus():
    started = time.monotonic()
    for name in CORPUS:
        model = load_model((MODELS / name).read_text())
        el = euler_lagrange(model.lagrangian, model.fields)
        for iname, op in sorted(model.identities.items()):
            assert check_noether_identity(op, el), (name, iname)
            ghost = model.ghost_of(iname)
            result = gauge_symmetry(op, ghost, model.lagrangian)
            checks = structural_checks(result, model.lagrangian)
            assert all(c.ok for c in checks), (name, iname)
            split = extract(result, model.lagrangian)
            ok, rep = verify_split(result.current, split, el)
            assert ok, (name, iname, rep)
            dd = GradedPoly.zero()
            for mu in range(model.dim):
                dd = dd + split.superpotential.divergence(mu) \
                    .total_derivative(mu)
            assert dd.is_zero(), (name, iname)
    elapsed = time.monotonic() - started
    report(f"criterion 7 (superpotential pipeline on {len(CORPUS)} corpus "
           f"models, {elapsed:.1f}s): PASS")


def _random_point(rng, variables, algebra):
    assignment = {}
    gen = 0
    for v in sorted(variables, key=lambda v: (v.symbol.name, v.index)):
        if v.parity == ODD:
            if gen >= algebra.ngen:
                return None
            assignment[v] = algebra.generator(gen)
            gen += 1
        else:
            assignment[v] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return assignment


def test_criterion_8_numeric_cross_checks():
    started = time.monotonic()
    rng = random.Random(108)
    algebra = GrassmannAlgebra(8)

    def point_for(*polys):
        variables = set()
        for poly in polys:
            variables |= poly.variables()
        return _random_point(rng, variables, algebra)

    # product homomorphism and graded commutation, evaluated on two paths
    done = 0
    while done < 50:
        p = rand_poly(rng, max_order=1, max_factors=2,
                      parity=rng.randint(0, 1))
        q = rand_poly(rng, max_order=1, max_factors=2,
                      parity=rng.randint(0, 1))
        if p.is_zero() or q.is_zero():
            continue
        point = point_for(p, q)
        if point is None:
            continue
        ev = lambda r: r.evaluate(point, algebra)
        assert ev(p * q) == ev(p) * ev(q)
        sign = -1 if (p.parity and q.parity) else 1
        assert (ev(p * q) - ev(q * p) * Fraction(sign)).is_zero()
        done += 1

    # Leibniz rules and derivative symmetry, each side its own path
    done = 0
    while done < 50:
        p = rand_poly(rng, dim=2, max_order=1, parity=rng.randint(0, 1))
        q = rand_poly(rng, dim=2, max_order=1, parity=rng.randint(0, 1))
        if p.is_zero() or q.is_zero():
            continue
        dp, dq, dpq = p.total_derivative(0), q.total_derivative(0), \
            (p * q).total_derivative(0)
        a = p.total_derivative(0).total_derivative(1)
        b = p.total_derivative(1).total_derivative(0)
        point = point_for(p, q, dp, dq, dpq, a, b)
        if point is None:
            continue
        ev = lambda r: r.evaluate(point, algebra)
        assert (ev(dpq) - ev(dp * q) - ev(p * dq)).is_zero()
        assert (ev(a) - ev(b)).is_zero()
        v = jet(CH2)
        pv = (p * q).partial(v)
        sign = -1 if p.parity else 1
        rhs1, rhs2 = p.partial(v) * q, (p * q.partial(v)) * Fraction(sign)
        point2 = point_for(pv, rhs1, rhs2)
        if point2 is not None:
            ev2 = lambda r: r.evaluate(point2, algebra)
            assert (ev2(pv) - ev2(rhs1) - ev2(rhs2)).is_zero()
        done += 1

    # first variational formula: the three summands evaluated separately
    done = 0
    while done < 50:
        dim = rng.choice([1, 2])
        L = rand_lagrangian(rng, dim=dim, max_order=1, max_degree=2)
        ups = rand_vertical(rng, (PHI, PSI), dim=dim)
        if not ups.vertical:
            continue
        deriv = prolong(ups, dim, L.jet_cap)
        full = tuple(range(dim))
        lhs = lie_derivative(deriv, L.form(), L.jet_cap) \
            .coefficient(horiz=full)
        t1 = contract(deriv, euler_lagrange_form(L)).coefficient(horiz=full)
        t2 = contract(deriv, lepage_equivalent(L)).horizontal_part() \
            .horizontal_differential(L.jet_cap).coefficient(horiz=full)
        point = point_for(lhs, t1, t2)
        if point is None:
            continue
        ev = lambda r: r.evaluate(point, algebra)
        assert (ev(lhs) - ev(t1) - ev(t2)).is_zero()
        done += 1

    # Lepage decomposition: the three forms evaluated per component
    done = 0
    while done < 50:
        dim = rng.choice([1, 2])
        L = rand_lagrangian(rng, dim=dim, max_order=2, max_degree=2)
        dL = L.form().exterior_differential(L.jet_cap)
        source = euler_lagrange_form(L)
        dxi = lepage_equivalent(L).horizontal_differential(L.jet_cap)
        keys = (set(dL.components) | set(source.components)
                | set(dxi.components))
        variables = set()
        for form in (dL, source, dxi):
            for poly in form.components.values():
                variables |= poly.variables()
        point = _random_point(rng, variables, algebra)
        if point is None:
            continue
        for key in keys:
            a = dL.components.get(key, GradedPoly.zero())
            b = source.components.get(key, GradedPoly.zero())
            c = dxi.components.get(key, GradedPoly.zero())
            total = (a.evaluate(point, algebra) - b.evaluate(point, algebra)
                     + c.evaluate(point, algebra))
            assert total.is_zero()
        done += 1

    # gauge conservation on the vector model: div J against the source
    model = load_model((MODELS / "maxwell2.vln").read_text())
    el = euler_lagrange(model.lagrangian, model.fields)
    result = gauge_symmetry(model.identities["gauge"],
                            model.ghost_of("gauge"), model.lagrangian)
    div = result.current.divergence()
    source_terms = [poly * el.component(sym)
                    for sym, poly in result.symmetry.vertical]
    for _ in range(50):
        point = point_for(div, *source_terms)
        total = div.evaluate(point, algebra)
        for term in source_terms:
            total = total - term.evaluate(point, algebra)
        assert total.is_zero()

    elapsed = time.monotonic() - started
    report(f"criterion 8 (numeric cross-checks, 8-generator algebra, 50 "
           f"points per identity, {elapsed:.1f}s): PASS")


def test_criterion_9_cli_determinism():
    started = time.monotonic()
    for name in CORPUS:
        outputs = []
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-m", "vnoether.cli", "verify",
                 str(MODELS / name), "--format", "json"],
                capture_output=True, text=True, cwd=ROOT)
            assert res.returncode == 0, (name, res.stderr)
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1], name
        json.loads(outputs[0])
    elapsed = time.monotonic() - started
    report(f"criterion 9 (byte-identical structured output on the corpus, "
           f"{elapsed:.1f}s): PASS")
