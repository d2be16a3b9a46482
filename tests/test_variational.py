import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from vnoether import (EVEN, KIND_FIELD, KIND_GHOST, ODD, ConsistencyError,
                      Current, ExactnessResult, FieldSymbol,
                      GeneralizedVectorField, GradedPoly, Lagrangian, MixedForm, Superpotential, check_lepage,
                      euler_lagrange, euler_lagrange_form, expand_witness,
                      first_variational_residual, gauge_symmetry,
                      horizontal_antiderivative, is_variational_symmetry,
                      jet, lepage_equivalent, load_model, noether_current,
                      symmetry_witness, weak_conservation_witness)
from vnoether import variational
from vnoether.algebra import mi_permutations, mi_remove
from vnoether.forms import omega_contracted
from vnoether.linsolve import solve_sparse
from vnoether.variational import BOUND_EXHAUSTED, EXACT, NOT_EXACT, lepage_table

from helpers import (CH1, CH2 as C, PHI, PSI, assert_canonical, rand_lagrangian,
                     rand_poly, rand_vertical)

P = GradedPoly.variable


# ---------------------------------------------------------------------------
# independent oracle: exact variation of the action on [0, 1]
#
# Univariate polynomials with rational coefficients stand in for test
# sections.  The Gateaux derivative of the action along a bump direction g
# (vanishing at both ends) equals the integral of the Euler-Lagrange
# expression times g; both sides integrate exactly.

def _u_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _u_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _u_diff(a):
    return [c * i for i, c in enumerate(a)][1:] or [Fraction(0)]


def _u_integral_01(a):
    return sum(c / (i + 1) for i, c in enumerate(a))


def _substitute_section(poly: GradedPoly, sections: dict):
    """Substitute univariate polynomials for even jet variables; jets map to
    iterated derivatives of the section."""
    out = [Fraction(0)]
    for coeff, factors in poly.monomials():
        assert all(v.parity == EVEN for v, _ in factors)
        term = [coeff]
        for v, e in factors:
            base = sections[v.symbol]
            for _ in range(len(v.index)):
                base = _u_diff(base)
            for _ in range(e):
                term = _u_mul(term, base)
        out = _u_add(out, term)
    return out


def _gateaux_derivative(density: GradedPoly, sections: dict, direction: dict):
    """d/de of the action at e=0, by exact interpolation of the polynomial
    e -> S[f + e g] at integer nodes (no ring derivatives involved)."""
    degree = density.degree()
    nodes = list(range(degree + 2))
    values = []
    for k in nodes:
        shifted = {sym: _u_add(sections[sym],
                               _u_mul([Fraction(k)], direction.get(sym, [])))
                   for sym in sections}
        values.append(_u_integral_01(_substitute_section(density, shifted)))
    # finite differences give the coefficient of e^1 of the interpolant
    coeffs = list(values)
    table = [coeffs]
    for lvl in range(1, len(nodes)):
        prev = table[-1]
        table.append([prev[i + 1] - prev[i] for i in range(len(prev) - 1)])
    # Newton form at nodes 0..m: e-coefficient = sum over k of
    # delta^k / k! * [coefficient of e in prod (e - j), j < k]
    total = Fraction(0)
    for k in range(1, len(nodes)):
        prod = [Fraction(1)]
        for j in range(k):
            prod = _u_mul(prod, [Fraction(-j), Fraction(1)])
        fact = 1
        for j in range(2, k + 1):
            fact *= j
        total += table[k][0] / fact * prod[1]
    return total


def test_euler_lagrange_against_action_variation():
    rng = random.Random(41)
    bump = [Fraction(0), Fraction(1), Fraction(-1)]  # x(1-x), vanishes at 0,1
    for trial in range(25):
        L = rand_lagrangian(rng, fields=(PHI,), dim=1, max_order=1)
        el = euler_lagrange(L)
        f = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4)]
        direction = _u_mul(bump, [Fraction(rng.randint(-2, 2) or 1)])
        lhs = _gateaux_derivative(L.density, {PHI: f}, {PHI: direction})
        rhs_poly = _substitute_section(el.component(PHI), {PHI: f})
        rhs = _u_integral_01(_u_mul(rhs_poly, direction))
        assert lhs == rhs, (trial, L.density)


def test_euler_lagrange_free_scalar():
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    el = euler_lagrange(L)
    assert el.component(PHI) == -P(jet(PHI, (0, 0)))


def test_euler_lagrange_kills_exact_densities():
    L = Lagrangian((P(jet(PHI)) ** 2).total_derivative(0), 1)
    assert euler_lagrange(L).is_zero()


def test_euler_lagrange_kills_exact_densities_random():
    rng = random.Random(42)
    for _ in range(60):
        dim = rng.choice([1, 2, 3])
        comps = {mu: rand_poly(rng, dim=dim, max_order=2)
                 for mu in rng.sample(range(dim), rng.randint(1, dim))}
        density = Current(comps, dim).divergence()
        if density.jet_order() > 6:
            continue
        L = Lagrangian(density, dim, parity=density.parity
                       if density.parity is not None else EVEN)
        assert euler_lagrange(L).is_zero()


def _maxwell(dim, signs=None):
    signs = signs or [1] * dim
    A = [PHI if False else None] * 0
    from vnoether import FieldSymbol
    A = [FieldSymbol(f"A{i}") for i in range(dim)]
    F = {}
    for m in range(dim):
        for v in range(dim):
            F[(m, v)] = P(jet(A[v], (m,))) - P(jet(A[m], (v,)))
    density = GradedPoly.zero()
    for m in range(dim):
        for v in range(dim):
            density = density - Fraction(1, 4) * signs[m] * signs[v] \
                * F[(m, v)] * F[(m, v)]
    return A, F, Lagrangian(density, dim)


def test_euler_lagrange_maxwell():
    A, F, L = _maxwell(2)
    el = euler_lagrange(L)
    for v in range(2):
        expect = GradedPoly.zero()
        for m in range(2):
            expect = expect + F[(m, v)].total_derivative(m)
        assert el.component(A[v]) == expect


def test_lepage_equivalent_examples():
    L1 = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    xi1 = lepage_equivalent(L1)
    assert xi1.coefficient(horiz=(0,)) == L1.density
    assert xi1.coefficient(contact=(jet(PHI),)) == P(jet(PHI, (0,)))
    L0 = Lagrangian(P(jet(PHI)), 1)
    assert lepage_equivalent(L0) == L0.form()
    L2 = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0, 0))) ** 2, 1)
    xi2 = lepage_equivalent(L2)
    assert xi2.coefficient(contact=(jet(PHI),)) == -P(jet(PHI, (0, 0, 0)))
    assert xi2.coefficient(contact=(jet(PHI, (0,)),)) == P(jet(PHI, (0, 0)))
    # the recursion bottoms out consistently with the Euler-Lagrange operator
    table = lepage_table(L2)
    el = euler_lagrange(L2)
    bottom = L2.density.partial(jet(PHI))
    for lam in range(1):
        bottom = bottom - table[(PHI, (lam,))].total_derivative(lam)
    assert bottom == el.component(PHI)


def test_lagrangian_keeps_its_derived_objects():
    # each derived object is built once per instance; the kept objects do
    # not enter equality or hashing, and a prolongation is shared by equal
    # vector fields built apart
    density = Fraction(1, 2) * P(jet(PHI, (0,))) ** 2 + P(jet(PSI)) * P(jet(PHI))
    L, twin = Lagrangian(density, 1), Lagrangian(density, 1)
    assert L.el is L.el
    assert L.lepage is L.lepage
    assert L.source_form is L.source_form
    assert L.d_form is L.d_form
    assert L.el.components == euler_lagrange(twin).components
    assert L.lepage == lepage_equivalent(twin)
    assert L.source_form == euler_lagrange_form(twin)
    assert L.d_form == twin.form().exterior_differential()
    assert L == twin and hash(L) == hash(twin)
    assert {L: 1}[twin] == 1
    shift = GeneralizedVectorField.make({PHI: P(jet(C))})
    again = GeneralizedVectorField.make({PHI: P(jet(C))})
    assert L.prolongation(shift) is L.prolongation(again)
    assert L.prolongation(shift) is not twin.prolongation(shift)


def test_lagrangian_is_an_immutable_value(monkeypatch):
    # the derived objects are built once, on first use; assignment and
    # deletion are refused, cached names too; a pickle carries the value
    # and none of the kept objects
    density = Fraction(1, 2) * P(jet(PHI, (0,))) ** 2 + P(jet(PSI)) * P(jet(PHI))
    L = Lagrangian(density, 1)
    builds = {"euler_lagrange": 0, "lepage_equivalent": 0}
    for name in builds:
        def counted(*args, _name=name, _real=getattr(variational, name)):
            builds[_name] += 1
            return _real(*args)
        monkeypatch.setattr(variational, name, counted)
    for _ in range(3):
        assert L.el.components and L.lepage.components
    assert builds == {"euler_lagrange": 1, "lepage_equivalent": 1}
    for attr in ("density", "dim", "el", "gradient"):
        with pytest.raises(AttributeError):
            setattr(L, attr, None)
        with pytest.raises(AttributeError):
            delattr(L, attr)
    assert L.density == density and L.dim == 1
    back = pickle.loads(pickle.dumps(L))
    assert back is not L and back == L and hash(back) == hash(L)
    assert "el" in vars(L) and "el" not in vars(back)
    assert repr(L) == (f"Lagrangian(density={density!r}, dim=1, parity=0, "
                       "jet_cap=6)")
    assert L != Lagrangian(density, 1, jet_cap=5)
    assert L != Lagrangian(density, 2)


def test_exactness_result_is_truthy_exactly_when_exact():
    assert ExactnessResult(EXACT)
    assert ExactnessResult(EXACT, {}, None)
    for status in (NOT_EXACT, BOUND_EXHAUSTED):
        assert not ExactnessResult(status)
        assert not ExactnessResult(status, {}, P(jet(PHI)))


def test_check_lepage_fixtures():
    assert check_lepage(Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1))
    assert check_lepage(Lagrangian(Fraction(1, 2) * P(jet(PHI, (0, 0))) ** 2, 1))
    _, _, LM = _maxwell(2)
    assert check_lepage(LM)


def test_check_lepage_mixed_second_order():
    # regression: repeated and mixed multi-indices need the tensor
    # normalization of the coefficient recursion
    density = (2 * P(jet(PSI, (1, 1))) - 3 * P(jet(PHI, (0, 1))) * P(jet(PSI))
               + Fraction(1, 2) * P(jet(PHI)) * P(jet(PHI, (0,)))
               * P(jet(PHI, (0, 0))))
    assert check_lepage(Lagrangian(density, 2))


def test_check_lepage_random():
    rng = random.Random(43)
    for _ in range(40):
        dim = rng.choice([1, 2])
        L = rand_lagrangian(rng, dim=dim, max_order=2)
        assert check_lepage(L), L.density


def test_corrupted_lepage_detected():
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    xi = lepage_equivalent(L)
    # drop the contact term
    broken = MixedForm(1, {k: p for k, p in xi.components.items() if not k[0]})
    lhs = (L.form().exterior_differential() - euler_lagrange_form(L)
           + broken.horizontal_differential())
    assert not lhs.is_zero()


def test_first_variational_residual_examples():
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    assert first_variational_residual(
        GeneralizedVectorField.make({PHI: P(jet(C))}), L).is_zero()
    assert first_variational_residual(
        GeneralizedVectorField.make({}), L).is_zero()
    A, F, LM = _maxwell(2)
    u = GeneralizedVectorField.make(
        {A[v]: -P(jet(C, (v,))) for v in range(2)})
    assert first_variational_residual(u, LM).is_zero()


def test_first_variational_residual_random():
    rng = random.Random(44)
    done = 0
    while done < 60:
        dim = rng.choice([1, 2])
        L = rand_lagrangian(rng, dim=dim, max_order=1)
        ups = rand_vertical(rng, (PHI, PSI), dim=dim)
        if not ups.vertical:
            continue
        assert first_variational_residual(ups, L).is_zero()
        done += 1


def test_antiderivative_examples():
    rho = MixedForm.density(P(jet(PHI, (0,))) * P(jet(PHI, (0, 0))), 1)
    res = horizontal_antiderivative(rho)
    assert res.status == EXACT
    assert res.witness.coefficient() == Fraction(1, 2) * P(jet(PHI, (0,))) ** 2
    res2 = horizontal_antiderivative(MixedForm.density(P(jet(PHI)), 1))
    assert res2.status == NOT_EXACT
    # closed (n-1)-form at n=2 from the antisymmetric potential U^{10}=phi
    cur = Current({0: P(jet(PHI, (1,))), 1: -P(jet(PHI, (0,)))}, 2)
    res3 = horizontal_antiderivative(cur.form())
    assert res3.status == EXACT
    assert (res3.witness.horizontal_differential() - cur.form()).is_zero()
    sup = Superpotential.from_form(res3.witness)
    assert sup.component(1, 0) == P(jet(PHI))


def test_antiderivative_roundtrip_random():
    rng = random.Random(45)
    done = 0
    while done < 60:
        # 40 inputs in dims 1-2 at jet order 1, then 20 in dims 1-4 at order 2
        wide = done >= 40
        dim = rng.choice([1, 2, 3, 4] if wide else [1, 2])
        comps = {mu: rand_poly(rng, dim=dim, max_order=2 if wide else 1)
                 for mu in range(dim)}
        rho = MixedForm.density(Current(comps, dim).divergence(), dim)
        res = horizontal_antiderivative(rho)
        assert res.status == EXACT
        assert (res.witness.horizontal_differential() - rho).is_zero()
        done += 1


def test_antiderivative_bound_exhaustion_is_distinct():
    # exactness decisions take no degree bound: a degree-2 witness is found
    # for a degree-2 input
    rho = MixedForm.density(P(jet(PHI, (0,))) * P(jet(PHI, (0, 0))), 1)
    res = horizontal_antiderivative(rho)
    assert res.status == EXACT
    assert res.witness.coefficient() == Fraction(1, 2) * P(jet(PHI, (0,))) ** 2


def test_constant_term_is_not_exact():
    # with no base coordinate in the ring, a nonzero constant has no
    # antiderivative, in a density or in a closed current; the same input
    # without it is exact
    exact = P(jet(PHI, (0,))) * P(jet(PHI, (1,)))
    assert horizontal_antiderivative(
        MixedForm.density(exact.total_derivative(0), 2)).status == EXACT
    for rho in (MixedForm.density(GradedPoly.constant(1), 1),
                MixedForm.density(exact.total_derivative(0) + 3, 2)):
        assert horizontal_antiderivative(rho).status == NOT_EXACT
    for mu in (0, 1):
        tail = {nu: exact.total_derivative(1 - nu) * (1 - 2 * nu)
                for nu in (0, 1)}
        res = horizontal_antiderivative(Current(tail, 2).form())
        assert res.status == EXACT
        tail[mu] = tail[mu] + Fraction(-2, 3)
        res = horizontal_antiderivative(Current(tail, 2).form())
        assert res.status == NOT_EXACT and res.witness is None


def test_variational_symmetry_examples():
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    shift = GeneralizedVectorField.make({PHI: P(jet(PHI, (0,)))})
    res = is_variational_symmetry(shift, L)
    assert res.status == EXACT
    assert res.witness.coefficient() == Fraction(1, 2) * P(jet(PHI, (0,))) ** 2
    bad = is_variational_symmetry(GeneralizedVectorField.make({PHI: P(jet(PHI))}), L)
    assert bad.status == NOT_EXACT
    A, F, LM = _maxwell(2)
    u = GeneralizedVectorField.make({A[v]: -P(jet(C, (v,))) for v in range(2)})
    resM = is_variational_symmetry(u, LM)
    assert resM.status == EXACT and resM.witness.is_zero()


def test_noether_current_examples():
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    shift = GeneralizedVectorField.make({PHI: P(jet(PHI, (0,)))})
    sigma = is_variational_symmetry(shift, L).witness
    J = noether_current(shift, L, sigma)
    assert J.component(0) == -Fraction(1, 2) * P(jet(PHI, (0,))) ** 2
    # zero field: current equals sigma
    zero = GeneralizedVectorField.make({})
    J0 = noether_current(zero, L, MixedForm.zero(1))
    assert all(p.is_zero() for p in J0.components.values())
    # invalid witness is rejected
    with pytest.raises(ConsistencyError):
        noether_current(shift, L, MixedForm.from_poly(P(jet(PHI)), 1))
    # the result of is_variational_symmetry is taken as checked
    checked = noether_current(shift, L, is_variational_symmetry(shift, L))
    assert checked.component(0) == J.component(0)
    scale = GeneralizedVectorField.make({PHI: P(jet(PHI))})
    with pytest.raises(ConsistencyError):
        noether_current(scale, L, is_variational_symmetry(scale, L))
    A, F, LM = _maxwell(2)
    u = GeneralizedVectorField.make({A[v]: -P(jet(C, (v,))) for v in range(2)})
    JM = noether_current(u, LM, MixedForm.zero(2))
    for mu in range(2):
        expect = GradedPoly.zero()
        for v in range(2):
            expect = expect + P(jet(C, (v,))) * F[(v, mu)]
        assert JM.component(mu) == expect


def test_weak_conservation_witness_examples():
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    el = euler_lagrange(L)
    J = Current({0: -Fraction(1, 2) * P(jet(PHI, (0,))) ** 2}, 1)
    res = weak_conservation_witness(J, el)
    assert res.status == EXACT
    assert res.witness == {(PHI, ()): P(jet(PHI, (0,)))}
    assert expand_witness(res.witness, el) == J.divergence()
    res0 = weak_conservation_witness(Current({}, 1), el)
    assert res0.status == EXACT and res0.witness == {}
    A, F, LM = _maxwell(2)
    elM = euler_lagrange(LM)
    JM = Current({mu: sum((P(jet(C, (v,))) * F[(v, mu)] for v in range(2)),
                          GradedPoly.zero()) for mu in range(2)}, 2)
    resM = weak_conservation_witness(JM, elM)
    assert resM.status == EXACT
    assert resM.witness == {(A[v], ()): -P(jet(C, (v,))) for v in range(2)}
    # a current that is not weakly conserved
    bad = weak_conservation_witness(Current({0: P(jet(PSI))}, 1), el)
    assert res.status == EXACT and bad.status in (NOT_EXACT, BOUND_EXHAUSTED)


def test_translation_pipeline_random():
    # translations are variational symmetries of any x-independent
    # Lagrangian: symmetry -> current -> witness must chain through
    rng = random.Random(46)
    done = 0
    while done < 25:
        dim = rng.choice([1, 2])
        L = rand_lagrangian(rng, dim=dim, max_order=1)
        direction = rng.randrange(dim)
        ups = GeneralizedVectorField.make(
            {sym: P(jet(sym, (direction,))) for sym in (PHI, PSI)})
        res = is_variational_symmetry(ups, L)
        assert res.status == EXACT
        J = noether_current(ups, L, res.witness)
        wit = weak_conservation_witness(J, euler_lagrange(L, [PHI, PSI]))
        assert wit.status == EXACT
        assert expand_witness(wit.witness, euler_lagrange(L, [PHI, PSI])) \
            == J.divergence()
        done += 1


# ---------------------------------------------------------------------------
# constructive weak-conservation witness on the model corpus

MODELS = Path(__file__).resolve().parent.parent / "models"


def _corpus_currents():
    """(label, symmetry, current, Euler-Lagrange, cap, ghost) for every
    identity (gauge route) and every declared symmetry of the corpus."""
    cases = []
    for path in sorted(MODELS.glob("*.vln")):
        model = load_model(path.read_text())
        L = model.lagrangian
        el = euler_lagrange(L, model.fields)
        for name, op in sorted(model.identities.items()):
            ghost = model.ghost_of(name)
            result = gauge_symmetry(op, ghost, L)
            cases.append((f"{path.stem} {name}", result.symmetry,
                          result.current, el, L.jet_cap, ghost))
        for name, ups in sorted(model.symmetries.items()):
            sym = is_variational_symmetry(ups, L)
            assert sym.status == EXACT, (path.stem, name)
            ghosts = sorted({v.symbol for _, poly in ups.vertical
                             for v in poly.variables()
                             if v.symbol.kind == KIND_GHOST},
                            key=lambda s: s.sort_key)
            cases.append((f"{path.stem} {name}", ups,
                          noether_current(ups, L, sym.witness), el, L.jet_cap,
                          ghosts[0]))
    return cases


def test_symmetry_witness_corpus():
    cases = _corpus_currents()
    # one identity and one symmetry for each of six models, one identity
    # for each of even_ghost, u1_odd2 and u1_odd3
    assert len(cases) == 15
    for label, u, J, el, cap, _ in cases:
        res = symmetry_witness(u, J, el, cap)
        assert res.status == EXACT, label
        assert res.residual is None
        assert res.witness == {(sym, ()): poly for sym, poly in u.vertical}
        assert expand_witness(res.witness, el, cap) == J.divergence(cap), label


def test_symmetry_witness_agrees_with_search_oracle():
    # witnesses are not unique: compare the defining identity, not tables
    for label, _, J, el, cap, _ in _corpus_currents():
        oracle = weak_conservation_witness(J, el, cap)
        assert oracle.status == EXACT, label
        assert expand_witness(oracle.witness, el, cap) == J.divergence(cap), \
            label


def test_symmetry_witness_rejects_corrupted_current():
    for label, u, J, el, cap, ghost in _corpus_currents():
        broken = dict(J.components)
        broken[0] = J.component(0) + P(jet(ghost))
        res = symmetry_witness(u, Current(broken, J.dim), el, cap)
        assert res.status == NOT_EXACT, label
        assert not res
        assert res.residual == -P(jet(ghost, (0,))), label


def test_symmetry_witness_odd_components_and_scope():
    # odd fields: u^A and E_A are both odd, so u^A must stay left of E_A
    t1 = FieldSymbol("t1", KIND_FIELD, ODD)
    t2 = FieldSymbol("t2", KIND_FIELD, ODD)
    L = Lagrangian(P(jet(t1, (0,))) * P(jet(t2, (0,))), 1)
    el = euler_lagrange(L)
    ups = GeneralizedVectorField.make({s: P(jet(s, (0,))) for s in (t1, t2)})
    sym = is_variational_symmetry(ups, L)
    assert sym.status == EXACT
    J = noether_current(ups, L, sym.witness)
    res = symmetry_witness(ups, J, el, L.jet_cap)
    assert res.status == EXACT
    assert expand_witness(res.witness, el) == J.divergence()
    swapped = sum((el.component(s) * u for s, u in ups.vertical),
                  GradedPoly.zero())
    assert not J.divergence().is_zero() and swapped == -J.divergence()


# ---------------------------------------------------------------------------
# ring invariants at the variational layer

def test_solve_sparse_divides_int_inputs_exactly():
    sol = solve_sparse([{0: 2}], [1], 1)
    assert sol == [Fraction(1, 2)]
    assert all(type(x) is Fraction for x in sol)
    sol = solve_sparse([{0: 2, 1: 1}, {1: 3}], [1, 2], 2)
    assert sol == [Fraction(1, 6), Fraction(2, 3)]
    assert all(type(x) is Fraction for x in sol)
    rows, rhs = [{0: 1}, {0: 2}], [1, 3]
    assert solve_sparse(rows, rhs, 1) is None
    assert rows == [{0: 1}, {0: 2}] and rhs == [1, 3]


def test_euler_lagrange_matches_per_variable_partials_random():
    rng = random.Random(43)
    for _ in range(40):
        L = rand_lagrangian(rng, dim=2, max_order=2)
        el = euler_lagrange(L)
        for sym in L.field_symbols():
            ref = GradedPoly.zero()
            for v in L.density.variables():
                if v.symbol == sym:
                    term = L.density.partial(v).total_derivative_multi(
                        v.index, L.jet_cap)
                    ref = ref + (-term if len(v.index) % 2 else term)
            assert el.component(sym) == ref
            assert_canonical(el.component(sym))
        for val in lepage_table(L).values():
            assert_canonical(val)


# ---------------------------------------------------------------------------
# references for the operators that build their results by components

GRADED_FIELDS = (PHI, PSI, CH1, C)


def _flat_euler_lagrange(density, sym, cap):
    """sum over the jets u^A_I of (-1)^|I| d_I dL/du^A_I, one total
    derivative chain per jet variable."""
    return GradedPoly.sum(
        g.total_derivative_multi(v.index, cap) * (-1 if len(v.index) % 2 else 1)
        for v, g in density.gradient().items() if v.symbol == sym)


def _graded_density(rng, dim, max_order, parity):
    """A random density of one parity in even and odd fields."""
    return rand_poly(rng, GRADED_FIELDS, dim, max_order, max_terms=4,
                     parity=parity)


def test_nested_euler_lagrange_matches_flat_formula_random():
    # order-3 densities in dims 1-3, in odd and even fields, odd and even
    # Lagrangians; the nested recursion must give
    # the flat sum exactly
    rng = random.Random(47)
    seen = set()
    done = 0
    while done < 60:
        dim, parity = rng.choice([1, 2, 3]), rng.randint(0, 1)
        density = _graded_density(rng, dim, 3, parity)
        if density.is_zero():
            continue
        L = Lagrangian(density, dim, parity)
        el = euler_lagrange(L)
        for sym in L.field_symbols():
            assert el.component(sym) == _flat_euler_lagrange(
                density, sym, L.jet_cap)
            assert_canonical(el.component(sym))
            if not el.component(sym).is_zero():
                seen.add((parity, sym.parity))
        seen.add(("order", density.jet_order()))
        done += 1
    assert seen >= {(0, 0), (0, 1), (1, 0), (1, 1), ("order", 3)}


def test_nested_euler_lagrange_kills_total_divergences():
    rng = random.Random(48)
    for _ in range(60):
        dim, parity = rng.choice([1, 2, 3]), rng.randint(0, 1)
        comps = {mu: _graded_density(rng, dim, 2, parity)
                 for mu in rng.sample(range(dim), rng.randint(1, dim))}
        density = Current(comps, dim).divergence()
        if density.is_zero():
            continue
        assert Lagrangian(density, dim, parity).el.is_zero()


def _lepage_wedged(L):
    """The Lepage form as a sum of one-term forms, each contact slot wedged
    onto val * perm(tail) * omega_lam."""
    table = lepage_table(L)
    terms = [L.form()]
    for (sym, sigma), val in table.items():
        for lam in set(sigma):
            tail = mi_remove(sigma, lam)
            horiz, sign = omega_contracted(L.dim, lam)
            omega_lam = MixedForm(L.dim, {
                ((), horiz): val * (mi_permutations(tail) * sign)})
            terms.append(
                MixedForm.contact(jet(sym, tail), L.dim).wedge(omega_lam))
    return MixedForm.sum(L.dim, terms)


def _source_form_wedged(L):
    return MixedForm.sum(L.dim, (
        MixedForm.contact(jet(sym), L.dim).wedge(
            MixedForm.density(poly, L.dim))
        for sym, poly in L.el.components.items()))


def test_component_built_forms_match_wedged_references():
    # odd and even fields and Lagrangians; densities of order 3 in dims 2
    # and 3 give tails with two distinct indices, where the weight
    # perm(tail) is 2
    rng = random.Random(49)
    seen = set()
    done = 0
    while done < 40:
        dim, parity = rng.choice([1, 2, 3]), rng.randint(0, 1)
        density = _graded_density(rng, dim, rng.choice([2, 3]), parity)
        if density.is_zero():
            continue
        L = Lagrangian(density, dim, parity)
        assert L.lepage == _lepage_wedged(L)
        assert L.source_form == _source_form_wedged(L)
        assert check_lepage(L), density
        for contact, _ in L.lepage.components:
            if contact:
                seen.add(("odd slot", contact[0].parity))
                seen.add(("weight", mi_permutations(contact[0].index)))
        seen.update(("odd E", sym.parity) for sym, p
                    in L.el.components.items() if not p.is_zero())
        done += 1
    assert seen >= {("odd slot", 1), ("odd slot", 0), ("weight", 2),
                    ("odd E", 1), ("odd E", 0)}
