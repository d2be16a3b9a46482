import random
from fractions import Fraction
from pathlib import Path

import pytest

from vnoether import (Current, FieldSymbol, GaugeError, GaugeSymmetryResult,
                      GeneralizedVectorField, GradedPoly, Lagrangian,
                      NoetherOperator, Superpotential,
                      SuperpotentialError, SuperpotentialSplit, antifield,
                      check_noether_identity, euler_lagrange, extract,
                      gauge_symmetry, ghost_for, is_variational_symmetry,
                      jet, koszul_tate, load_model, noether_current,
                      noether_operator_from_density, poly_text,
                      structural_checks, verify_split)
from vnoether.gauge import collect_ghost_linear
from vnoether.superpotential import (STRUCTURAL_TAGS, TAG_GHOST_FREE,
                                     SuperpotentialSplit)

from helpers import PHI, PSI, rand_coeff, rand_lagrangian

P = GradedPoly.variable
MODELS = Path(__file__).resolve().parent.parent / "models"

SU2_D3 = """
dim 3
metric euclidean
field Aa[mu] even
field Ab[mu] even
field Ac[mu] even
ghost ca odd for ga
ghost cb odd for gb
ghost cc odd for gc
let Fa[mu,nu] = d[mu](Aa[nu]) - d[nu](Aa[mu]) + Ab[mu]*Ac[nu] - Ac[mu]*Ab[nu]
let Fb[mu,nu] = d[mu](Ab[nu]) - d[nu](Ab[mu]) + Ac[mu]*Aa[nu] - Aa[mu]*Ac[nu]
let Fc[mu,nu] = d[mu](Ac[nu]) - d[nu](Ac[mu]) + Aa[mu]*Ab[nu] - Ab[mu]*Aa[nu]
lagrangian (-1/4)*Fa[mu,nu]*Fa[mu,nu] + (-1/4)*Fb[mu,nu]*Fb[mu,nu] \
    + (-1/4)*Fc[mu,nu]*Fc[mu,nu]
identity ga: 1*d[nu](EL(Aa[nu])) + Ab[nu]*EL(Ac[nu]) - Ac[nu]*EL(Ab[nu])
identity gb: 1*d[nu](EL(Ab[nu])) + Ac[nu]*EL(Aa[nu]) - Aa[nu]*EL(Ac[nu])
identity gc: 1*d[nu](EL(Ac[nu])) + Aa[nu]*EL(Ab[nu]) - Ab[nu]*EL(Aa[nu])
"""


def _maxwell(dim):
    A = [FieldSymbol(f"A{i}") for i in range(dim)]
    F = {}
    for m in range(dim):
        for v in range(dim):
            F[(m, v)] = P(jet(A[v], (m,))) - P(jet(A[m], (v,)))
    dens = GradedPoly.zero()
    for m in range(dim):
        for v in range(dim):
            dens = dens - Fraction(1, 4) * F[(m, v)] * F[(m, v)]
    L = Lagrangian(dens, dim)
    op = NoetherOperator("gauge", {(A[v], (v,)): GradedPoly.constant(1)
                                   for v in range(dim)})
    ghost = ghost_for(op, "c")
    result = gauge_symmetry(op, ghost, L)
    return A, F, L, ghost, result


def _ghost_order(table, ghost):
    return max((len(tail) for g, tail in table if g == ghost), default=0)


def test_ghost_table_maxwell():
    A, F, L, ghost, result = _maxwell(2)
    table, free = collect_ghost_linear(result.current.components, {ghost})
    for mu in range(2):
        for v in range(2):
            assert table[(ghost, (v,))].get(mu, GradedPoly.zero()) \
                == F[(v, mu)]
    assert (ghost, ()) not in table
    assert not free
    assert _ghost_order(table, ghost) == 1


def test_ghost_table_zero_and_collection():
    ghost = FieldSymbol("c", "ghost", 1)
    assert collect_ghost_linear(Current({}, 2).components, {ghost}) == ({}, {})
    g = P(jet(PHI))
    h = P(jet(PSI))
    J = Current({0: g * P(jet(ghost)) + h * P(jet(ghost, (0, 1)))}, 2)
    table, free = collect_ghost_linear(J.components, {ghost})
    assert table == {(ghost, ()): {0: g}, (ghost, (0, 1)): {0: h}}
    assert not free
    # quadratic ghost dependence is rejected by the checks, and the split
    # refuses it before running any
    A, F, L, c, result = _maxwell(2)
    J = result.current
    bad = Current({0: J.component(0) + P(jet(c)) * P(jet(c, (0,))),
                   1: J.component(1)}, 2)
    bad = GaugeSymmetryResult.check(result.symmetry, bad, L)
    with pytest.raises(GaugeError):
        structural_checks(bad, L)
    with pytest.raises(SuperpotentialError, match="not ghost-linear") as err:
        extract(bad, L)
    assert err.value.checks is None and err.value.tag is None


def test_structural_checks_pass_on_maxwell():
    A, F, L, ghost, result = _maxwell(2)
    checks = structural_checks(result, L)
    assert all(c.ok for c in checks)
    assert {c.tag for c in checks} <= set(STRUCTURAL_TAGS)


def test_structural_checks_name_failures():
    A, F, L, ghost, result = _maxwell(2)
    broken = GaugeSymmetryResult.check(result.symmetry, Current(
        {0: result.current.component(0) + P(jet(ghost)),
         1: result.current.component(1)}, 2), L)
    assert not broken.conservation
    checks = structural_checks(broken, L)
    bad = [c for c in checks if not c.ok]
    assert bad and all(c.tag in STRUCTURAL_TAGS for c in bad)
    with pytest.raises(SuperpotentialError) as err:
        extract(broken, L)
    assert err.value.tag in STRUCTURAL_TAGS
    # the refusal hands back the checks extract ran
    assert [(c.tag, c.level, c.ok) for c in err.value.checks] \
        == [(c.tag, c.level, c.ok) for c in checks]


# Adding a c_S to J^1, with a the first field component and S = (0,) * k,
# adds d_1(a) c_S + a c_{S+1} to div J, so exactly the equations at (S, k)
# and (S + 1, k + 1) fail, with these residuals.  Each gauge current has
# ghost-jet order M = 1; the term at level M + 1 = 2 raises the order to 2,
# which turns level 2 into a descent level.
CORRUPTED_LEVELS = {
    "maxwell2": [
        [("divergence-source", "c", 0, "-A0_{,1}"),
         ("lead-source", "c", 1, "-A0")],
        [("lead-source", "c", 1, "-A0_{,1}"),
         ("top-symmetric", "c", 2, "-A0")],
        [("descent", "c", 2, "-A0_{,1}"),
         ("top-symmetric", "c", 3, "-A0")]],
    "maxwell4": [
        [("divergence-source", "c", 0, "-A0_{,1}"),
         ("lead-source", "c", 1, "-A0")],
        [("lead-source", "c", 1, "-A0_{,1}"),
         ("top-symmetric", "c", 2, "-A0")],
        [("descent", "c", 2, "-A0_{,1}"),
         ("top-symmetric", "c", 3, "-A0")]],
    "su2_d3": [
        [("divergence-source", "ca", 0, "-Aa0_{,1}"),
         ("lead-source", "ca", 1, "-Aa0")],
        [("lead-source", "ca", 1, "-Aa0_{,1}"),
         ("top-symmetric", "ca", 2, "-Aa0")],
        [("descent", "ca", 2, "-Aa0_{,1}"),
         ("top-symmetric", "ca", 3, "-Aa0")]],
}


@pytest.mark.parametrize("label", sorted(CORRUPTED_LEVELS))
def test_structural_checks_fail_at_each_corrupted_level(label):
    if label == "su2_d3":
        model, ident = load_model(SU2_D3), "ga"
    else:
        model = load_model((MODELS / f"{label}.vln").read_text())
        ident = "gauge"
    L = model.lagrangian
    ghost = model.ghost_of(ident)
    result = gauge_symmetry(model.identities[ident], ghost, L)
    J = result.current
    assert all(c.ok for c in structural_checks(result, L))
    a = P(jet(next(s for s in model.symbols.values() if s.kind == "field")))
    for level, expected in enumerate(CORRUPTED_LEVELS[label]):
        comps = dict(J.components)
        comps[1] = J.component(1) + a * P(jet(ghost, (0,) * level))
        broken = GaugeSymmetryResult.check(result.symmetry,
                                           Current(comps, J.dim), L)
        checks = structural_checks(broken, L)
        assert [(c.tag, c.ghost, c.level, poly_text(c.residual))
                for c in checks if not c.ok] == expected, level
        with pytest.raises(SuperpotentialError) as err:
            extract(broken, L)
        assert err.value.tag == expected[0][0]


def test_extract_maxwell2():
    A, F, L, ghost, result = _maxwell(2)
    el = euler_lagrange(L)
    split = extract(result, L)
    for nu in range(2):
        for mu in range(2):
            assert split.superpotential.component(nu, mu) \
                == P(jet(ghost)) * F[(nu, mu)]
        assert split.w_component(nu) == -P(jet(ghost)) * el.component(A[nu])
    assert split.w_table == {(A[mu], (), mu): -P(jet(ghost))
                             for mu in range(2)}
    ok, report = verify_split(result.current, split, el)
    assert ok, report
    assert split.remainder_witness.is_zero()
    # the split hands back the checks extract ran
    assert split.report == report
    assert [(c.tag, c.level) for c in split.checks] == [
        (c.tag, c.level) for c in structural_checks(result, L)]
    assert all(c.ok for c in split.checks)


def test_extract_maxwell4():
    A, F, L, ghost, result = _maxwell(4)
    el = euler_lagrange(L)
    split = extract(result, L)
    for nu in range(4):
        for mu in range(4):
            assert split.superpotential.component(nu, mu) \
                == P(jet(ghost)) * F[(nu, mu)]
        assert split.w_component(nu) == -P(jet(ghost)) * el.component(A[nu])
    ok, _ = verify_split(result.current, split, el)
    assert ok


def test_extract_maxwell3():
    # odd base dimension exercises all three superpotential pairs
    A, F, L, ghost, result = _maxwell(3)
    el = euler_lagrange(L)
    split = extract(result, L)
    for nu in range(3):
        for mu in range(3):
            if nu != mu:
                assert split.superpotential.component(nu, mu) \
                    == P(jet(ghost)) * F[(nu, mu)]
        assert split.w_component(nu) == -P(jet(ghost)) * el.component(A[nu])
    ok, _ = verify_split(result.current, split, el)
    assert ok


def test_boundary_antiderivative_three_dims():
    import random as _random
    from vnoether import horizontal_antiderivative
    from helpers import DEFAULT_SYMBOLS, rand_poly
    rng = _random.Random(77)
    # 8 inputs in dim 3 at jet order 1 over even fields, then 12 in dims 2-4
    # at order 2 with the odd ghosts
    for i in range(20):
        dim, symbols, order = ((3, (PHI, PSI), 1) if i < 8
                               else (rng.choice([2, 3, 4]), DEFAULT_SYMBOLS, 2))
        table = {(nu, mu): rand_poly(rng, symbols, dim=dim, max_order=order)
                 for nu in range(dim) for mu in range(nu + 1, dim)}
        sup = Superpotential(table, dim)
        rho = Current({mu: sup.divergence(mu) for mu in range(dim)}, dim)
        res = horizontal_antiderivative(rho.form())
        assert res.status == "exact"
        assert (res.witness.horizontal_differential() - rho.form()).is_zero()


def test_extract_zero_current():
    L = Lagrangian(P(jet(PHI)) ** 2, 1)
    u = GeneralizedVectorField.make({})
    split = extract(GaugeSymmetryResult.check(u, Current({}, 1), L), L)
    assert not split.w_table
    assert not split.superpotential.components
    ok, _ = verify_split(Current({}, 1), split, euler_lagrange(L))
    assert ok


def test_extract_scalar_shift():
    p = P(jet(PHI, (0,))) - P(jet(PSI))
    L = Lagrangian(Fraction(1, 2) * p * p, 1)
    op = NoetherOperator("stueck", {(PHI, ()): GradedPoly.constant(1),
                                    (PSI, (0,)): GradedPoly.constant(-1)})
    el = euler_lagrange(L)
    assert check_noether_identity(op, el)
    ghost = ghost_for(op, "c")
    result = gauge_symmetry(op, ghost, L)
    split = extract(result, L)
    # the current reduces to a pure on-shell-vanishing part at n=1
    assert split.w_component(0) == result.current.component(0)
    assert split.w_table == {(PSI, (), 0): P(jet(ghost))}
    assert not split.superpotential.components
    ok, _ = verify_split(result.current, split, el)
    assert ok


def test_double_divergence_vanishes():
    A, F, L, ghost, result = _maxwell(2)
    split = extract(result, L)
    dd = GradedPoly.zero()
    for mu in range(2):
        dd = dd + split.superpotential.divergence(mu).total_derivative(mu)
    assert dd.is_zero()


def test_conservation_consistency():
    # div J = div W exactly, and div W sits in the Euler-Lagrange ideal
    A, F, L, ghost, result = _maxwell(2)
    el = euler_lagrange(L)
    split = extract(result, L)
    div_j = result.current.divergence()
    div_w = GradedPoly.zero()
    for mu in range(2):
        div_w = div_w + split.w_component(mu).total_derivative(mu)
    assert div_j == div_w
    from vnoether import weak_conservation_witness, expand_witness
    wit = weak_conservation_witness(result.current, el)
    assert wit.status == "exact"
    assert expand_witness(wit.witness, el) == div_j


def test_symmetrization_split_is_idempotent():
    # sym + antisym of the pair coefficients reconstructs the original
    A, F, L, ghost, result = _maxwell(2)
    table, _ = collect_ghost_linear(result.current.components, {ghost})

    def coefficient(mu, v):
        return table[(ghost, (v,))].get(mu, GradedPoly.zero())

    for mu in range(2):
        for v in range(2):
            symm = (coefficient(mu, v) + coefficient(v, mu)) * Fraction(1, 2)
            anti = (coefficient(mu, v) - coefficient(v, mu)) * Fraction(1, 2)
            assert symm + anti == coefficient(mu, v)


def test_verify_split_mutations():
    A, F, L, ghost, result = _maxwell(2)
    el = euler_lagrange(L)
    split = extract(result, L)
    # symmetric part injected into U
    bad_pairs = dict(split.superpotential.components)
    bad_pairs[(1, 0)] = split.superpotential.component(0, 1)
    bad = SuperpotentialSplit(split.w_table, split.w_polys,
                              Superpotential(bad_pairs, 2),
                              split.remainder_witness, 2)
    ok, report = verify_split(result.current, bad, el)
    assert not ok and report["antisymmetric"] is False
    # non-Euler-Lagrange term injected into W
    bad_w = dict(split.w_polys)
    bad_w[0] = bad_w[0] + P(jet(A[0]))
    bad2 = SuperpotentialSplit(split.w_table, bad_w, split.superpotential,
                               split.remainder_witness, 2)
    ok2, report2 = verify_split(result.current, bad2, el)
    assert not ok2
    assert report2["w_in_euler_lagrange_ideal"] is False


def test_unresolvable_remainder_is_reported():
    # an extra closed-but-not-exact ghost-free piece cannot be absorbed
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    u = GeneralizedVectorField.make({})
    J = Current({0: GradedPoly.constant(1)}, 1)
    with pytest.raises(SuperpotentialError) as err:
        extract(GaugeSymmetryResult.check(u, J, L), L)
    assert err.value.tag == TAG_GHOST_FREE


def test_ghost_free_check_is_the_divergence_of_the_current():
    # a declared translation has no ghost: its current passes the weak
    # conservation check, so the residual is zero, but the divergence of
    # its ghost-free part is u^A E_A, and the structural check fails
    model = load_model((MODELS.parent / "perfbench" / "models"
                        / "maxwell3_translation.vln").read_text())
    L = model.lagrangian
    u = model.symmetries["translation"]
    J = noether_current(u, L, is_variational_symmetry(u, L))
    result = GaugeSymmetryResult.check(u, J, L)
    assert result.conservation
    [check] = structural_checks(result, L)
    assert (check.tag, check.ok) == (TAG_GHOST_FREE, False)
    assert check.residual == J.divergence(L.jet_cap) != GradedPoly.zero()
    with pytest.raises(SuperpotentialError) as err:
        extract(result, L)
    assert err.value.tag == TAG_GHOST_FREE and err.value.checks == [check]


def test_the_split_reads_the_current_once(monkeypatch):
    # the structural checks and the reduction share one ghost-jet split of
    # J: the split of superpotential su2_d4 ga calls collect_ghost_linear
    # on J's components once
    from vnoether import superpotential
    model = load_model((MODELS.parent / "perfbench" / "models"
                        / "su2_d4.vln").read_text())
    L = model.lagrangian
    result = gauge_symmetry(model.identities["ga"], model.ghost_of("ga"), L)
    real = superpotential.collect_ghost_linear
    on_j = []

    def counted(polys, *args, **kwargs):
        on_j.append(polys is result.current.components)
        return real(polys, *args, **kwargs)

    monkeypatch.setattr(superpotential, "collect_ghost_linear", counted)
    split = extract(result, L)
    assert all(c.ok for c in split.checks) and all(split.report.values())
    assert on_j.count(True) == 1


def test_remainder_bound_exhaustion_is_typed():
    # a closed ghost-free term d_nu U^{nu mu} of degree 3 added to the
    # Maxwell current is exact, and the homotopy operator resolves it
    A, F, L, ghost, result = _maxwell(2)
    el = euler_lagrange(L)
    J = result.current
    f = P(jet(A[0])) * P(jet(A[1])) ** 2
    closed = Current({0: J.component(0) + f.total_derivative(1),
                      1: J.component(1) - f.total_derivative(0)}, 2)
    split = extract(GaugeSymmetryResult.check(result.symmetry, closed, L), L)
    assert not split.remainder_witness.is_zero()
    assert verify_split(closed, split, el)[0]
    # a term that is not closed is a mathematical failure
    broken = Current({0: J.component(0) + f, 1: J.component(1)}, 2)
    with pytest.raises(SuperpotentialError) as err:
        extract(GaugeSymmetryResult.check(result.symmetry, broken, L), L)
    assert err.value.tag == TAG_GHOST_FREE


def test_extract_second_order_ghost_jets():
    # adding an exact antisymmetric ghost-order-1 piece raises the
    # expansion order to two, exercising the descent levels
    A, F, L, ghost, result = _maxwell(2)
    el = euler_lagrange(L)
    extra = Superpotential(
        {(0, 1): P(jet(ghost, (0,))) * P(jet(A[1]))
         + 2 * P(jet(ghost, (1,))) * P(jet(A[0], (1,)))}, 2)
    shifted = Current({mu: result.current.component(mu) + extra.divergence(mu)
                       for mu in range(2)}, 2)
    table, _ = collect_ghost_linear(shifted.components, {ghost})
    assert _ghost_order(table, ghost) == 2
    shifted_result = GaugeSymmetryResult.check(result.symmetry, shifted, L)
    checks = structural_checks(shifted_result, L)
    assert all(c.ok for c in checks)
    split = extract(shifted_result, L)
    ok, report = verify_split(shifted, split, el)
    assert ok, report
    dd = GradedPoly.zero()
    for mu in range(2):
        dd = dd + split.superpotential.divergence(mu).total_derivative(mu)
    assert dd.is_zero()


def test_extract_two_ghosts():
    A, F, L, ghost, result = _maxwell(2)
    el = euler_lagrange(L)
    op = NoetherOperator("gauge", {(A[v], (v,)): GradedPoly.constant(1)
                                   for v in range(2)})
    from vnoether import ghost_for
    other = ghost_for(op, "c2")
    second = gauge_symmetry(op, other, L)
    u = GeneralizedVectorField.make(
        {A[v]: result.symmetry.component(A[v]) + second.symmetry.component(A[v])
         for v in range(2)})
    J = Current({mu: result.current.component(mu) + second.current.component(mu)
                 for mu in range(2)}, 2)
    split = extract(GaugeSymmetryResult.check(u, J, L), L)
    ok, report = verify_split(J, split, el)
    assert ok, report
    both = P(jet(ghost)) + P(jet(other))
    for nu in range(2):
        for mu in range(2):
            if nu != mu:
                assert split.superpotential.component(nu, mu) \
                    == both * F[(nu, mu)]


def test_extract_even_ghost():
    theta = FieldSymbol("theta", parity=1)
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2
                   + P(jet(theta)) * P(jet(theta, (0,))), 1)
    el = euler_lagrange(L)
    dens = P(jet(antifield(PHI))) * P(jet(antifield(theta), (0,)))
    op = noether_operator_from_density(koszul_tate(dens, el), "mixed")
    assert check_noether_identity(op, el)
    from vnoether import ghost_for
    ghost = ghost_for(op, "ce")
    assert ghost.parity == 0
    result = gauge_symmetry(op, ghost, L)
    split = extract(result, L)
    ok, report = verify_split(result.current, split, el)
    assert ok, report


def test_random_boundary_identity_pipeline():
    rng = random.Random(71)
    done = 0
    while done < 25:
        dim = rng.choice([1, 2])
        L = rand_lagrangian(rng, dim=dim, max_order=1)
        el = euler_lagrange(L, [PHI, PSI])
        bars = [antifield(PHI), antifield(PSI)]
        indices = [()] + [(i,) for i in range(dim)]
        dens = GradedPoly.zero()
        for _ in range(rng.randint(1, 2)):
            term = GradedPoly.constant(rand_coeff(rng))
            term = term * P(jet(rng.choice(bars), rng.choice(indices)))
            term = term * P(jet(rng.choice(bars), rng.choice(indices)))
            for _ in range(rng.randint(0, 1)):
                term = term * P(jet(rng.choice((PHI, PSI)),
                                    rng.choice(indices)))
            dens = dens + term
        image = koszul_tate(dens, el)
        if image.is_zero():
            continue
        op = noether_operator_from_density(image, "bnd")
        if not op.coefficients:
            continue
        ghost = ghost_for(op, "cg")
        result = gauge_symmetry(op, ghost, L)
        split = extract(result, L)
        ok, report = verify_split(result.current, split, el)
        assert ok, report
        checks = structural_checks(result, L)
        assert all(c.ok for c in checks)
        dd = GradedPoly.zero()
        for mu in range(dim):
            dd = dd + split.superpotential.divergence(mu).total_derivative(mu)
        assert dd.is_zero()
        done += 1
