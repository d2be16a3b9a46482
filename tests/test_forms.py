import pickle
import random
from fractions import Fraction

import pytest

from vnoether import (EVEN, ODD, GeneralizedVectorField, GradedPoly,
                      Lagrangian, MixedForm, UnsupportedDerivation, contract,
                      is_nilpotent, jet, lie_derivative, prolong,
                      prolonged_variation)
from vnoether.algebra import DEFAULT_JET_CAP, accumulate, bump, var_key
from vnoether.forms import _parity_sum, _sort_contact, _sort_horiz
from vnoether.variational import EXACT, horizontal_antiderivative

from helpers import (CH1, CH2 as C, DEFAULT_SYMBOLS, PHI, PSI, rand_form,
                     rand_poly, rand_vertical)

P = GradedPoly.variable


def test_vector_fields_are_immutable_values():
    u = GeneralizedVectorField.make({PHI: P(jet(C)), PSI: P(jet(C, (0,)))})
    twin = GeneralizedVectorField.make({PSI: P(jet(C, (0,))), PHI: P(jet(C))})
    assert u is not twin and u == twin and hash(u) == hash(twin)
    with pytest.raises(AttributeError):
        u.vertical = ()
    assert u.component(PHI) == P(jet(C))
    back = pickle.loads(pickle.dumps(u))
    assert back == u and hash(back) == hash(u)


def test_horizontal_differential_definition():
    f = MixedForm.from_poly(P(jet(PHI)), 2)
    df = f.horizontal_differential()
    assert df.coefficient(horiz=(0,)) == P(jet(PHI, (0,)))
    assert df.coefficient(horiz=(1,)) == P(jet(PHI, (1,)))


def test_horizontal_nilpotency_example():
    f = MixedForm.from_poly(P(jet(PHI)) * P(jet(PHI, (0,))), 2)
    assert f.horizontal_differential().horizontal_differential().is_zero()


def test_mixed_partials_cancel():
    # the exact one-form d_H(phi) is closed by symmetry of mixed partials
    rho = MixedForm(2, {((), (0,)): P(jet(PHI, (0,))),
                        ((), (1,)): P(jet(PHI, (1,)))})
    assert rho.horizontal_differential().is_zero()


def test_exterior_differential_examples():
    f = MixedForm.from_poly(P(jet(PHI)), 1)
    df = f.exterior_differential()
    assert df.coefficient(contact=(jet(PHI),)) == GradedPoly.constant(1)
    assert df.coefficient(horiz=(0,)) == P(jet(PHI, (0,)))
    g = MixedForm.from_poly(P(jet(PHI)) * P(jet(C)), 1)
    assert g.exterior_differential().exterior_differential().is_zero()
    L = MixedForm.density(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, 1)
    dL = L.exterior_differential()
    assert dL.coefficient(contact=(jet(PHI, (0,)),), horiz=(0,)) \
        == P(jet(PHI, (0,)))


def test_horizontal_part():
    n = 1
    theta_dx = MixedForm(n, {((jet(PHI),), (0,)): GradedPoly.constant(1)})
    assert theta_dx.horizontal_part().is_zero()
    horiz = MixedForm.density(P(jet(PHI)), n)
    assert horiz.horizontal_part() == horiz
    df = MixedForm.from_poly(P(jet(PHI)), n).exterior_differential()
    assert df.horizontal_part() == MixedForm(
        n, {((), (0,)): P(jet(PHI, (0,)))})


def test_bicomplex_identities_random():
    rng = random.Random(21)
    for _ in range(200):
        dim = rng.choice([1, 2, 3])
        w = rand_form(rng, dim=dim, max_order=2)
        assert w.horizontal_differential().horizontal_differential().is_zero()
        assert w.exterior_differential().exterior_differential().is_zero()
        assert (w.exterior_differential().horizontal_part()
                == w.horizontal_part().horizontal_differential())


def test_wedge_graded_commutativity_random():
    rng = random.Random(22)
    done = 0
    while done < 60:
        a = rand_form(rng, dim=2, max_terms=2)
        b = rand_form(rng, dim=2, max_terms=2)
        adeg = {len(k[0]) + len(k[1]) for k in a.components}
        bdeg = {len(k[0]) + len(k[1]) for k in b.components}
        apar = {(p.parity + sum(l.parity for l in k[0])) % 2
                for k, p in a.components.items() if p.parity is not None}
        bpar = {(p.parity + sum(l.parity for l in k[0])) % 2
                for k, p in b.components.items() if p.parity is not None}
        if len(adeg) != 1 or len(bdeg) != 1 or len(apar) != 1 or len(bpar) != 1:
            continue
        if any(p.parity is None for p in a.components.values()):
            continue
        if any(p.parity is None for p in b.components.values()):
            continue
        sign = (-1) ** (adeg.pop() * bdeg.pop() + apar.pop() * bpar.pop())
        assert a.wedge(b) == b.wedge(a) * sign
        done += 1


def test_prolongation_coefficients():
    n = 1
    ups = GeneralizedVectorField.make({PHI: P(jet(PHI, (0,)))})
    deriv = prolong(ups, n)
    assert deriv.theta_coefficient(jet(PHI, (0,))) == P(jet(PHI, (0, 0)))
    ups2 = GeneralizedVectorField.make({PHI: P(jet(C))})
    deriv2 = prolong(ups2, n)
    assert deriv2.theta_coefficient(jet(PHI, (0,))) == P(jet(C, (0,)))


def test_contract_examples():
    n = 1
    deriv = prolong(GeneralizedVectorField.make({PHI: P(jet(C))}), n)
    assert contract(deriv, MixedForm.contact(jet(PHI), n)) \
        == MixedForm.from_poly(P(jet(C)), n)
    assert contract(deriv, MixedForm.dx(0, n)).is_zero()
    assert contract(deriv, MixedForm.contact(jet(PHI, (0,)), n)) \
        == MixedForm.from_poly(P(jet(C, (0,))), n)


def test_prolongation_derivative_compatibility_random():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.choice([1, 2])
        ups = rand_vertical(rng, (PHI, PSI), dim=dim)
        if not ups.vertical:
            continue
        deriv = prolong(ups, dim)
        sym = rng.choice([PHI, PSI])
        index = tuple(sorted(rng.choices(range(dim), k=rng.randint(1, 2))))
        lhs = contract(deriv, MixedForm.contact(jet(sym, index), dim))
        base = deriv.theta_coefficient(jet(sym))
        for lam in index:
            base = base.total_derivative(lam)
        assert lhs == MixedForm.from_poly(base, dim)


def test_lie_derivative_examples():
    n = 1
    deriv = prolong(GeneralizedVectorField.make({PHI: P(jet(C))}), n)
    assert lie_derivative(deriv, MixedForm.density(P(jet(PHI)), n)) \
        == MixedForm.density(P(jet(C)), n)
    L = MixedForm.density(Fraction(1, 2) * P(jet(PHI, (0,))) ** 2, n)
    deriv2 = prolong(GeneralizedVectorField.make({PHI: P(jet(PHI, (0,)))}), n)
    assert lie_derivative(deriv2, L) == MixedForm.density(
        P(jet(PHI, (0,))) * P(jet(PHI, (0, 0))), n)
    one = MixedForm.from_poly(GradedPoly.constant(1), n)
    assert lie_derivative(deriv, one).is_zero()


def test_cartan_identity_against_direct_derivation():
    # reverify the Cartan-formula output against the independent expansion
    # of the derivation on coefficients
    rng = random.Random(24)
    done = 0
    while done < 60:
        dim = rng.choice([1, 2])
        ups = rand_vertical(rng, (PHI, PSI), dim=dim)
        if not ups.vertical:
            continue
        deriv = prolong(ups, dim)
        f = rand_poly(rng, dim=dim, max_order=2)
        lhs = lie_derivative(deriv, MixedForm.density(f, dim))
        assert lhs == MixedForm.density(deriv.apply_to_poly(f), dim)
        lhs0 = lie_derivative(deriv, MixedForm.from_poly(f, dim))
        assert lhs0.horizontal_part() == MixedForm.from_poly(
            deriv.apply_to_poly(f), dim)
        done += 1


def test_prolonged_variation_equals_cartan_formula():
    # pr u(L) vol against the Cartan formula on graded Lagrangians of both
    # parities, with odd fields in L and odd or even derivations
    rng = random.Random(28)
    done = 0
    parities_seen = set()
    while done < 120:
        dim = rng.choice([1, 2, 3])
        parity = rng.randint(0, 1)
        density = rand_poly(rng, DEFAULT_SYMBOLS, dim=dim, max_order=2,
                            parity=parity)
        ups = rand_vertical(rng, DEFAULT_SYMBOLS, dim=dim,
                            parity=rng.randint(0, 1))
        if density.is_zero() or not ups.vertical:
            continue
        L = Lagrangian(density, dim, parity=parity)
        deriv = prolong(ups, dim)
        assert prolonged_variation(deriv, L) \
            == lie_derivative(deriv, L.form(), L.jet_cap)
        parities_seen.add((parity, deriv.parity))
        done += 1
    assert parities_seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


# d_H and d_V write each component's key and sign directly; the references
# build them from one form per term and take the signs from ``wedge``.

def _total_derivative_reference(form, lam):
    """d_lam of every coefficient and of every contact slot, one slot at a
    time, summed into one dict."""
    out = {}
    for (contact, horiz), f in form.components.items():
        accumulate(out, (contact, horiz), f.total_derivative(lam))
        for i, lab in enumerate(contact):
            cs = _sort_contact(contact[:i] + (bump(lab, lam, DEFAULT_JET_CAP),)
                               + contact[i + 1:])
            if cs is not None:
                accumulate(out, (cs[0], horiz), f * cs[1])
    return MixedForm(form.dim, out)


def _horizontal_differential_unpruned(form):
    """dx^lam ^ d_lam over every lam; the wedge drops a repeated index."""
    out = MixedForm.zero(form.dim)
    for lam in range(form.dim):
        out = out + MixedForm.dx(lam, form.dim).wedge(
            _total_derivative_reference(form, lam))
    return out


def _odd_slot_forms(rng, count):
    """Random forms on a small pool of labels, so that odd contact slots
    repeat; returns the forms and how many hold a repeated odd slot."""
    forms, repeats = [], 0
    for _ in range(count):
        dim = rng.choice([1, 2, 3])
        form = rand_form(rng, symbols=(PHI, CH1, C), dim=dim, max_order=1,
                         max_contact=3, max_terms=4)
        repeats += any(a == b for contact, _ in form.components
                       for a, b in zip(contact, contact[1:]))
        forms.append(form)
    return forms, repeats


def test_horizontal_differential_matches_unpruned_reference():
    rng = random.Random(29)
    for _ in range(150):
        form = rand_form(rng, dim=rng.choice([1, 2, 3]), max_terms=4)
        assert form.horizontal_differential() \
            == _horizontal_differential_unpruned(form)
    forms, repeats = _odd_slot_forms(rng, 150)
    assert repeats >= 15
    for form in forms:
        assert form.horizontal_differential() \
            == _horizontal_differential_unpruned(form)


# The per-parity sign bookkeeping that GradedPoly.involution replaced, kept
# as references: each splits a coefficient into its even and odd parts and
# signs them apart.

def _wedge_per_parity(a, b):
    out = {}
    for (i1, j1), p in a.components.items():
        pi1 = _parity_sum(i1)
        for (i2, j2), q in b.components.items():
            for qp in (EVEN, ODD):
                qpart = q.parity_part(qp)
                if qpart.is_zero():
                    continue
                sign = 1
                if qp and pi1:
                    sign = -sign
                if (len(j1) * len(i2)) % 2:
                    sign = -sign
                cs = _sort_contact(i1 + i2)
                if cs is None:
                    continue
                contact, csign = cs
                hs = _sort_horiz(j1 + j2)
                if hs is None:
                    continue
                horiz, hsign = hs
                coeff = (p * qpart) * (sign * csign * hsign)
                if not coeff.is_zero():
                    accumulate(out, (contact, horiz), coeff)
    return MixedForm(a.dim, out)


def _vertical_differential_poly_per_parity(f, dim):
    out = {}
    gradient = f.gradient()
    for v in sorted(gradient, key=var_key):
        g = gradient[v]
        for gp in (EVEN, ODD):
            part = g.parity_part(gp)
            if part.is_zero():
                continue
            sign = -1 if (gp and v.parity) else 1
            accumulate(out, ((v,), ()), part * sign)
    return MixedForm(dim, out)


def _contract_per_parity(deriv, form):
    out = {}
    for (contact, horiz), f in form.components.items():
        for fp in (EVEN, ODD):
            fpart = f.parity_part(fp)
            if fpart.is_zero():
                continue
            labels_par = 0
            for i, lab in enumerate(contact):
                coeff = deriv.theta_coefficient(lab)
                if not coeff.is_zero():
                    prefix_par = (fp + labels_par) % 2
                    sign = -1 if i % 2 else 1
                    if prefix_par and deriv.parity:
                        sign = -sign
                    cpar = (deriv.parity + lab.parity) % 2
                    if cpar and labels_par:
                        sign = -sign
                    value = (fpart * coeff) * sign
                    if not value.is_zero():
                        accumulate(out, (contact[:i] + contact[i + 1:], horiz),
                                   value)
                labels_par = (labels_par + lab.parity) % 2
    return MixedForm(form.dim, out)


def _mixed(form):
    return any(p.parity is None for p in form.components.values())


def test_wedge_matches_per_parity_reference():
    rng = random.Random(30)
    mixed = 0
    for _ in range(200):
        dim = rng.choice([1, 2, 3])
        a = rand_form(rng, dim=dim, max_terms=2)
        b = rand_form(rng, dim=dim, max_terms=2)
        mixed += _mixed(b)
        assert a.wedge(b) == _wedge_per_parity(a, b)
    assert mixed >= 40


def test_vertical_differential_matches_per_parity_reference():
    rng = random.Random(31)
    for _ in range(200):
        dim = rng.choice([1, 2])
        f = rand_poly(rng, dim=dim, max_order=2, max_terms=4)
        assert MixedForm.from_poly(f, dim).vertical_differential() \
            == _vertical_differential_poly_per_parity(f, dim)
    # d_V(f th^I dx^J) = d_V(f) ^ th^I dx^J, also where odd slots repeat
    forms, repeats = _odd_slot_forms(rng, 200)
    assert repeats >= 25
    for form in forms + [rand_form(rng, dim=2, max_terms=2)
                         for _ in range(50)]:
        reference = MixedForm.zero(form.dim)
        for key, f in form.components.items():
            reference = reference + _wedge_per_parity(
                _vertical_differential_poly_per_parity(f, form.dim),
                MixedForm(form.dim, {key: GradedPoly.constant(1)}))
        assert form.vertical_differential() == reference


def test_contract_matches_per_parity_reference():
    # derivations of both parities on forms whose coefficients mix
    # parities
    rng = random.Random(32)
    seen = set()
    mixed = 0
    done = 0
    while done < 240:
        dim = rng.choice([1, 2])
        ups = rand_vertical(rng, DEFAULT_SYMBOLS, dim=dim,
                            parity=rng.randint(0, 1))
        if not ups.vertical:
            continue
        deriv = prolong(ups, dim)
        form = rand_form(rng, dim=dim, max_terms=3)
        assert contract(deriv, form) == _contract_per_parity(deriv, form)
        seen.add(deriv.parity)
        mixed += _mixed(form)
        done += 1
    assert seen == {EVEN, ODD}
    assert mixed >= 40


def test_lie_leibniz_random():
    rng = random.Random(25)
    done = 0
    while done < 40:
        dim = 2
        par = rng.randint(0, 1)
        ups = rand_vertical(rng, (PHI, PSI), dim=dim, parity=par)
        if not ups.vertical:
            continue
        deriv = prolong(ups, dim)
        a = rand_form(rng, dim=dim, max_terms=1, max_contact=1)
        b = rand_form(rng, dim=dim, max_terms=1, max_contact=1)
        apar = {(p.parity + sum(l.parity for l in k[0])) % 2
                for k, p in a.components.items() if p.parity is not None}
        if len(apar) != 1 or any(p.parity is None for p in a.components.values()):
            continue
        sign = (-1) ** (deriv.parity * apar.pop())
        lhs = lie_derivative(deriv, a.wedge(b))
        rhs = lie_derivative(deriv, a).wedge(b) \
            + a.wedge(lie_derivative(deriv, b)) * sign
        assert lhs == rhs
        done += 1


def test_exact_lagrangians_stay_exact_under_symmetries():
    # a total divergence stays a total divergence under any vertical
    # derivation (checked through the exactness solver)
    rng = random.Random(26)
    done = 0
    while done < 50:
        dim = rng.choice([1, 2])
        sigma_comps = {mu: rand_poly(rng, (PHI, PSI), dim=dim, max_order=1,
                                     parity=EVEN)
                       for mu in range(dim)}
        from vnoether.variational import Current
        sigma = Current(sigma_comps, dim).form()
        L = sigma.horizontal_differential()
        if L.is_zero():
            continue
        ups = rand_vertical(rng, (PHI, PSI), dim=dim, parity=EVEN)
        if not ups.vertical:
            continue
        deriv = prolong(ups, dim)
        moved = lie_derivative(deriv, L)
        res = horizontal_antiderivative(moved.horizontal_part())
        assert res.status == EXACT
        done += 1


def test_is_nilpotent():
    n = 1
    assert is_nilpotent(prolong(
        GeneralizedVectorField.make({PHI: P(jet(C))}), n)) is True
    assert is_nilpotent(prolong(
        GeneralizedVectorField.make({PHI: P(jet(PHI))}), n)) is False
    # odd derivation that fails the coefficient criterion
    assert is_nilpotent(prolong(
        GeneralizedVectorField.make({C: P(jet(C, (0,)))}), n)) is False
    # c*c_x annihilates itself under the derivation, hence nilpotent
    assert is_nilpotent(prolong(
        GeneralizedVectorField.make({C: P(jet(C)) * P(jet(C, (0,)))}), n)) is True


def test_nilpotency_matches_squared_action():
    # the criterion agrees with literally applying the derivation twice
    rng = random.Random(27)
    done = 0
    while done < 40:
        ups = rand_vertical(rng, (PHI, C), dim=1, parity=rng.randint(0, 1))
        if not ups.vertical:
            continue
        deriv = prolong(ups, 1)
        try:
            verdict = is_nilpotent(deriv)
        except UnsupportedDerivation:
            continue
        squared_zero = True
        for sym in (PHI, C):
            for index in ((), (0,)):
                f = P(jet(sym, index))
                ff = deriv.apply_to_poly(deriv.apply_to_poly(f))
                if deriv.parity == ODD:
                    if not ff.is_zero():
                        squared_zero = False
                else:
                    squared_zero = None
        if deriv.parity == ODD:
            assert verdict == squared_zero
        else:
            assert verdict is False
        done += 1


def test_mixed_form_sum():
    rng = random.Random(29)
    for _ in range(30):
        forms = [rand_form(rng) for _ in range(rng.randint(0, 5))]
        total = MixedForm.sum(2, forms)
        keys = {key for form in forms for key in form.components}
        assert set(total.components) <= keys
        for contact, horiz in keys:
            assert total.coefficient(contact, horiz) == GradedPoly.sum(
                form.coefficient(contact, horiz) for form in forms)
        assert all(not p.is_zero() for p in total.components.values())
    form = rand_form(rng)
    assert MixedForm.sum(2, [form, -form]).is_zero()
    with pytest.raises(ValueError, match="dimension mismatch"):
        MixedForm.sum(2, [form, MixedForm.dx(0, 3)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        form + MixedForm.dx(0, 3)
