"""Shared random generators for the test suite (seeded, deterministic)."""

from fractions import Fraction

from vnoether import (KIND_GHOST, ODD, FieldSymbol, GeneralizedVectorField,
                      GradedPoly, Lagrangian, MixedForm, jet)
from vnoether.algebra import multi_indices_up_to
from vnoether.forms import _sort_contact

P = GradedPoly.variable

PHI = FieldSymbol("phi")
PSI = FieldSymbol("psi")
CH1 = FieldSymbol("b", KIND_GHOST, ODD)
CH2 = FieldSymbol("c", KIND_GHOST, ODD)

DEFAULT_SYMBOLS = (PHI, PSI, CH1, CH2)


def rand_coeff(rng, den=2):
    num = rng.randint(-3, 3) or 1
    return Fraction(num, rng.randint(1, den))


def rand_poly(rng, symbols=DEFAULT_SYMBOLS, dim=1, max_order=2, max_factors=3,
              max_terms=3, parity=None):
    """Random polynomial; optionally projected to one parity."""
    indices = list(multi_indices_up_to(dim, max_order))
    out = GradedPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = GradedPoly.constant(rand_coeff(rng))
        for _ in range(rng.randint(0, max_factors)):
            sym = rng.choice(symbols)
            term = term * P(jet(sym, rng.choice(indices)))
        out = out + term
    if parity is not None:
        out = out.parity_part(parity)
    return out


def rand_form(rng, symbols=DEFAULT_SYMBOLS, dim=2, max_order=2,
              max_contact=2, max_terms=3):
    """Random mixed form with canonicalized contact labels."""
    indices = list(multi_indices_up_to(dim, max_order))
    comps = {}
    for _ in range(rng.randint(1, max_terms)):
        labels = []
        for _ in range(rng.randint(0, max_contact)):
            labels.append(jet(rng.choice(symbols), rng.choice(indices)))
        sc = _sort_contact(tuple(labels))
        if sc is None:
            continue
        contact, sign = sc
        horiz = tuple(sorted(rng.sample(range(dim), rng.randint(0, dim))))
        poly = rand_poly(rng, symbols, dim, max_order) * Fraction(sign)
        key = (contact, horiz)
        cur = comps.get(key, GradedPoly.zero())
        comps[key] = cur + poly
    return MixedForm(dim, comps)


def rand_vertical(rng, fields, dim=1, max_order=1, parity=None):
    """Random vertical generalized vector field of homogeneous parity."""
    if parity is None:
        parity = rng.randint(0, 1)
    comps = {}
    for sym in fields:
        if rng.random() < 0.3:
            continue
        poly = rand_poly(rng, DEFAULT_SYMBOLS, dim, max_order,
                         parity=(parity + sym.parity) % 2)
        if not poly.is_zero():
            comps[sym] = poly
    return GeneralizedVectorField.make(comps)


def rand_lagrangian(rng, fields=(PHI, PSI), dim=1, max_order=1, max_degree=3,
                    cap=6):
    """Random even Lagrangian built from even fields."""
    indices = list(multi_indices_up_to(dim, max_order))
    out = GradedPoly.zero()
    for _ in range(rng.randint(1, 3)):
        term = GradedPoly.constant(rand_coeff(rng))
        for _ in range(rng.randint(1, max_degree)):
            term = term * P(jet(rng.choice(fields), rng.choice(indices)))
        out = out + term
    return Lagrangian(out, dim, jet_cap=cap)


def assert_canonical(p):
    """The ring's coefficient invariant: int when integral, else a Fraction
    with denominator > 1; never a float or a zero."""
    for c, _ in p.monomials():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c
