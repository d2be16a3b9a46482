"""Shared helpers of the test suite: seeded random generators, a reference
Grassmann arithmetic, and the round-trip oracles ``print_elaborated`` (an
elaborated model back to canonical source) and ``poly_from_data`` (the
inverse of ``algebra.poly_to_data``), which no command needs."""

import math
from fractions import Fraction
from typing import Mapping, Sequence

from vnoether import (KIND_GHOST, ODD, ElaboratedModel, EvaluationError,
                      FieldSymbol, GeneralizedVectorField, GradedPoly,
                      GrassmannElement, Lagrangian, MixedForm, jet)
from vnoether.algebra import coeff_text, multi_indices_up_to
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


# ---------------------------------------------------------------------------
# a Fraction-dict reference for the Grassmann oracle: an element is a dict
# {sorted generator tuple: nonzero Fraction}, with none of the oracle's code

def ref_mul(a, b):
    """The product of two reference elements; each pair of monomials takes
    the sign of the inversions that sort its concatenated generators."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            gens = k1 + k2
            if len(set(gens)) < len(gens):
                continue
            inversions = sum(1 for i, g in enumerate(gens)
                             for h in gens[i + 1:] if g > h)
            key = tuple(sorted(gens))
            out[key] = out.get(key, 0) + (-1) ** inversions * c1 * c2
    return {k: Fraction(c) for k, c in out.items() if c}


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: Fraction(c) for k, c in out.items() if c}


def ref_evaluate(poly, assignment, algebra):
    """``poly.evaluate`` by the per-factor algorithm, over reference
    elements: each monomial starts as its coefficient, every factor's value
    is lifted and multiplied in once per power, in the factor order of
    ``monomials()``, and the monomials are added one at a time.  Raises
    ``EvaluationError`` for the first unassigned variable and ValueError
    for an element of another algebra, as ``evaluate`` does."""
    total = {}
    for c, factors in poly.monomials():
        val = {(): Fraction(c)}
        for v, e in factors:
            if v not in assignment:
                raise EvaluationError(
                    f"no value assigned to {v.symbol.name}{v.index}")
            x = assignment[v]
            if isinstance(x, GrassmannElement):
                if x.algebra is not algebra:
                    raise ValueError("element belongs to a different algebra")
                x = {k: Fraction(c) for k, c in x.terms.items()}
            else:
                x = {(): Fraction(x)} if x else {}
            for _ in range(e):
                val = ref_mul(val, x)
        total = ref_add(total, val)
    return total


def rand_element(rng, algebra, parity=None, max_terms=4, den=6):
    """Random element with rational coefficients; ``parity`` keeps only
    monomials of that generator-count parity."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, min(3, algebra.ngen))
        if parity is not None and k % 2 != parity:
            k = k + 1 if k < algebra.ngen else k - 1
        key = tuple(sorted(rng.sample(range(algebra.ngen), k)))
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, den))
    return GrassmannElement(algebra, terms)


def assert_reduced_element(x):
    """The oracle's layout: nonzero int numerators over an int den >= 1,
    gcd(den, every numerator) == 1, and den == 1 for zero."""
    assert all(type(c) is int and c for c in x.num.values()), x.num
    assert type(x.den) is int and x.den >= 1
    assert math.gcd(x.den, *x.num.values()) == 1 if x.num else x.den == 1


# ---------------------------------------------------------------------------
# round-trip oracles: canonical model source from an elaborated model (flat
# components), and a polynomial from its ``poly_to_data`` form

def _poly_to_dsl(p: GradedPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for c, factors in p.monomials(ordered=True):
        parts.append("*".join([f"({coeff_text(c)})"]
                              + [_var_to_dsl(v) + (f"^{e}" if e > 1 else "")
                                 for v, e in factors]))
    return " + ".join(parts)


def _var_to_dsl(v) -> str:
    out = v.symbol.name
    for i in reversed(v.index):
        out = f"d[{i}]({out})"
    return out


def print_elaborated(model: ElaboratedModel) -> str:
    """Render the flat elaboration back to canonical source; re-parsing and
    re-elaborating reproduces the same structures."""
    lines = [f"dim {model.dim}"]
    if model.metric == "euclidean":
        lines.append("metric euclidean")
    else:
        lines.append(f"metric minkowski {model.signature}")
    for sym in model.fields:
        lines.append(f"field {sym.name} {'odd' if sym.parity else 'even'}")
    for gname, (sym, target) in sorted(model.ghosts.items()):
        lines.append(f"ghost {sym.name} {'odd' if sym.parity else 'even'} "
                     f"for {target}")
    if not model.lagrangian.density.is_zero():
        lines.append(f"lagrangian {_poly_to_dsl(model.lagrangian.density)}")
    for name, op in sorted(model.identities.items()):
        terms = []
        for (sym, index), poly in op.sorted_items():
            coeff = f"({_poly_to_dsl(poly)})"
            if index:
                idxs = ",".join(str(i) for i in index)
                terms.append(f"{coeff}*d[{idxs}](EL({sym.name}))")
            else:
                terms.append(f"{coeff}*EL({sym.name})")
        if terms:
            lines.append(f"identity {name}: " + " + ".join(terms))
    for name, ups in sorted(model.symmetries.items()):
        assigns = []
        for sym, poly in ups.vertical:
            assigns.append(f"{sym.name} <- {_poly_to_dsl(poly)}")
        if assigns:
            lines.append(f"symmetry {name}: " + " ; ".join(assigns))
    return "\n".join(lines) + "\n"


def poly_from_data(data: Sequence, symbols: Mapping[str, FieldSymbol]) -> GradedPoly:
    monomials = []
    for mono in data:
        p = GradedPoly.constant(Fraction(mono["coeff"]))
        for name, index, e in mono["even"]:
            p = p * GradedPoly.variable(jet(symbols[name], index)) ** e
        for name, index in mono["odd"]:
            p = p * GradedPoly.variable(jet(symbols[name], index))
        monomials.append(p)
    return GradedPoly.sum(monomials)
