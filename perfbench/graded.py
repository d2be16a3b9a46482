"""``graded_identities``: seeded random inputs with known zero answers.

Every case is an identity of the graded variational bicomplex, so its known
answer is "normalizes to zero".  Each family also carries one built-in
broken input whose answer is "non-zero", so a check that always says zero
cannot pass.  The generator is the benchmark's own (it does not import the
test helpers), so editing the tests cannot shift these inputs.  Inputs are
built in the parent before any pass is timed; an operation is one batch of
one family, checked in the guarded child.
"""

from __future__ import annotations

import random
from fractions import Fraction

from vnoether import (EVEN, KIND_GHOST, ODD, Current, FieldSymbol,
                      GaugeError, GeneralizedVectorField, GradedPoly,
                      GrassmannAlgebra, Lagrangian, MixedForm, antifield,
                      check_lepage, euler_lagrange, euler_lagrange_form,
                      extended_lagrangian, first_variational_residual, jet,
                      koszul_tate, lepage_equivalent, lie_derivative,
                      load_model, prolong)
from vnoether.algebra import multi_indices_up_to

from workloads import MODELS, Op

P = GradedPoly.variable
PHI = FieldSymbol("phi")
PSI = FieldSymbol("psi")
GHOST_B = FieldSymbol("b", KIND_GHOST, ODD)
GHOST_C = FieldSymbol("c", KIND_GHOST, ODD)
SYMBOLS = (PHI, PSI, GHOST_B, GHOST_C)
CAP = 8
BATCHES = 4          # operations per family and pass
# Ladder models for the extended Lagrangian; KT o KT runs on all but SU(2),
# whose large Euler-Lagrange expressions would dominate the family's time.
KT_MODELS = ("maxwell2.vln", "sqed3.vln", "su2_d3.vln", "chern_simons3.vln",
             "second_order.vln", "scalar_shift.vln")
NILPOTENCY_MODELS = tuple(m for m in KT_MODELS if m != "su2_d3.vln")


def _coeff(rng):
    return Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))


def _poly(rng, pool, max_factors, max_terms, parity=None):
    out = GradedPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = GradedPoly.constant(_coeff(rng))
        for _ in range(rng.randint(0, max_factors)):
            term = term * P(rng.choice(pool))
        out = out + term
    return out if parity is None else out.parity_part(parity)


def _pool(symbols, dim, order):
    return [jet(s, i) for s in symbols
            for i in multi_indices_up_to(dim, order)]


def _lagrangian(rng, dim, order, max_degree):
    pool = _pool((PHI, PSI), dim, order)
    out = GradedPoly.zero()
    for _ in range(rng.randint(2, 4)):
        term = GradedPoly.constant(_coeff(rng))
        for _ in range(rng.randint(2, max_degree)):
            term = term * P(rng.choice(pool))
        out = out + term
    return Lagrangian(out, dim, jet_cap=CAP)


# -- families: each maker returns (cases, broken); a case is a thunk whose
# -- result is True when its residual normalizes to zero.  Dimensions, orders
# -- and models cycle in a fixed order, so the seed changes the polynomials
# -- but not the mix of sizes, and a pass costs about the same for every seed.

def _dh_squared(rng, n):
    def case(form):
        return lambda: form.horizontal_differential(CAP) \
            .horizontal_differential(CAP).is_zero()

    cases = []
    while len(cases) < n:
        dim = (2, 3)[len(cases) % 2]
        pool = _pool(SYMBOLS, dim, 2)
        form = MixedForm.zero(dim)
        for _ in range(rng.randint(2, 4)):
            piece = MixedForm.from_poly(_poly(rng, pool, 3, 3), dim)
            for _ in range(rng.randint(1, 2)):
                piece = piece.wedge(MixedForm.contact(rng.choice(pool), dim))
            if rng.random() < 0.5:
                piece = piece.wedge(MixedForm.dx(rng.randrange(dim), dim))
            form = form + piece
        if not form.is_zero():
            cases.append(case(form))
    # broken: d_H of a 0-form that is not closed
    broken = MixedForm.from_poly(P(jet(PHI)) * P(jet(GHOST_B)), 2)
    return cases, lambda: broken.horizontal_differential(CAP).is_zero()


def _el_of_divergence(rng, n):
    def case(density, dim):
        L = Lagrangian(density, dim, parity=density.parity or EVEN,
                       jet_cap=CAP)
        return lambda: euler_lagrange(L).is_zero()

    cases = []
    while len(cases) < n:
        dim = (1, 2, 3)[len(cases) % 3]
        pool = _pool(SYMBOLS, dim, 2)
        comps = {mu: _poly(rng, pool, 4, 4, parity=EVEN)
                 for mu in range(dim)}
        density = Current(comps, dim).divergence(CAP)
        if not density.is_zero():
            cases.append(case(density, dim))
    broken = Lagrangian(P(jet(PHI)) ** 2, 1, jet_cap=CAP)
    return cases, lambda: euler_lagrange(broken).is_zero()


def _lepage(rng, n):
    cases = [(lambda L: lambda: check_lepage(L))(
        _lagrangian(rng, (1, 2)[k % 2], 2, 3)) for k in range(n)]
    # broken: the source form of a different Lagrangian
    L = _lagrangian(rng, 2, 2, 3)
    other = Lagrangian(L.density + P(jet(PHI)) ** 2, 2, jet_cap=CAP)

    def broken():
        return (L.form().exterior_differential(CAP)
                - euler_lagrange_form(other)
                + lepage_equivalent(L).horizontal_differential(CAP)).is_zero()

    return cases, broken


def _first_variation(rng, n):
    def case(ups, L):
        return lambda: first_variational_residual(ups, L).is_zero()

    cases = []
    while len(cases) < n:
        dim, order = ((1, 1), (1, 2), (2, 1), (2, 2))[len(cases) % 4]
        L = _lagrangian(rng, dim, order, 3)
        pool = _pool(SYMBOLS, dim, 1)
        comps = {s: _poly(rng, pool, 2, 3, parity=ODD) for s in (PHI, PSI)}
        ups = GeneralizedVectorField.make(comps)
        if ups.vertical:
            cases.append(case(ups, L))
    # broken: the Lie derivative alone, under a shift that is no symmetry
    shift = GeneralizedVectorField.make({PHI: P(jet(GHOST_C))})
    L = Lagrangian(Fraction(1, 2) * P(jet(PHI)) ** 2, 1, jet_cap=CAP)
    return cases, lambda: lie_derivative(prolong(shift, 1, CAP), L.form(),
                                         CAP).is_zero()


def _koszul_tate(rng, n):
    models = {name: load_model((MODELS / name).read_text())
              for name in KT_MODELS}
    els = {name: euler_lagrange(m.lagrangian, m.fields)
           for name, m in models.items()}

    def nilpotent(p, el):
        return lambda: koszul_tate(koszul_tate(p, el), el).is_zero()

    def extended(m):
        pairs = [(op, m.ghost_of(name))
                 for name, op in sorted(m.identities.items())]

        def check():
            try:
                extended_lagrangian(m.lagrangian, pairs, validate=True)
            except GaugeError:
                return False
            return True
        return check

    cases = [extended(m) for m in models.values()]
    names = sorted(NILPOTENCY_MODELS)
    while len(cases) < n:
        name = names[len(cases) % len(names)]   # the same model mix per seed
        m = models[name]
        fields = list(m.fields)
        ghosts = [m.ghost_of(i) for i in sorted(m.identities)]
        pool = _pool(fields + ghosts, m.dim, 1)
        bars = _pool([antifield(s) for s in fields], m.dim, 0)
        p = GradedPoly.zero()
        for _ in range(rng.randint(1, 3)):
            term = GradedPoly.constant(_coeff(rng))
            # two antifields, so the outer KT still has one to act on
            term = term * P(rng.choice(bars)) * P(rng.choice(bars))
            for _ in range(rng.randint(0, 2)):
                term = term * P(rng.choice(pool))
            p = p + term
        if not p.is_zero():
            cases.append(nilpotent(p, els[name]))
    wrong = load_model((MODELS / "su2_wrong_sign.vln").read_text())
    return cases, extended(wrong)


def _grassmann(rng, n):
    algebra = GrassmannAlgebra(10)

    def point(polys):
        variables = set()
        for poly in polys:
            variables |= poly.variables()
        values, gen = {}, 0
        for v in sorted(variables, key=lambda v: (v.symbol.name, v.index)):
            if v.parity == EVEN:
                values[v] = _coeff(rng)
            elif gen == algebra.ngen:
                return None
            else:
                values[v] = algebra.generator(gen)
                gen += 1
        return values

    def case(p, q, at):
        def check():
            ev = lambda r: r.evaluate(at, algebra)
            return (ev(p * q) - ev(p) * ev(q)).is_zero()
        return check

    cases = []
    pool = _pool(SYMBOLS, 2, 1)
    while len(cases) < n:
        p = _poly(rng, pool, 4, 5, parity=rng.randint(0, 1))
        q = _poly(rng, pool, 4, 5, parity=rng.randint(0, 1))
        at = point([p, q])
        if p.is_zero() or q.is_zero() or at is None:
            continue
        cases.append(case(p, q, at))
    # broken: odd factors taken in the wrong order
    b, c = P(jet(GHOST_B)), P(jet(GHOST_C))
    at = point([b, c])

    def broken():
        ev = lambda r: r.evaluate(at, algebra)
        return (ev(b * c) - ev(c) * ev(b)).is_zero()

    return cases, broken


# family -> (maker of its cases, cases per pass)
FAMILIES = {
    "dh_squared": (_dh_squared, 100),
    "el_of_divergence": (_el_of_divergence, 300),
    "lepage": (_lepage, 200),
    "first_variation": (_first_variation, 200),
    "koszul_tate": (_koszul_tate, 80),
    "grassmann": (_grassmann, 1200),
}


def _batch_execute(thunks):
    def execute(emit):
        return {"zero": [bool(t()) for t in thunks]}, {}
    return execute


def graded_identities(seed: int) -> list:
    """Operations of one pass: every family in ``BATCHES`` batches, with the
    broken input first in the first batch of each family."""
    ops = []
    for family, (make_cases, count) in FAMILIES.items():
        rng = random.Random(f"{seed}:{family}")
        cases, broken = make_cases(rng, count)
        thunks = [broken] + cases
        expected = [False] + [True] * len(cases)
        size = -(-len(thunks) // BATCHES)
        for k in range(BATCHES):
            part = slice(k * size, (k + 1) * size)
            ops.append(Op(f"{family}[{k}]", _batch_execute(thunks[part]),
                          {"zero": expected[part]}))
    return ops
