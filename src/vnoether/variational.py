"""Variational subcomplex operators.

Euler-Lagrange expressions, the Lepage equivalent with its coefficient
recursion, the first variational formula as an executable residual, an
exactness decision procedure for horizontal forms (the Euler-Lagrange and
closedness obstructions decide "not exact", the homotopy operator of the
variational bicomplex builds the antiderivative otherwise), tests of
variational symmetries, Noether currents and weak-conservation witnesses
(constructive from the first variational formula when the symmetry is
known; ``weak_conservation_witness`` keeps a bounded ansatz search for a
bare current, and is the one producer of BOUND_EXHAUSTED).  Every one of
these decisions returns an ``ExactnessResult``: a status, the witness
(a form, or a table {(A, I): w}) and, for a failed re-check, the residual.
Coefficients are polynomials in the jets alone, with no base coordinate
x^i, so the homotopy weighs a monomial by its degree in all jets and a
nonzero constant term is not exact.

Vector fields are vertical, so the Lie derivative of L vol along pr u is
pr u(L) vol (``prolonged_variation``), which the symmetry test and the
Noether current use.  ``first_variational_residual`` takes it as i d(L vol)
instead, independent of that shortcut: d i(L vol) vanishes, since pr u
pairs only with contact slots and L vol has none.
A ``Lagrangian`` builds its derived objects once, on first use, and keeps
them (see the class); every function here reads them from it.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .algebra import (DEFAULT_JET_CAP, EVEN, ODD, FieldSymbol, GradedPoly,
                      InternalError, accumulate, jet, mi_add, mi_binomial,
                      mi_permutations, mi_remove, mi_subtract, multi_indices,
                      multi_indices_up_to, var_key)
from .forms import (ContactDerivation, GeneralizedVectorField, MixedForm,
                    contract, omega_contracted, omega_pair_contracted, prolong)
from .linsolve import solve_sparse

EXACT = "exact"
NOT_EXACT = "not_exact"
BOUND_EXHAUSTED = "bound_exhausted"


class ConsistencyError(ValueError):
    """A supplied witness does not satisfy the identity it claims to."""


class Lagrangian:
    """The density of L vol.  Immutable; equal and hash-equal to a twin
    built apart, and pickled by value.  Its derived objects (``gradient``,
    ``el``, ``lepage``, ``source_form``, ``d_form``, ``prolongation``) are
    built on first use and kept on the instance, outside equality and
    hashing."""

    def __init__(self, density: GradedPoly, dim: int, parity: int = EVEN,
                 jet_cap: int = DEFAULT_JET_CAP):
        if density.jet_order() > jet_cap:
            raise ValueError("Lagrangian exceeds the jet cap")
        p = density.parity
        if p is not None and p != parity:
            raise ValueError("declared parity does not match the density")
        self.__dict__.update(density=density, dim=dim, parity=parity,
                             jet_cap=jet_cap)

    def __setattr__(self, name, value=None):
        raise AttributeError("Lagrangian is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.density, self.dim, self.parity, self.jet_cap

    def __eq__(self, other):
        if other.__class__ is not Lagrangian:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return Lagrangian, self._key()

    def __repr__(self):
        return ("Lagrangian(density={!r}, dim={!r}, parity={!r}, "
                "jet_cap={!r})".format(*self._key()))

    def form(self) -> MixedForm:
        return MixedForm.density(self.density, self.dim)

    def field_symbols(self) -> list:
        return sorted(self.density.symbols(), key=lambda s: s.sort_key)

    @cached_property
    def gradient(self) -> dict:
        """``density.gradient()``, shared and never changed: the
        Euler-Lagrange operator, the Lepage table and pr u(L) read it;
        ``d_form`` takes its own."""
        return self.density.gradient()

    @cached_property
    def el(self) -> EulerLagrange:
        return euler_lagrange(self)

    @cached_property
    def lepage(self) -> MixedForm:
        return lepage_equivalent(self)

    @cached_property
    def source_form(self) -> MixedForm:
        return euler_lagrange_form(self)

    @cached_property
    def d_form(self) -> MixedForm:
        """d(L vol); only its vertical part d_V(L vol) is nonzero."""
        return self.form().exterior_differential(self.jet_cap)

    @cached_property
    def _prolongations(self) -> dict:
        return {}

    def prolongation(self, ups: GeneralizedVectorField) -> ContactDerivation:
        """prolong(ups), once per vector field value."""
        deriv = self._prolongations.get(ups)
        if deriv is None:
            deriv = self._prolongations[ups] = prolong(ups, self.dim,
                                                       self.jet_cap)
        return deriv


class EulerLagrange(NamedTuple):
    components: dict  # FieldSymbol -> GradedPoly

    def component(self, sym: FieldSymbol) -> GradedPoly:
        return self.components.get(sym, GradedPoly.zero())

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components.values())

    def sorted_items(self):
        return sorted(self.components.items(), key=lambda it: it[0].sort_key)


class Current(NamedTuple):
    components: dict  # coordinate index -> GradedPoly
    dim: int

    def component(self, mu: int) -> GradedPoly:
        return self.components.get(mu, GradedPoly.zero())

    def form(self) -> MixedForm:
        out = {}
        for mu, poly in self.components.items():
            horiz, sign = omega_contracted(self.dim, mu)
            accumulate(out, ((), horiz), poly * sign)
        return MixedForm(self.dim, out)

    def divergence(self, cap: int = DEFAULT_JET_CAP) -> GradedPoly:
        return GradedPoly.sum(poly.total_derivative(mu, cap)
                              for mu, poly in self.components.items())

    @staticmethod
    def from_form(form: MixedForm) -> "Current":
        comps = {}
        for (contact, horiz), poly in form.components.items():
            if contact or len(horiz) != form.dim - 1:
                raise ValueError("not a horizontal (n-1)-form")
            missing = [i for i in range(form.dim) if i not in horiz]
            mu = missing[0]
            _, sign = omega_contracted(form.dim, mu)
            comps[mu] = poly * sign
        return Current(comps, form.dim)


class Superpotential(NamedTuple):
    """Antisymmetric pair table; the (n-2)-form is half the trace against
    omega_{nu mu}."""
    components: dict  # (nu, mu) -> GradedPoly, antisymmetric
    dim: int

    def component(self, nu: int, mu: int) -> GradedPoly:
        p = self.components.get((nu, mu))
        if p is not None:
            return p
        q = self.components.get((mu, nu))
        if q is not None:
            return -q
        return GradedPoly.zero()

    def is_antisymmetric(self) -> bool:
        for (nu, mu), p in self.components.items():
            if nu == mu and not p.is_zero():
                return False
            q = self.components.get((mu, nu))
            if q is None:
                continue
            if not (p + q).is_zero():
                return False
        return True

    def form(self) -> MixedForm:
        out = {}
        for nu in range(self.dim):
            for mu in range(nu + 1, self.dim):
                horiz, sign = omega_pair_contracted(self.dim, nu, mu)
                accumulate(out, ((), horiz),
                           self.component(nu, mu) * sign)
        return MixedForm(self.dim, out)

    @staticmethod
    def from_form(form: MixedForm) -> "Superpotential":
        """Read the pair components off a horizontal (n-2)-form."""
        n = form.dim
        table = {}
        for (contact, horiz), poly in form.components.items():
            if contact or len(horiz) != n - 2:
                raise ValueError("not a horizontal (n-2)-form")
            nu, mu = [i for i in range(n) if i not in horiz]
            _, sign = omega_pair_contracted(n, nu, mu)
            table[(nu, mu)] = poly * sign
        return Superpotential(table, n)

    def divergence(self, mu: int, cap: int = DEFAULT_JET_CAP) -> GradedPoly:
        """d_nu U^{nu mu}."""
        return GradedPoly.sum(self.component(nu, mu).total_derivative(nu, cap)
                              for nu in range(self.dim) if nu != mu)


# ---------------------------------------------------------------------------
# Euler-Lagrange operator and the variational one-form

def euler_lagrange(L: Lagrangian,
                   symbols: Optional[Sequence[FieldSymbol]] = None) -> EulerLagrange:
    """E_A = sum over I of (-d)_I dL/du^A_I (left partials), nested: from
    the top order down, Q_I = dL/du^A_I - sum over mu >= max I of
    d_mu Q_{I+mu}, each Q_I summed into its parent (I without its last
    index), and E_A = Q_().  A Q_I that cancels is never differentiated, so
    the jet cap counts only the jets this recursion builds."""
    if symbols is None:
        symbols = L.field_symbols()
    partials: Dict[FieldSymbol, dict] = {}
    for v, g in L.gradient.items():
        partials.setdefault(v.symbol, {})[v.index] = g
    comps = {}
    for sym in symbols:
        q = partials.get(sym, {})
        for k in range(max(map(len, q), default=0), 0, -1):
            for index in [i for i in q if len(i) == k]:
                accumulate(q, index[:-1],
                           -q[index].total_derivative(index[-1], L.jet_cap))
        comps[sym] = q.get((), GradedPoly.zero())
    return EulerLagrange(comps)


def euler_lagrange_form(L: Lagrangian) -> MixedForm:
    """The source form: E_A moved left of th^A (its involution for an odd
    field) at ((th^A,), vol), for each nonzero E_A."""
    vol = tuple(range(L.dim))
    return MixedForm(L.dim, {
        ((jet(sym),), vol): poly.involution() if sym.parity else poly
        for sym, poly in L.el.sorted_items()})


# ---------------------------------------------------------------------------
# Lepage equivalent

def lepage_table(L: Lagrangian) -> dict:
    """Tensor-normalized coefficient recursion with the free local functions
    set to zero; totally symmetric in all indices, keyed by (symbol,
    multi-index).  Division by the permutation count converts the multiset
    partial derivative into the symmetric tensor component."""
    order = L.density.jet_order()
    gradient = L.gradient
    syms = L.field_symbols()
    table: Dict[Tuple[FieldSymbol, tuple], GradedPoly] = {}
    for k in range(order, 0, -1):
        for sym in syms:
            for mi in multi_indices(L.dim, k):
                mi = tuple(mi)
                terms = [gradient.get(jet(sym, mi), GradedPoly.zero())
                         * Fraction(1, mi_permutations(mi))]
                for lam in range(L.dim):
                    upper = table.get((sym, mi_add(mi, lam)))
                    if upper is not None:
                        terms.append(-upper.total_derivative(lam, L.jet_cap))
                val = GradedPoly.sum(terms)
                if not val.is_zero():
                    table[(sym, mi)] = val
    return table


def lepage_equivalent(L: Lagrangian) -> MixedForm:
    """L vol plus, per table entry val at (A, sigma) and distinct lam in
    sigma, the component th^A_{sigma-lam} ^ omega_lam with coefficient val
    (its involution for odd A) times the orderings of sigma-lam times the
    sign of omega_lam; distinct (A, sigma, lam) give distinct keys."""
    table = lepage_table(L)
    out = dict(L.form().components)
    for (sym, sigma) in sorted(table, key=lambda k: (k[0].sort_key, k[1])):
        val = table[(sym, sigma)]
        if sym.parity:
            val = val.involution()
        for lam in sorted(set(sigma)):
            tail = mi_remove(sigma, lam)
            horiz, sign = omega_contracted(L.dim, lam)
            out[((jet(sym, tail),), horiz)] = \
                val * (mi_permutations(tail) * sign)
    return MixedForm(L.dim, out)


def check_lepage(L: Lagrangian) -> bool:
    """dL + d_H Xi - (source form) must normalize to zero exactly."""
    return (L.d_form - L.source_form
            + L.lepage.horizontal_differential(L.jet_cap)).is_zero()


# ---------------------------------------------------------------------------
# first variational formula

def first_variational_residual(ups: GeneralizedVectorField,
                               L: Lagrangian) -> MixedForm:
    """Difference of the two sides of the first variational formula;
    identically zero when the conventions cohere.

    The left side is the Lie derivative of L vol as i d(L vol), not
    ``prolonged_variation``: this is the executable identity that
    justifies that shortcut, so it must not use it.  The Cartan formula's
    other term d i(L vol) is zero: the vertical derivation pairs only with
    contact slots, and L vol has none."""
    deriv = L.prolongation(ups)
    lhs = contract(deriv, L.d_form)
    source = contract(deriv, L.source_form)
    boundary = contract(deriv, L.lepage).horizontal_part()
    return lhs - source - boundary.horizontal_differential(L.jet_cap)


def prolonged_variation(deriv: ContactDerivation, L: Lagrangian) -> MixedForm:
    """pr u(L) vol: the Lie derivative of the top form L vol along a
    prolonged derivation.  It has no dx component and the top form no
    contact slot, so the Cartan formula reduces to the derivation applied
    to the density (Olver, *Applications of Lie Groups to Differential
    Equations*, ch. 5)."""
    return MixedForm.density(deriv.apply_to_gradient(L.gradient), L.dim)


# ---------------------------------------------------------------------------
# monomial ansatz machinery

def _class_vector(factors):
    """Per-symbol degree vector of a monomial, sorted by symbol."""
    counts: Dict[FieldSymbol, int] = {}
    for v, e in factors:
        counts[v.symbol] = counts.get(v.symbol, 0) + e
    return tuple(sorted(counts.items(), key=lambda it: it[0].sort_key))


def _symbol_monomials(sym: FieldSymbol, degree: int, dim: int, max_order: int):
    """All degree-d monomials in the jets of one symbol, as polynomials."""
    variables = [jet(sym, mi) for mi in multi_indices_up_to(dim, max_order)]
    if sym.parity == ODD:
        combos = combinations(variables, degree)
    else:
        combos = combinations_with_replacement(variables, degree)
    out = []
    for combo in combos:
        p = GradedPoly.constant(1)
        for v in combo:
            p = p * GradedPoly.variable(v)
        if not p.is_zero():
            out.append(p)
    return out


def _class_monomials(cls, dim: int,
                     order_caps: Mapping[FieldSymbol, int]) -> list:
    """Deterministically ordered candidate monomials of an exact per-symbol
    degree vector."""
    parts = [GradedPoly.constant(1)]
    for sym, degree in cls:
        cap = order_caps.get(sym, 0)
        sym_monos = _symbol_monomials(sym, degree, dim, cap)
        parts = [p * m for p in parts for m in sym_monos]
    # dedupe by monomial, keeping the first occurrence
    uniq = {}
    for p in parts:
        for _, factors in p.monomials():
            uniq.setdefault(factors, p)
    return [uniq[f] for f in sorted(uniq, key=_mono_sort)]


def _mono_sort(factors):
    """Graded-lex order of a monomial: degree, then its sorted factors."""
    seq = sorted((var_key(v), e) for v, e in factors)
    return (sum(e for _, e in seq), tuple(seq))


class ExactnessResult(NamedTuple):
    """An exactness decision: d_H-exactness of a horizontal form (witness
    its antiderivative form), or membership of div J in the Euler-Lagrange
    ideal (witness the table {(A, I): w} with div J = sum w^{A,I} d_I E_A).
    ``residual`` is the nonzero difference when a witness fails its check."""
    status: str
    witness: Union[MixedForm, dict, None] = None
    residual: Optional[GradedPoly] = None

    def __bool__(self):
        return self.status == EXACT


def _solve_columns(columns: List[Mapping], targets: Mapping):
    """Exact solve of  sum_i c_i * columns[i][label] = targets[label]  for
    every component label; returns the c_i or None.

    Rows are keyed by (label, monomial) in first-seen order, columns before
    targets.  ``solve_sparse`` breaks pivot ties by row index, so this order
    (and the column order) fixes the particular solution."""
    row_index: Dict[tuple, int] = {}
    rows: List[Dict[int, Fraction]] = []
    rhs: List[Fraction] = []

    def row_for(key):
        ri = row_index.get(key)
        if ri is None:
            ri = row_index[key] = len(rows)
            rows.append({})
            rhs.append(Fraction(0))
        return ri

    for ci, column in enumerate(columns):
        for label, poly in column.items():
            for c, mono in poly.monomials():
                row = rows[row_for((label, mono))]
                row[ci] = row.get(ci, 0) + c
    for label, poly in targets.items():
        for c, mono in poly.monomials():
            rhs[row_for((label, mono))] = c
    return solve_sparse(rows, rhs, len(columns))


# ---------------------------------------------------------------------------
# horizontal exactness: the homotopy operator of the variational bicomplex

def _monomial(c, factors) -> GradedPoly:
    term = GradedPoly.constant(c)
    for v, e in factors:
        term = term * GradedPoly.variable(v) ** e
    return term


def _weighted(poly: GradedPoly) -> GradedPoly:
    """P-hat: each monomial of degree k >= 1 weighted by 1/k, every jet
    counting toward k.  The constant term, of degree 0, has no weight and
    is left out: the caller refuses it."""
    return GradedPoly.sum(
        _monomial(Fraction(c, k), factors) for c, factors in poly.monomials()
        if (k := sum(e for _, e in factors)))


def transfer_derivatives(items, cap: int, skip_empty: bool = False) -> dict:
    """Move every total derivative off the slot of each ((A, I), c):
    ((A, S), (-1)^|I| binom(I,S) d_{I-S} c) for each sub-multi-index S of
    I, accumulated over all items.  ``skip_empty`` leaves out S = (), the
    full d_I c: the homotopy operator does not use it, and on a current it
    can pass the jet cap."""
    out: Dict[tuple, GradedPoly] = {}
    for (sym, index), poly in items:
        sign = -1 if len(index) % 2 else 1
        for k in range(1 if skip_empty else 0, len(index) + 1):
            for sub in {tuple(sorted(s)) for s in combinations(index, k)}:
                rest = mi_subtract(index, sub)
                accumulate(out, (sym, sub), poly.total_derivative_multi(
                    rest, cap) * (sign * mi_binomial(index, sub)))
    return out


def _higher_euler(poly: GradedPoly, cap: int) -> dict:
    """{(A, K): u^A E_A^K(poly)} over nonempty multi-indices K, where
    E_A^K(P) = sum over M containing K of binom(M, K) (-d)_{M-K} dP/du^A_M
    and u^A stands to the left: (-1)^|K| times the transferred partials."""
    table = transfer_derivatives(
        (((v.symbol, v.index), g) for v, g in poly.gradient().items()),
        cap, skip_empty=True)
    return {(sym, sub): GradedPoly.variable(jet(sym))
            * (-e if len(sub) % 2 else e) for (sym, sub), e in table.items()}


def _homotopy(euler: Mapping, j: int, c: int, cap: int) -> GradedPoly:
    """h_j^c = sum over A and K containing j of
    k_j / (|K| + c) * d_{K-j}(u^A E_A^K), from ``_higher_euler``."""
    return GradedPoly.sum(
        term.total_derivative_multi(mi_remove(sub, j), cap)
        * Fraction(sub.count(j), len(sub) + c)
        for (_, sub), term in euler.items() if j in sub)


def horizontal_antiderivative(rho: MixedForm,
                              cap: int = DEFAULT_JET_CAP) -> ExactnessResult:
    """Decide d_H-exactness of a horizontal form of degree n or n-1 and
    produce an antiderivative.

    The obstructions decide NOT_EXACT: nonzero Euler-Lagrange expressions
    for a density, n = 1 or a nonzero d_H for an (n-1)-form, and a nonzero
    constant term, which has no antiderivative without base coordinates
    in the ring.  Otherwise the homotopy operator of the variational
    bicomplex (Anderson, *The Variational Bicomplex*, ch. 4-5; Hereman et
    al., "Continuous and discrete homotopy operators", 2005) builds the
    witness from P-hat, the input with each monomial of degree k in the
    jets divided by k: sigma^j = h_j^0(rho-hat) for a density, and
    U^{nu mu} = h_nu^1(J-hat^mu) - h_mu^1(J-hat^nu) for a current.  The
    witness is re-checked exactly.

    The operator differentiates to jet order 2k - 1 for an input of order
    k: one less than the Euler-Lagrange check of a density already needs,
    and past the default cap of 6 for a current of order 4 or more.
    """
    if not rho.is_horizontal():
        raise ValueError("input must be horizontal")
    n = rho.dim
    degrees = rho.horizontal_degrees()
    if not degrees:
        return ExactnessResult(EXACT, MixedForm.zero(n))
    if len(degrees) > 1:
        raise ValueError("input must have homogeneous horizontal degree")
    degree = degrees.pop()
    if degree == n:
        # a density d_mu sigma^mu: its Euler-Lagrange expressions vanish
        density = rho.coefficient(horiz=tuple(range(n)))
        parity = density.parity if density.parity is not None else EVEN
        if (not Lagrangian(density, n, parity, cap).el.is_zero()
                or density.constant_term()):
            return ExactnessResult(NOT_EXACT)
        euler = _higher_euler(_weighted(density), cap)
        witness = Current({j: _homotopy(euler, j, 0, cap)
                           for j in range(n)}, n).form()
    elif degree == n - 1:
        # a current d_nu U^{nu mu}: closed, and a 0-form has no antiderivative
        if n == 1 or not rho.horizontal_differential(cap).is_zero():
            return ExactnessResult(NOT_EXACT)
        current = Current.from_form(rho)
        euler = {}
        for mu in range(n):
            poly = current.component(mu)
            if poly.constant_term():
                return ExactnessResult(NOT_EXACT)
            euler[mu] = _higher_euler(_weighted(poly), cap)
        witness = Superpotential(
            {(nu, mu): _homotopy(euler[mu], nu, 1, cap)
             - _homotopy(euler[nu], mu, 1, cap)
             for nu in range(n) for mu in range(nu + 1, n)}, n).form()
    else:
        raise ValueError("only degrees n and n-1 are supported")
    if not (witness.horizontal_differential(cap) - rho).is_zero():
        raise InternalError("antiderivative failed its own re-check")
    return ExactnessResult(EXACT, witness)


# ---------------------------------------------------------------------------
# variational symmetries, currents, conservation witnesses

def is_variational_symmetry(ups: GeneralizedVectorField,
                            L: Lagrangian) -> ExactnessResult:
    """A vector field is a variational symmetry iff pr u(L) is a total
    divergence; returns the homotopy's decision and witness."""
    return horizontal_antiderivative(
        prolonged_variation(L.prolongation(ups), L), cap=L.jet_cap)


def noether_current(ups: GeneralizedVectorField, L: Lagrangian,
                    sigma: Union[MixedForm, ExactnessResult]) -> Current:
    """Current of a variational symmetry: the witness minus the horizontal
    projection of the contracted Lepage equivalent.  A bare witness form
    ``sigma`` is re-validated against pr u(L); a bad one raises
    ConsistencyError.  The ``ExactnessResult`` of
    ``is_variational_symmetry(ups, L)`` is not re-validated: that function
    has checked its witness against pr u(L) already (a NOT_EXACT result
    raises ConsistencyError)."""
    deriv = L.prolongation(ups)
    if isinstance(sigma, ExactnessResult):
        if sigma.status != EXACT:
            raise ConsistencyError("not a variational symmetry")
        sigma = sigma.witness
    else:
        lhs = prolonged_variation(deriv, L)
        if not (sigma.horizontal_differential(L.jet_cap) - lhs).is_zero():
            raise ConsistencyError(
                "sigma does not witness the symmetry condition")
    boundary = contract(deriv, L.lepage).horizontal_part()
    return Current.from_form(sigma - boundary)


def _cls_key(d: Mapping) -> tuple:
    return tuple(sorted(((s, v) for s, v in d.items() if v),
                        key=lambda it: it[0].sort_key))


def _cls_deg(cls) -> int:
    return sum(v for _, v in cls)


def weak_conservation_witness(J: Current, el: EulerLagrange,
                              cap: int = DEFAULT_JET_CAP) -> ExactnessResult:
    """Solve  div J = sum w^{A,I} d_I E_A  exactly for the coefficients w.

    Candidate coefficient monomials are collected per degree-vector class,
    closing over classes the products introduce (those must cancel among
    itself).  Returns NOT_EXACT when some divergence monomial is not a
    multiple of any prolonged Euler-Lagrange monomial (provably no witness
    exists), BOUND_EXHAUSTED when the bounded ansatz has no solution.
    """
    target = J.divergence(cap)
    if target.is_zero():
        return ExactnessResult(EXACT, {})
    order = target.jet_order()
    basis = []  # (sym, index, d_I E_A, e-monomial classes)
    for sym, comp in el.sorted_items():
        if comp.is_zero():
            continue
        base_order = comp.jet_order()
        for index in multi_indices_up_to(J.dim, max(0, order - base_order)):
            de = comp.total_derivative_multi(index, cap)
            ecls = {_class_vector(f) for _, f in de.monomials()}
            basis.append((sym, tuple(index), de, ecls))
    # provable obstruction: a divergence monomial no product can equal
    all_ecls = set()
    for _, _, _, ecls in basis:
        all_ecls.update(ecls)
    target_cls = [_class_vector(f) for _, f in target.monomials()]
    for tcls in target_cls:
        tdict = dict(tcls)
        if not any(all(tdict.get(s, 0) >= v for s, v in ec) for ec in all_ecls):
            return ExactnessResult(NOT_EXACT)
    # class closure for the candidate coefficients
    deg_cap = target.degree()
    frontier_cap = max((_cls_deg(t) for t in target_cls), default=0) \
        + max((_cls_deg(ec) for ec in all_ecls), default=0)
    frontier = set(target_cls)
    chosen = set()  # (basis position, coefficient class)
    for _ in range(8):
        changed = False
        for bi, (_, _, _, ecls) in enumerate(basis):
            for fcls in sorted(frontier, key=str):
                fdict = dict(fcls)
                for ec in sorted(ecls, key=str):
                    edict = dict(ec)
                    if not all(fdict.get(s, 0) >= v for s, v in edict.items()):
                        continue
                    mdict = {s: fdict.get(s, 0) - edict.get(s, 0)
                             for s in fdict}
                    mcls = _cls_key(mdict)
                    if _cls_deg(mcls) > deg_cap or (bi, mcls) in chosen:
                        continue
                    chosen.add((bi, mcls))
                    changed = True
                    for ec2 in ecls:
                        combined = dict(mdict)
                        for s, v in ec2:
                            combined[s] = combined.get(s, 0) + v
                        newf = _cls_key(combined)
                        if _cls_deg(newf) <= frontier_cap:
                            if newf not in frontier:
                                frontier.add(newf)
                                changed = True
        if not changed:
            break
    caps_map = {}
    for _, _, de, _ in basis:
        for v in list(target.variables()) + list(de.variables()):
            caps_map[v.symbol] = order
    unknowns = []
    for bi, (sym, index, de, _) in enumerate(basis):
        classes = sorted((mcls for (b, mcls) in chosen if b == bi), key=str)
        for mcls in classes:
            for m in _class_monomials(mcls, J.dim, caps_map):
                unknowns.append((sym, index, m, de))
    if not unknowns:
        return ExactnessResult(BOUND_EXHAUSTED)
    sol = _solve_columns([{None: m * de} for _, _, m, de in unknowns],
                         {None: target})
    if sol is None:
        return ExactnessResult(BOUND_EXHAUSTED)
    table: Dict[tuple, GradedPoly] = {}
    for (sym, index, m, _), c in zip(unknowns, sol):
        if c:
            accumulate(table, (sym, index), m * c)
    return ExactnessResult(EXACT, table)


def expand_witness(table: Mapping, el: EulerLagrange,
                   cap: int = DEFAULT_JET_CAP) -> GradedPoly:
    """Sum of w^{A,I} d_I E_A over a table {(A, I): w}, w on the left."""
    return GradedPoly.sum(
        w * el.component(sym).total_derivative_multi(index, cap)
        for (sym, index), w in table.items())


def symmetry_witness(ups: GeneralizedVectorField, J: Current,
                     el: EulerLagrange,
                     cap: int = DEFAULT_JET_CAP) -> ExactnessResult:
    """Weak-conservation witness of the Noether current of a symmetry,
    read off the first variational formula d_H J = u^A E_A.

    The table {(A, ()): u^A} keeps u^A left of E_A, as ``expand_witness``
    multiplies, so odd components keep their sign.  It is re-checked
    exactly against div J: EXACT when the expansion matches, otherwise
    NOT_EXACT with the nonzero difference as ``residual``.
    """
    table = {(sym, ()): poly for sym, poly in ups.vertical
             if not poly.is_zero()}
    residual = expand_witness(table, el, cap) - J.divergence(cap)
    if residual.is_zero():
        return ExactnessResult(EXACT, table)
    return ExactnessResult(NOT_EXACT, residual=residual)
