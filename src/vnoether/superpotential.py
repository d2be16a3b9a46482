"""Decomposition of a gauge-symmetry current into an on-shell-vanishing
piece plus the divergence of an antisymmetric superpotential.

The current of a ghost-linear symmetry is expanded in ghost jets; the
conservation identity, collected on independent ghost jets, yields one
structural equation per multiset of derivative indices.  These are first
verified (and reported individually), then used as forced solutions: a
recursive elimination converts the top ghost-jet block into an explicit
superpotential increment, an explicit Euler-Lagrange-ideal increment and a
lower-order residual, with the exact invariant

    current = W-so-far + div(U-so-far) + working-current

asserted after every level.  Tensor-normalized coefficients (multiset
coefficient divided by the number of index orderings) make the pair
symmetrizations exact at any index multiplicity.  The ghost-free remainder
left at the end must be closed; the homotopy operator of
``variational.horizontal_antiderivative`` then decides whether it is exact
and adds its antiderivative to the superpotential.  No step searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (DEFAULT_JET_CAP, KIND_GHOST, FieldSymbol, GradedPoly,
                      accumulate, jet, mi_add, mi_permutations, mi_remove,
                      multi_indices)
from .forms import GeneralizedVectorField, MixedForm, omega_pair_contracted
from .gauge import GaugeError, collect_ghost_linear
from .variational import (NOT_EXACT, Current, EulerLagrange, Lagrangian,
                          Superpotential, expand_witness,
                          horizontal_antiderivative)

# structural equation labels, ordered from the top ghost-jet level down
TAG_TOP = "top-symmetric"             # top level: symmetrized part vanishes
TAG_DESCENT = "descent"               # levels above the symmetry order
TAG_SYM_SOURCE = "symmetric-source"   # intermediate levels with source terms
TAG_LEAD_SOURCE = "lead-source"       # first-derivative ghost level
TAG_DIV_SOURCE = "divergence-source"  # plain ghost level
TAG_GHOST_FREE = "ghost-free-closed"  # the ghost-free remainder is closed

STRUCTURAL_TAGS = (TAG_TOP, TAG_DESCENT, TAG_SYM_SOURCE, TAG_LEAD_SOURCE,
                   TAG_DIV_SOURCE, TAG_GHOST_FREE)


class SuperpotentialError(ValueError):
    """The input current fails a structural requirement: a structural
    equation, or a ghost-free remainder that is not closed or not exact.
    ``checks`` holds the structural checks ``extract`` ran before raising."""

    def __init__(self, message: str, tag: Optional[str] = None,
                 checks: Optional[list] = None):
        super().__init__(message)
        self.tag = tag
        self.checks = checks


def ghosts_of(u: GeneralizedVectorField) -> list:
    return sorted({v.symbol for _, poly in u.vertical
                   for v in poly.variables() if v.symbol.kind == KIND_GHOST},
                  key=lambda s: s.sort_key)


# ---------------------------------------------------------------------------
# ghost expansion

@dataclass
class GhostExpansion:
    """Current coefficients per (ghost, lead index, symmetric tail), plus
    the ghost-free remainder; the coefficients multiply the ghost jet from
    the left and reconstruct the input exactly."""

    entries: dict            # (ghost, mu, tail multi-index) -> GradedPoly
    remainder: dict          # mu -> GradedPoly
    dim: int
    ghosts: tuple

    def coefficient(self, ghost, mu, tail=()) -> GradedPoly:
        return self.entries.get((ghost, mu, tuple(sorted(tail))),
                                GradedPoly.zero())

    def order(self, ghost) -> int:
        return max((len(t) for (g, _, t) in self.entries if g == ghost),
                   default=0)

    def reconstruct(self) -> Current:
        comps: Dict[int, GradedPoly] = {}
        for (ghost, mu, tail), coeff in self.entries.items():
            accumulate(comps, mu, coeff * GradedPoly.variable(jet(ghost, tail)))
        for mu, poly in self.remainder.items():
            accumulate(comps, mu, poly)
        return Current(comps, self.dim)


def expand_current(J: Current, ghosts: Sequence[FieldSymbol]) -> GhostExpansion:
    """Collect a ghost-linear current on independent ghost jets."""
    for poly in J.components.values():
        if poly.degree_in(lambda v: v.symbol in ghosts) > 1:
            raise GaugeError("current is not ghost-linear")
    entries: Dict[tuple, GradedPoly] = {}
    remainder: Dict[int, GradedPoly] = {}
    for mu in range(J.dim):
        rest = J.component(mu)
        for ghost in ghosts:
            table, rest = collect_ghost_linear(rest, ghost, side="right")
            for tail, coeff in table.items():
                entries[(ghost, mu, tail)] = coeff
        if not rest.is_zero():
            remainder[mu] = rest
    exp = GhostExpansion(entries, remainder, J.dim, tuple(ghosts))
    rebuilt = exp.reconstruct()
    for mu in range(J.dim):
        if rebuilt.component(mu) != J.component(mu):
            raise AssertionError("ghost expansion failed to reconstruct")
    return exp


# ---------------------------------------------------------------------------
# structural equations

@dataclass
class StructuralCheck:
    tag: str
    ghost: Optional[str]
    level: int
    ok: bool
    residual: GradedPoly


def _symmetry_order(u: GeneralizedVectorField, ghost: FieldSymbol) -> int:
    best = 0
    for _, poly in u.vertical:
        for v in poly.variables():
            if v.symbol == ghost:
                best = max(best, len(v.index))
    return best


def structural_checks(J: Current, u: GeneralizedVectorField,
                      L: Lagrangian) -> List[StructuralCheck]:
    """Verify the per-level collected form of the conservation identity.

    Collecting  div J = u^A E_A  on the jets of one ghost gives, for each
    multi-index S, the equation

        (source coefficient at S) = d_nu J^{nu,S} + sum over lam in S of
                                    J^{lam, S minus lam},

    whose named tag depends on where the level sits relative to the
    symmetry order N and the expansion order M."""
    ghosts = ghosts_of(u)
    exp = expand_current(J, ghosts)
    source = expand_witness({(sym, ()): poly for sym, poly in u.vertical},
                            L.el, L.jet_cap)
    checks: List[StructuralCheck] = []
    cap = L.jet_cap
    for ghost in ghosts:
        order_m = exp.order(ghost)
        order_n = _symmetry_order(u, ghost)
        source_table, _ = collect_ghost_linear(source, ghost, side="right")
        for level in range(order_m + 2):
            for sigma in multi_indices(J.dim, level):
                sigma = tuple(sigma)
                lhs = source_table.get(sigma, GradedPoly.zero())
                rhs = Current({nu: exp.coefficient(ghost, nu, sigma)
                               for nu in range(J.dim)}, J.dim).divergence(cap)
                for lam in set(sigma):
                    rhs = rhs + exp.coefficient(ghost, lam,
                                                mi_remove(sigma, lam))
                residual = lhs - rhs
                if level == order_m + 1:
                    tag = TAG_TOP
                elif order_n < level <= order_m:
                    tag = TAG_DESCENT
                elif 1 < level <= order_n:
                    tag = TAG_SYM_SOURCE
                elif level == 1:
                    tag = TAG_LEAD_SOURCE
                else:
                    tag = TAG_DIV_SOURCE
                checks.append(StructuralCheck(tag, ghost.name, level,
                                              residual.is_zero(), residual))
    ghost_free = Current(exp.remainder, J.dim).divergence(cap)
    checks.append(StructuralCheck(TAG_GHOST_FREE, None, 0,
                                  ghost_free.is_zero(), ghost_free))
    return checks


# ---------------------------------------------------------------------------
# the split

@dataclass
class SuperpotentialSplit:
    """W as an explicit Euler-Lagrange combination, the antisymmetric
    superpotential, and the exactness witness for the ghost-free part.
    ``extract`` also hands back the results of the checks it ran: the
    structural ``checks`` and the ``verify_split`` ``report``."""

    w_table: dict                 # (FieldSymbol, multi-index, mu) -> GradedPoly
    w_polys: dict                 # mu -> GradedPoly (the claimed W^mu)
    superpotential: Superpotential
    remainder_witness: MixedForm  # (n-2)-form absorbing the ghost-free part
    dim: int
    checks: list = field(default_factory=list)   # StructuralCheck, in order
    report: dict = field(default_factory=dict)   # verify_split's report

    def w_component(self, mu: int) -> GradedPoly:
        return self.w_polys.get(mu, GradedPoly.zero())

    def expand_w_table(self, mu: int, el: EulerLagrange,
                       cap: int = DEFAULT_JET_CAP) -> GradedPoly:
        return expand_witness({(sym, index): w for (sym, index, m), w
                               in self.w_table.items() if m == mu}, el, cap)


def _superpotential_from_form(form: MixedForm) -> Superpotential:
    """Read the pair components off a horizontal (n-2)-form."""
    n = form.dim
    table: Dict[Tuple[int, int], GradedPoly] = {}
    for (contact, horiz), poly in form.components.items():
        if contact or len(horiz) != n - 2:
            raise ValueError("not a horizontal (n-2)-form")
        nu, mu = [i for i in range(n) if i not in horiz]
        _, sign = omega_pair_contracted(n, nu, mu)
        table[(nu, mu)] = poly * sign
    return Superpotential(table, n)


def extract(J: Current, u: GeneralizedVectorField,
            L: Lagrangian) -> SuperpotentialSplit:
    """Run the constructive decomposition.

    Precondition: J is the Noether current of the ghost-linear symmetry u.
    The structural equations are checked first and a failure raises with
    the failing equation tag, as does a ghost-free remainder that is not
    closed or closed but not exact; the error carries the checks.  The
    returned split is re-verified exactly by ``verify_split`` and carries
    the checks and that report, so no caller needs to run them again.
    """
    el = L.el
    cap = L.jet_cap
    n = J.dim
    checks = structural_checks(J, u, L)
    failing = [c for c in checks if not c.ok]
    if failing:
        raise SuperpotentialError(
            "input is not the Noether current of the symmetry "
            f"(failing equation: {failing[0].tag})", failing[0].tag, checks)
    ghosts = ghosts_of(u)

    working: Dict[int, GradedPoly] = {mu: J.component(mu) for mu in range(n)}
    w_table: Dict[tuple, GradedPoly] = {}
    w_polys: Dict[int, GradedPoly] = {mu: GradedPoly.zero() for mu in range(n)}
    pair_table: Dict[Tuple[int, int], GradedPoly] = {}
    # explicit Euler-Lagrange representation of the conservation source
    s_table: Dict[tuple, GradedPoly] = {(sym, ()): poly
                                        for sym, poly in u.vertical}

    def bump_pair(nu, mu, poly):
        if nu == mu or poly.is_zero():
            return
        if nu > mu:
            nu, mu, poly = mu, nu, -poly
        accumulate(pair_table, (nu, mu), poly)

    def apply_w_increment(increments, subtract_from_working):
        """Record increments in the W table/polys and keep the source
        representation synchronized (the source loses their divergence)."""
        for (sym, index, mu), w in increments.items():
            accumulate(w_table, (sym, index, mu), w)
            expanded = w * el.component(sym).total_derivative_multi(index, cap)
            w_polys[mu] = w_polys[mu] + expanded
            if subtract_from_working:
                working[mu] = working[mu] - expanded
            accumulate(s_table, (sym, index), -w.total_derivative(mu, cap))
            accumulate(s_table, (sym, mi_add(index, mu)), -w)

    def collect_source(ghost, sigma) -> Dict[tuple, GradedPoly]:
        """Right-collected coefficient of one ghost jet in every entry of
        the source table."""
        out: Dict[tuple, GradedPoly] = {}
        for (sym, index), w in s_table.items():
            table, _ = collect_ghost_linear(w, ghost, side="right")
            a = table.get(sigma)
            if a is not None and not a.is_zero():
                out[(sym, index)] = a
        return out

    while True:
        expansion = {}
        level = 0
        for ghost in ghosts:
            per_ghost: Dict[int, dict] = {}
            for mu in range(n):
                table, _ = collect_ghost_linear(working[mu], ghost, side="right")
                per_ghost[mu] = table
                for tail in table:
                    level = max(level, len(tail))
            expansion[ghost] = per_ghost
        if level == 0:
            break
        s = level
        scale = Fraction(2 * s, s + 1)
        for ghost in ghosts:
            per_ghost = expansion[ghost]
            if not any(len(t) == s for mu in range(n) for t in per_ghost[mu]):
                continue

            def jt(mu, tail):
                tail = tuple(sorted(tail))
                coeff = per_ghost[mu].get(tail)
                if coeff is None:
                    return GradedPoly.zero()
                return coeff * Fraction(1, mi_permutations(tail))

            # superpotential increment and level-(s-1) residual from the
            # pair-antisymmetrized top coefficients
            for t in multi_indices(n, s - 1):
                t = tuple(t)
                perm = mi_permutations(t)
                ghost_t = GradedPoly.variable(jet(ghost, t))
                for nu in range(n):
                    for mu in range(nu + 1, n):
                        anti = (jt(nu, mi_add(t, mu)) - jt(mu, mi_add(t, nu))) \
                            * Fraction(1, 2)
                        if anti.is_zero():
                            continue
                        bump_pair(nu, mu, -(scale * perm) * (anti * ghost_t))
                        dnu = anti.total_derivative(nu, cap)
                        if not dnu.is_zero():
                            working[mu] = working[mu] \
                                + (scale * perm) * (dnu * ghost_t)
                        dmu = anti.total_derivative(mu, cap)
                        if not dmu.is_zero():
                            working[nu] = working[nu] \
                                - (scale * perm) * (dmu * ghost_t)
            # Euler-Lagrange increment from the source collected one level up
            w_increments: Dict[tuple, GradedPoly] = {}
            for lam_tail in multi_indices(n, s):
                lam_tail = tuple(lam_tail)
                perm_tail = mi_permutations(lam_tail)
                ghost_tail = GradedPoly.variable(jet(ghost, lam_tail))
                for mu in range(n):
                    sigma = mi_add(lam_tail, mu)
                    factor = Fraction(perm_tail, mi_permutations(sigma))
                    for (sym, index), a in collect_source(ghost, sigma).items():
                        accumulate(w_increments, (sym, index, mu),
                                   factor * (a * ghost_tail))
            # remove the whole level-s block of this ghost
            for mu in range(n):
                for tail, coeff in per_ghost[mu].items():
                    if len(tail) == s:
                        working[mu] = working[mu] \
                            - coeff * GradedPoly.variable(jet(ghost, tail))
            apply_w_increment(w_increments, subtract_from_working=False)
        # exact invariant: div(working) equals the updated source
        if Current(working, n).divergence(cap) \
                != expand_witness(s_table, el, cap):
            raise AssertionError("reduction lost the conservation invariant")

    # ghost-linear order-0 terms are source coefficients directly
    w_increments = {}
    for ghost in ghosts:
        ghost0 = GradedPoly.variable(jet(ghost))
        for mu in range(n):
            for (sym, index), a in collect_source(ghost, (mu,)).items():
                accumulate(w_increments, (sym, index, mu), a * ghost0)
    apply_w_increment(w_increments, subtract_from_working=True)

    for ghost in ghosts:
        for mu in range(n):
            table, _ = collect_ghost_linear(working[mu], ghost, side="right")
            if table:
                raise AssertionError("ghost-linear terms survived the reduction")
    remainder = Current({mu: working[mu] for mu in range(n)
                         if not working[mu].is_zero()}, n)
    if not remainder.divergence(cap).is_zero():
        raise SuperpotentialError("ghost-free remainder is not closed",
                                  TAG_GHOST_FREE, checks)
    witness = MixedForm.zero(n)
    if any(not p.is_zero() for p in remainder.components.values()):
        res = horizontal_antiderivative(remainder.form(), cap=cap)
        if res.status == NOT_EXACT:
            raise SuperpotentialError(
                "ghost-free remainder is closed but not exact", TAG_GHOST_FREE,
                checks)
        witness = res.witness
        for (nu, mu), poly in _superpotential_from_form(witness).components.items():
            bump_pair(nu, mu, poly)

    split = SuperpotentialSplit(w_table, w_polys, Superpotential(pair_table, n),
                                witness, n, checks)
    ok, split.report = verify_split(J, split, el, cap)
    if not ok:
        raise AssertionError(
            f"split failed its own verification: {split.report}")
    return split


def verify_split(J: Current, split: SuperpotentialSplit, el: EulerLagrange,
                 cap: int = DEFAULT_JET_CAP):
    """Three checks: (a) antisymmetry of the superpotential, (b) exact
    reconstruction of the current, (c) W expands exactly from its
    Euler-Lagrange coefficient table."""
    report = {}
    report["antisymmetric"] = split.superpotential.is_antisymmetric()
    recon = True
    ideal = True
    for mu in range(J.dim):
        w_mu = split.w_component(mu)
        if J.component(mu) != w_mu + split.superpotential.divergence(mu, cap):
            recon = False
        if w_mu != split.expand_w_table(mu, el, cap):
            ideal = False
    report["reconstruction"] = recon
    report["w_in_euler_lagrange_ideal"] = ideal
    return all(report.values()), report
