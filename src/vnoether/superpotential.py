"""Decomposition of a gauge-symmetry current into an on-shell-vanishing
piece plus the divergence of an antisymmetric superpotential.

Each ghost-linear polynomial is split once, by
``gauge.collect_ghost_linear``, into a table keyed by the jets c_S of the
symmetry's ghosts (coefficient to the left of c_S) plus a ghost-free part.
The split takes a ``GaugeSymmetryResult``, a current with its
weak-conservation check.  The structural equations are that check's
residual u^A E_A - div J collected on those jets: its coefficient of c_S
is one equation per ghost and multiset of derivative indices.  These are
first verified (and reported individually), then used as forced
solutions: a recursive elimination on the tables of the working current
and of the source converts the top ghost-jet block into an explicit
superpotential increment, an explicit Euler-Lagrange-ideal increment and
a lower-order residual.  A total derivative acts on a table by Leibniz on
the key, d_lam(a c_T) = (d_lam a) c_T + a c_{T+lam}, and a level is
removed by deleting its keys.  Polynomials are built only for the checks
and the report: the exact invariant

    current = W-so-far + div(U-so-far) + working-current

is checked after every level, and W and U are reported.  Tensor-normalized
coefficients (multiset coefficient divided by the number of index
orderings) make the pair symmetrizations exact at any index multiplicity.
The ghost-free remainder left at the end is closed (the structural check
``ghost-free-closed``); the homotopy operator of
``variational.horizontal_antiderivative`` decides whether it is exact and
adds its antiderivative to the superpotential.  No step searches.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import (DEFAULT_JET_CAP, KIND_GHOST, FieldSymbol, GradedPoly,
                      InternalError, accumulate, jet, mi_add, mi_permutations,
                      multi_indices)
from .forms import GeneralizedVectorField, MixedForm
from .gauge import GaugeError, GaugeSymmetryResult, collect_ghost_linear
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
    """The input fails a structural requirement: ghost-linearity, a
    structural equation, or a ghost-free remainder that is not closed or
    not exact.  ``checks`` holds the structural checks ``extract`` ran
    before raising (None if it ran none)."""

    def __init__(self, message: str, tag: Optional[str] = None,
                 checks: Optional[list] = None):
        super().__init__(message)
        self.tag = tag
        self.checks = checks


def ghosts_of(u: GeneralizedVectorField) -> list:
    return sorted({v.symbol for _, poly in u.vertical
                   for v in poly.variables() if v.symbol.kind == KIND_GHOST},
                  key=lambda s: s.sort_key)


def _compose(table: dict, free: dict) -> Dict[object, GradedPoly]:
    """The polynomials {key: ghost-free part + sum of coefficient * c_S} of
    a ghost-jet table, the inverse of ``collect_ghost_linear``."""
    out = dict(free)
    for (ghost, tail), row in table.items():
        c = GradedPoly.variable(jet(ghost, tail))
        for key, coeff in row.items():
            accumulate(out, key, coeff * c)
    return out


def _bump(table: dict, row: tuple, key, poly: GradedPoly) -> None:
    """table[row][key] += poly, dropping emptied entries and rows."""
    entries = table.setdefault(row, {})
    accumulate(entries, key, poly)
    if not entries:
        del table[row]


# ---------------------------------------------------------------------------
# structural equations

class StructuralCheck(NamedTuple):
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


def structural_checks(result: GaugeSymmetryResult,
                      L: Lagrangian) -> List[StructuralCheck]:
    """Verify the per-level collected form of the conservation identity.

    With J = sum J^{nu,T} c_T + ghost-free part, Leibniz gives the
    coefficient of the ghost jet c_S in the residual  u^A E_A - div J  as

        (source coefficient at S) - d_nu J^{nu,S} - sum over lam in S of
                                    J^{lam, S minus lam},

    one equation per ghost and multi-index S, read off the residual of
    ``result.conservation`` split once on the ghost jets.  Its named tag
    depends on where the level |S| sits relative to the symmetry order N
    and the order M of J in the ghost's jets; the levels run from 0 to
    M + 1.  The ghost-free check is the divergence of J's ghost-free part,
    which differs from the residual's when u has ghost-free terms."""
    ghosts = ghosts_of(result.symmetry)
    return _structural_checks(
        result, L, ghosts,
        *collect_ghost_linear(result.current.components, ghosts))


def _structural_checks(result: GaugeSymmetryResult, L: Lagrangian,
                       ghosts: list, current: dict,
                       free: dict) -> List[StructuralCheck]:
    """``structural_checks`` on J already split on the ghost jets, as
    ``collect_ghost_linear(J.components, ghosts)`` returns it; the tables
    are only read."""
    u, J = result.symmetry, result.current
    rest = result.conservation.residual   # None when the check passed
    table, _ = collect_ghost_linear({} if rest is None else {0: rest}, ghosts)
    residuals = {jet_key: row[0] for jet_key, row in table.items()}
    checks: List[StructuralCheck] = []
    for ghost in ghosts:
        order_m = max((len(tail) for g, tail in current if g == ghost),
                      default=0)
        order_n = _symmetry_order(u, ghost)
        for level in range(order_m + 2):
            for sigma in multi_indices(J.dim, level):
                residual = residuals.get((ghost, sigma), GradedPoly.zero())
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
    ghost_free = Current(free, J.dim).divergence(L.jet_cap)
    checks.append(StructuralCheck(TAG_GHOST_FREE, None, 0,
                                  ghost_free.is_zero(), ghost_free))
    return checks


# ---------------------------------------------------------------------------
# the split

class SuperpotentialSplit:
    """W as an explicit Euler-Lagrange combination, the antisymmetric
    superpotential, and the exactness witness for the ghost-free part.
    ``extract`` also hands back the results of the checks it ran: the
    structural ``checks`` and the ``verify_split`` ``report``."""

    def __init__(self, w_table: dict, w_polys: dict,
                 superpotential: Superpotential, remainder_witness: MixedForm,
                 dim: int, checks: Optional[list] = None):
        self.w_table = w_table   # (FieldSymbol, multi-index, mu) -> GradedPoly
        self.w_polys = w_polys   # mu -> GradedPoly (the claimed W^mu)
        self.superpotential = superpotential
        # the (n-2)-form absorbing the ghost-free part
        self.remainder_witness = remainder_witness
        self.dim = dim
        self.checks = checks or []   # StructuralCheck, in order
        self.report = {}             # verify_split's report

    def w_component(self, mu: int) -> GradedPoly:
        return self.w_polys.get(mu, GradedPoly.zero())

    def expand_w_table(self, mu: int, el: EulerLagrange,
                       cap: int = DEFAULT_JET_CAP) -> GradedPoly:
        return expand_witness({(sym, index): w for (sym, index, m), w
                               in self.w_table.items() if m == mu}, el, cap)


def extract(result: GaugeSymmetryResult, L: Lagrangian) -> SuperpotentialSplit:
    """Run the constructive decomposition of ``result.current``.

    Precondition: ``GaugeSymmetryResult.check`` built ``result`` (as
    ``gauge_symmetry`` does), so it carries its current's check.  A
    symmetry or current that is not linear in the ghost jets raises before
    any check.  The structural equations are read off that check first and
    a failure raises with the failing equation tag, as does a ghost-free
    remainder that is closed but not exact; the error carries the checks.
    The returned split is re-verified exactly by ``verify_split`` and
    carries the checks and that report, so no caller needs to run them
    again.
    """
    el = L.el
    cap = L.jet_cap
    u, J = result.symmetry, result.current
    n = J.dim
    ghosts = ghosts_of(u)
    # the working current and the source, the explicit Euler-Lagrange
    # representation sum s^{A,I} d_I E_A of its divergence, as ghost-jet
    # tables {(ghost, tail): {mu or (A, I): coefficient}}; the checks read
    # the working table before the reduction changes it
    try:
        working, free = collect_ghost_linear(J.components, ghosts)
        source, source_free = collect_ghost_linear(
            {(sym, ()): poly for sym, poly in u.vertical}, ghosts)
    except GaugeError:
        raise SuperpotentialError(
            "not ghost-linear: a monomial of the symmetry or its current "
            "holds more than one ghost jet") from None
    checks = _structural_checks(result, L, ghosts, working, free)
    failing = [c for c in checks if not c.ok]
    if failing:
        raise SuperpotentialError(
            "input is not the Noether current of the symmetry "
            f"(failing equation: {failing[0].tag})", failing[0].tag, checks)
    w_table: Dict[tuple, GradedPoly] = {}
    w_polys: Dict[int, GradedPoly] = {}
    pair_table: Dict[Tuple[int, int], GradedPoly] = {}  # keys nu < mu

    def apply_w_increment(increments, subtract_from_working):
        """Record increments {(ghost, tail, A, I, mu): a}, the W term
        a c_tail at (A, I, mu), in the W table/polys.  Inside the level
        loop the source table is kept synchronized: the source loses their
        divergence, d_mu(a c_T) = (d_mu a) c_T + a c_{T+mu}.  The final
        call subtracts W from the working table instead; nothing reads the
        source after it."""
        added: Dict[tuple, GradedPoly] = {}
        for (ghost, tail, sym, index, mu), a in increments.items():
            accumulate(added, (sym, index, mu),
                       a * GradedPoly.variable(jet(ghost, tail)))
            if subtract_from_working:
                continue
            _bump(source, (ghost, tail), (sym, index),
                  -a.total_derivative(mu, cap))
            _bump(source, (ghost, mi_add(tail, mu)), (sym, index), -a)
            _bump(source, (ghost, tail), (sym, mi_add(index, mu)), -a)
        for (sym, index, mu), w in added.items():
            accumulate(w_table, (sym, index, mu), w)
            expanded = w * el.component(sym).total_derivative_multi(index, cap)
            accumulate(w_polys, mu, expanded)
            if subtract_from_working:
                # the split gives the sign of c_S moved past odd d_I E_A;
                # every monomial holds a ghost jet, so nothing is free
                table, _ = collect_ghost_linear({mu: expanded}, ghosts)
                for row, entries in table.items():
                    _bump(working, row, mu, -entries[mu])

    while True:
        s = max((len(tail) for _, tail in working), default=0)
        if s == 0:
            break
        scale = Fraction(2 * s, s + 1)
        for ghost in ghosts:
            top = [row for row in working
                   if row[0] == ghost and len(row[1]) == s]
            if not top:
                continue

            def jt(mu, tail):
                coeff = working.get((ghost, tail), {}).get(mu)
                if coeff is None:
                    return GradedPoly.zero()
                return coeff * Fraction(1, mi_permutations(tail))

            # superpotential increment and level-(s-1) residual from the
            # pair-antisymmetrized top coefficients
            for t in multi_indices(n, s - 1):
                perm = mi_permutations(t)
                ghost_t = GradedPoly.variable(jet(ghost, t))
                for nu in range(n):
                    for mu in range(nu + 1, n):
                        anti = (jt(nu, mi_add(t, mu)) - jt(mu, mi_add(t, nu))) \
                            * Fraction(1, 2)
                        if anti.is_zero():
                            continue
                        accumulate(pair_table, (nu, mu),
                                   -(scale * perm) * (anti * ghost_t))
                        _bump(working, (ghost, t), mu,
                              (scale * perm) * anti.total_derivative(nu, cap))
                        _bump(working, (ghost, t), nu,
                              -(scale * perm) * anti.total_derivative(mu, cap))
            # Euler-Lagrange increment from the source collected one level up
            increments: Dict[tuple, GradedPoly] = {}
            for lam_tail in multi_indices(n, s):
                perm_tail = mi_permutations(lam_tail)
                for mu in range(n):
                    sigma = mi_add(lam_tail, mu)
                    factor = Fraction(perm_tail, mi_permutations(sigma))
                    for (sym, index), a in source.get((ghost, sigma),
                                                      {}).items():
                        increments[(ghost, lam_tail, sym, index, mu)] = \
                            factor * a
            # remove the whole level-s block of this ghost
            for row in top:
                del working[row]
            apply_w_increment(increments, subtract_from_working=False)
        # exact invariant: div(working) equals the updated source
        if Current(_compose(working, free), n).divergence(cap) \
                != expand_witness(_compose(source, source_free), el, cap):
            raise InternalError("reduction lost the conservation invariant")

    # ghost-linear order-0 terms are source coefficients directly
    apply_w_increment({(ghost, (), sym, index, mu): a
                       for ghost in ghosts for mu in range(n)
                       for (sym, index), a
                       in source.get((ghost, (mu,)), {}).items()},
                      subtract_from_working=True)
    if working:
        raise InternalError("ghost-linear terms survived the reduction")
    # closed, by the ghost-free-closed check above
    remainder = Current({mu: free[mu] for mu in range(n) if mu in free}, n)
    witness = MixedForm.zero(n)
    if remainder.components:
        res = horizontal_antiderivative(remainder.form(), cap=cap)
        if res.status == NOT_EXACT:
            raise SuperpotentialError(
                "ghost-free remainder is closed but not exact", TAG_GHOST_FREE,
                checks)
        witness = res.witness
        for pair, poly in Superpotential.from_form(
                witness).components.items():
            accumulate(pair_table, pair, poly)

    split = SuperpotentialSplit(w_table, w_polys, Superpotential(pair_table, n),
                                witness, n, checks)
    ok, split.report = verify_split(J, split, el, cap)
    if not ok:
        raise InternalError(
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
