"""Mixed contact/horizontal forms and the bicomplex operators.

A mixed form is stored sparsely as a map

    (contact labels, horizontal subset)  ->  coefficient polynomial

meaning ``f * th^A_{I1} ^ ... ^ th^A_{Ik} ^ dx^{j1} ^ ... ^ dx^{jr}``
with the coefficient on the left.  Contact slots are labels (symbol,
multi-index); they are never expanded except inside the exterior
differential, where ``d s^A_I = th^A_I + s^A_{I+lam} dx^lam``.
Every ring variable is such a jet (there are no base-coordinate
symbols), so each has a contact form and ``d_V`` differentiates along all.

Sign conventions, all derived from the bigraded commutation rule
``a^b = (-1)^(|a||b| + [a][b]) b^a`` with form degree |.| and parity [.]:

* two contact slots swap with -1 unless both carry odd parity (then +1,
  so an odd contact slot may repeat);
* dx factors anticommute with each other and with every contact slot;
* a degree-0 coefficient g commutes with dx; moved past an odd object (an
  odd contact slot or block, an odd derivation) it becomes its grade
  involution ``GradedPoly.involution``, its odd part negated.  ``wedge``,
  ``contract`` and ``d_V`` take their coefficient signs from that one rule.

d_H, d_V and the contraction write each component's key and sign straight
into one dict through ``accumulate`` and wrap it with ``_form``; none of
them goes through ``wedge``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .algebra import (DEFAULT_JET_CAP, EVEN, ODD, FieldSymbol, GradedPoly,
                      JetVariable, accumulate, bump, jet, var_key)


class UnsupportedDerivation(ValueError):
    """A vector field whose components mix parities."""


# ---------------------------------------------------------------------------
# basis bookkeeping

def _sort_contact(labels):
    """Sort contact labels; returns (tuple, sign) or None when an even label
    repeats (its square vanishes)."""
    labels = list(labels)
    sign = 1
    for i in range(1, len(labels)):
        j = i
        while j > 0 and var_key(labels[j - 1]) > var_key(labels[j]):
            if not (labels[j - 1].parity and labels[j].parity):
                sign = -sign
            labels[j - 1], labels[j] = labels[j], labels[j - 1]
            j -= 1
    for a, b in zip(labels, labels[1:]):
        if a == b and a.parity == EVEN:
            return None
    return tuple(labels), sign


def _sort_horiz(idxs):
    idxs = list(idxs)
    sign = 1
    for i in range(1, len(idxs)):
        j = i
        while j > 0 and idxs[j - 1] > idxs[j]:
            sign = -sign
            idxs[j - 1], idxs[j] = idxs[j], idxs[j - 1]
            j -= 1
    for a, b in zip(idxs, idxs[1:]):
        if a == b:
            return None
    return tuple(idxs), sign


def _parity_sum(labels) -> int:
    return sum(l.parity for l in labels) % 2


class MixedForm:
    """Sparse graded form of mixed contact and horizontal degree."""

    __slots__ = ("dim", "components")

    def __init__(self, dim: int, components: Optional[Mapping] = None):
        self.dim = dim
        self.components = {k: p for k, p in (components or {}).items() if p}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "MixedForm":
        return MixedForm(dim)

    @staticmethod
    def from_poly(p: GradedPoly, dim: int) -> "MixedForm":
        return MixedForm(dim, {((), ()): p})

    @staticmethod
    def density(p: GradedPoly, dim: int) -> "MixedForm":
        """p * dx^0 ^ ... ^ dx^{n-1} (coefficient on the volume form)."""
        return MixedForm(dim, {((), tuple(range(dim))): p})

    @staticmethod
    def dx(lam: int, dim: int) -> "MixedForm":
        return MixedForm(dim, {((), (lam,)): GradedPoly.constant(1)})

    @staticmethod
    def contact(v: JetVariable, dim: int) -> "MixedForm":
        return MixedForm(dim, {((v,), ()): GradedPoly.constant(1)})

    # -- linear structure ---------------------------------------------------

    @staticmethod
    def sum(dim: int, forms) -> "MixedForm":
        """The sum of ``forms``, each of dimension ``dim``: one
        ``GradedPoly.sum`` per component key."""
        parts = {}
        for form in forms:
            if form.dim != dim:
                raise ValueError("dimension mismatch")
            for key, poly in form.components.items():
                parts.setdefault(key, []).append(poly)
        return _form(dim, {k: s for k, ps in parts.items()
                           if (s := GradedPoly.sum(ps))})

    def __add__(self, other):
        if not isinstance(other, MixedForm):
            return NotImplemented
        return MixedForm.sum(self.dim, (self, other))

    def __neg__(self):
        return _form(self.dim, {k: -p for k, p in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return MixedForm(self.dim,
                             {k: p * scalar for k, p in self.components.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MixedForm):
            return NotImplemented
        return self.dim == other.dim and self.components == other.components

    def __hash__(self):
        return hash((self.dim, frozenset(self.components.items())))

    def is_zero(self) -> bool:
        return not self.components

    def sorted_components(self):
        def key(item):
            (contact, horiz), _ = item
            return (len(contact), len(horiz),
                    tuple(var_key(v) for v in contact), horiz)
        return sorted(self.components.items(), key=key)

    def horizontal_degrees(self) -> set:
        return {len(k[1]) for k in self.components}

    def is_horizontal(self) -> bool:
        return all(len(k[0]) == 0 for k in self.components)

    def coefficient(self, contact=(), horiz=()) -> GradedPoly:
        return self.components.get((tuple(contact), tuple(horiz)),
                                   GradedPoly.zero())

    # -- wedge product ------------------------------------------------------

    def wedge(self, other: "MixedForm") -> "MixedForm":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = {}
        for (i1, j1), p in self.components.items():
            odd_i1 = _parity_sum(i1)
            for (i2, j2), q in other.components.items():
                cs = _sort_contact(i1 + i2)
                if cs is None:
                    continue
                contact, csign = cs
                hs = _sort_horiz(j1 + j2)
                if hs is None:
                    continue
                horiz, hsign = hs
                # q moves past the contact block of self, the contact block
                # of other past the dx block of self
                sign = csign * hsign * (-1 if len(j1) * len(i2) % 2 else 1)
                accumulate(out, (contact, horiz),
                           p * (q.involution() if odd_i1 else q) * sign)
        return _form(self.dim, out)

    # -- differentials ------------------------------------------------------

    def horizontal_differential(self, cap: int = DEFAULT_JET_CAP) -> "MixedForm":
        """d_H = dx^lam ^ d_lam per component, for each lam not in its dx
        block (dx^lam ^ dx^lam = 0): dx^lam moves left past the contact
        slots, (-1)^(contact degree), and sorts into the dx block."""
        out = {}
        for (contact, horiz), f in self.components.items():
            parity = -1 if len(contact) % 2 else 1
            for lam in range(self.dim):
                if lam in horiz:
                    continue
                newh, hsign = _sort_horiz((lam,) + horiz)
                sign = hsign * parity
                # d_lam of the coefficient, then of each slot in turn,
                # re-sorted (dropped when an even slot repeats)
                df = f.total_derivative(lam, cap)
                if not df.is_zero():
                    accumulate(out, (contact, newh), df * sign)
                for i, lab in enumerate(contact):
                    cs = _sort_contact(contact[:i] + (bump(lab, lam, cap),)
                                       + contact[i + 1:])
                    if cs is not None:
                        accumulate(out, (cs[0], newh), f * (cs[1] * sign))
        return _form(self.dim, out)

    def vertical_differential(self) -> "MixedForm":
        """d_V: th^v put in front of each component's contact slots and
        sorted in, times the left partial along v moved left of th^v (its
        involution for odd v); an even slot that repeats gives zero."""
        out = {}
        for (contact, horiz), f in self.components.items():
            for v, g in f.gradient().items():
                cs = _sort_contact((v,) + contact)
                if cs is not None:
                    accumulate(out, (cs[0], horiz),
                               (g.involution() if v.parity else g) * cs[1])
        return _form(self.dim, out)

    def exterior_differential(self, cap: int = DEFAULT_JET_CAP) -> "MixedForm":
        return self.horizontal_differential(cap) + self.vertical_differential()

    def horizontal_part(self) -> "MixedForm":
        """h0: kill every component of positive contact degree."""
        return _form(self.dim, {k: p for k, p in self.components.items()
                                if len(k[0]) == 0})

    def __repr__(self):
        from .render import form_text
        return f"MixedForm({form_text(self)})"


def _form(dim: int, components: dict) -> MixedForm:
    """Wrap a component dict that holds no zero (from ``accumulate``, a
    filtered sum or a filter of a form); the public constructor re-filters."""
    form = object.__new__(MixedForm)
    form.dim = dim
    form.components = components
    return form



# ---------------------------------------------------------------------------
# volume form helpers

def omega_contracted(dim: int, mu: int):
    """omega_mu = del_mu | omega, as (horizontal subset, sign)."""
    horiz = tuple(i for i in range(dim) if i != mu)
    return horiz, (-1) ** mu


def omega_pair_contracted(dim: int, nu: int, mu: int):
    """omega_{nu mu} = del_nu | omega_mu, as (horizontal subset, sign)."""
    if nu == mu:
        raise ValueError("omega_{nu mu} needs distinct indices")
    horiz_mu, sign = omega_contracted(dim, mu)
    pos = horiz_mu.index(nu)
    horiz = tuple(i for i in horiz_mu if i != nu)
    return horiz, sign * (-1) ** pos


# ---------------------------------------------------------------------------
# generalized vector fields and their prolongations

class GeneralizedVectorField(NamedTuple):
    """A vertical generalized graded vector field u = u^A d_A with
    polynomial components.  The model language and ``gauge.adjoint`` build
    only these, and a generalized vector field is a variational symmetry
    exactly when its evolutionary (vertical) representative is one (Olver,
    *Applications of Lie Groups to Differential Equations*, ch. 5)."""

    vertical: tuple  # tuple of (FieldSymbol, GradedPoly)

    @staticmethod
    def make(vertical: Mapping):
        return GeneralizedVectorField(tuple(sorted(
            ((s, p) for s, p in vertical.items() if not p.is_zero()),
            key=lambda it: it[0].sort_key)))

    def component(self, sym: FieldSymbol) -> GradedPoly:
        for s, p in self.vertical:
            if s == sym:
                return p
        return GradedPoly.zero()

    @property
    def parity(self) -> int:
        parities = set()
        for sym, poly in self.vertical:
            p = poly.parity
            if p is None:
                raise UnsupportedDerivation(
                    f"component for {sym.name} has mixed parity")
            parities.add((p + sym.parity) % 2)
        if not parities:
            return EVEN
        if len(parities) > 1:
            raise UnsupportedDerivation("components of mixed total parity")
        return parities.pop()


class ContactDerivation:
    """Jet prolongation pr u: it pairs th^A_I with d_I u^A, memoized per
    jet variable, and pairs with no dx."""

    def __init__(self, source: GeneralizedVectorField, dim: int,
                 cap: int = DEFAULT_JET_CAP):
        self.source = source
        self.dim = dim
        self.cap = cap
        self.parity = source.parity
        self._memo = {}

    def theta_coefficient(self, v: JetVariable) -> GradedPoly:
        """Pairing with th^A_I: d_I u^A."""
        out = self._memo.get(v)
        if out is None:
            out = self.source.component(v.symbol)
            if v.index and not out.is_zero():
                out = self.theta_coefficient(jet(v.symbol, v.index[:-1])) \
                    .total_derivative(v.index[-1], self.cap)
            self._memo[v] = out
        return out

    def apply_to_poly(self, f: GradedPoly) -> GradedPoly:
        """The derivation applied to a ring element."""
        return self.apply_to_gradient(f.gradient())

    def apply_to_gradient(self, gradient: Mapping) -> GradedPoly:
        """The derivation applied to the ring element whose
        ``GradedPoly.gradient`` is ``gradient``."""
        pairs = ((self.theta_coefficient(v), g)
                 for v, g in gradient.items())
        return GradedPoly.sum(c * g for c, g in pairs if not c.is_zero())


def prolong(source: GeneralizedVectorField, dim: int,
            cap: int = DEFAULT_JET_CAP) -> ContactDerivation:
    return ContactDerivation(source, dim, cap)


def contract(deriv: ContactDerivation, form: MixedForm) -> MixedForm:
    """Interior product: the graded antiderivation of form degree -1 pairing
    the derivation with the contact one-forms; it pairs with no dx."""
    out = {}
    for (contact, horiz), f in form.components.items():
        # an odd derivation passes f; moving it to a slot and its
        # coefficient back to the left cancels its parity against the
        # labels before the slot
        if deriv.parity:
            f = f.involution()
        labels_par = 0  # parity of contact labels strictly before slot i
        for i, lab in enumerate(contact):
            coeff = deriv.theta_coefficient(lab)
            if not coeff.is_zero():
                sign = -1 if (i + labels_par * lab.parity) % 2 else 1
                accumulate(out, (contact[:i] + contact[i + 1:], horiz),
                           f * coeff * sign)
            labels_par ^= lab.parity
    return _form(form.dim, out)


def lie_derivative(deriv: ContactDerivation, form: MixedForm,
                   cap: int = DEFAULT_JET_CAP) -> MixedForm:
    """Cartan formula: contract after d plus d after contract."""
    return (contract(deriv, form.exterior_differential(cap))
            + contract(deriv, form).exterior_differential(cap))


def is_nilpotent(deriv: ContactDerivation) -> bool:
    """A derivation squares to zero iff it is odd and annihilates its own
    coefficients."""
    if deriv.parity != ODD:
        return False
    for _, poly in deriv.source.vertical:
        if not deriv.apply_to_poly(poly).is_zero():
            return False
    return True
