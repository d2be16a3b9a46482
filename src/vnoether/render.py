"""Deterministic linear text notation for ring elements and forms.

Jet variables print as ``A1_{,01}``, antifields as ``Ebar[A1]``, the
constant monomial as ``1``.  Monomials appear in the canonical graded-lex
order, so equal polynomials always render to identical strings.
"""

from __future__ import annotations

from .algebra import GradedPoly, JetVariable, KIND_ANTIFIELD, coeff_text


def var_text(v: JetVariable) -> str:
    if v.symbol.kind == KIND_ANTIFIELD:
        base = f"Ebar[{v.symbol.base.name}]"
    else:
        base = v.symbol.name
    if v.index:
        return base + "_{," + "".join(str(i) for i in v.index) + "}"
    return base


def poly_text(p: GradedPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for c, factors in p.monomials(ordered=True):
        mono = "*".join(var_text(v) + (f"^{e}" if e > 1 else "")
                        for v, e in factors)
        if not mono:
            text = coeff_text(c)
        elif c == 1:
            text = mono
        elif c == -1:
            text = "-" + mono
        else:
            text = f"({coeff_text(c)})*{mono}"
        parts.append(text)
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def form_text(form) -> str:
    """Render a mixed form; contact slots as th[A_{,..}], horizontal as dx0."""
    comps = form.sorted_components()
    if not comps:
        return "0"
    parts = []
    for (contact, horiz), poly in comps:
        basis = [f"th[{var_text(v)}]" for v in contact]
        basis.extend(f"dx{i}" for i in horiz)
        body = poly_text(poly)
        if basis:
            if ("+" in body[1:]) or (" - " in body):
                body = f"({body})"
            parts.append(body + "*" + "^".join(basis))
        else:
            parts.append(body)
    return " + ".join(parts)
