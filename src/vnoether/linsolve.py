"""Sparse Gaussian elimination over the rationals.

Its one caller is ``variational._solve_columns``, the row builder of the
ansatz search of ``weak_conservation_witness``, a library function and test
oracle that no CLI command runs: unknowns are ansatz coefficients,
equations match monomial coefficients.  Elimination is deterministic:
columns are processed in increasing index order, pivot ties go to the
lowest row index and free variables are set to zero, so the particular
solution depends on the row and column order the caller hands in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import InternalError


def solve_sparse(rows: List[Dict[int, Fraction]], rhs: List[Fraction],
                 ncols: int) -> Optional[List[Fraction]]:
    """Solve A x = b for one particular solution, or None if inconsistent.

    ``rows`` holds sparse rows mapping column index to coefficient.  Row and
    rhs entries may be ``int`` or ``Fraction``: both are copied into
    ``Fraction``s on entry (the inputs are left untouched), so every
    division is exact, and the solution is a list of ``Fraction``s.
    """
    rows = [{col: Fraction(c) for col, c in r.items()} for r in rows]
    rhs = [Fraction(b) for b in rhs]
    nrows = len(rows)
    col_rows: Dict[int, set] = {}
    for ri, row in enumerate(rows):
        for col in row:
            col_rows.setdefault(col, set()).add(ri)

    pivot_of_col: Dict[int, int] = {}
    used_rows = set()
    for col in range(ncols):
        candidates = [ri for ri in col_rows.get(col, ()) if ri not in used_rows]
        if not candidates:
            continue
        # fewest fill-in: pick the sparsest candidate row, ties by index
        ri = min(candidates, key=lambda r: (len(rows[r]), r))
        used_rows.add(ri)
        pivot_of_col[col] = ri
        piv = rows[ri][col]
        targets = [r for r in col_rows.get(col, ()) if r != ri]
        for rj in targets:
            factor = rows[rj][col] / piv
            for ck, cv in rows[ri].items():
                new = rows[rj].get(ck, 0) - factor * cv
                if new:
                    rows[rj][ck] = new
                    col_rows.setdefault(ck, set()).add(rj)
                else:
                    rows[rj].pop(ck, None)
                    if ck in col_rows:
                        col_rows[ck].discard(rj)
            rhs[rj] = rhs[rj] - factor * rhs[ri]
        col_rows[col] = {ri}

    for ri in range(nrows):
        if ri not in used_rows and not rows[ri] and rhs[ri] != 0:
            return None
        if ri not in used_rows and rows[ri]:
            # row was never chosen as pivot but still has entries: that can
            # only happen if all its columns were eliminated, i.e. never
            raise InternalError("elimination left a dangling row")

    solution = [Fraction(0)] * ncols
    # back substitution in decreasing column order
    for col in sorted(pivot_of_col, reverse=True):
        ri = pivot_of_col[col]
        acc = rhs[ri]
        for ck, cv in rows[ri].items():
            if ck != col:
                acc -= cv * solution[ck]
        solution[col] = acc / rows[ri][col]
    return solution
