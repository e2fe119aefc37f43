"""A dense Gauss-Jordan eliminator, kept only as a reference that the
tests compare mclie's sparse RowSpace (and everything read off it)
against: an independent implementation of the same reduced row echelon
form."""

from fractions import Fraction


def dense_rref(rows, ncols):
    """(reduced nonzero rows, pivot columns) of a dense matrix given as row
    lists: scan columns left to right, take the topmost row with a nonzero
    entry, clear the column in every other row."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pc = m[r][c]
        if pc != 1:
            m[r] = [x / pc for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                mi, mr = m[i], m[r]
                for j in range(c, ncols):
                    if mr[j]:
                        mi[j] -= f * mr[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols)[1])


def dense_solve(rows, ncols, rhs):
    """One solution of A x = rhs with every free variable zero, or None."""
    red, pivots = dense_rref([list(r) + [rhs[i]] for i, r in enumerate(rows)],
                             ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x
