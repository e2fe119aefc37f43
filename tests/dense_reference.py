"""Plain references that the tests compare mclie against.

A dense Gauss-Jordan eliminator: an independent implementation of the
reduced row echelon form that mclie's sparse RowSpace (and everything read
off it) computes.  And the Chevalley-Eilenberg generator differentials
written the way the formula reads: one loop over the targets, and inside
it every ordered basis pair, with no pair skipped."""

import itertools
from fractions import Fraction

from mclie.cdga import FreePolynomialCdga
from mclie.linalg import QQ, GradedElement


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


def ce_generator_differentials(g, bound, truncate_by="length"):
    """d on the generators s(k) of the CE complex of g truncated at bound,
    {name: element}: the d_I terms, then -1/2 (-1)^{|b_i|} c_ij^k s(i)s(j)
    for every ordered basis pair (i, j), with the product taken in the
    free algebra at the same truncation (a generator heavier than the
    bound is zero there)."""
    items = g.basis_items()
    sigma = {lab: "s(%s)" % lab for _, lab in items}
    weights = g.weights or {}
    gens = [(sigma[lab], n + 1,
             weights.get(lab, 1) if truncate_by == "weight" else 1)
            for n, lab in items]
    scratch = FreePolynomialCdga(gens, bound, {}, check="skip")

    def generator(n, lab):
        if not scratch.space.has(-(n + 1), sigma[lab]):
            return GradedElement()
        return scratch.generator_element(sigma[lab])

    out = {}
    for nk, labk in items:
        val = GradedElement()
        for nj, labj in items:
            if nj != nk + 1:
                continue
            c = g.d(g.space.basis_element(nj, labj)).coeff(nk, labk)
            if c:
                val = val + GradedElement({(-(nj + 1), sigma[labj]): c})
        for (ni, labi), (nj, labj) in itertools.product(items, repeat=2):
            if ni + nj != nk:
                continue
            c = g.bracket_labels(ni, labi, nj, labj).coeff(nk, labk)
            if not c:
                continue
            sign = QQ(-1) if ni % 2 else QQ(1)
            prod = scratch.multiply(generator(ni, labi), generator(nj, labj))
            val = val + prod.scale(QQ(-1, 2) * sign * c)
        out[sigma[labk]] = val
    return out
