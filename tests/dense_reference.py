"""Plain references that the tests compare mclie against.

A dense Gauss-Jordan eliminator: an independent implementation of the
reduced row echelon form that mclie's sparse RowSpace (and everything read
off it) computes, with the kernel, solve and matrix product read off it.
The sparse RowSpace as it stood on Fraction rows, FractionRowSpace.
Dense blocks of a GradedLinearMap, both ways.  The Chevalley-Eilenberg
generator differentials written the way the formula reads: one loop over
the targets, and inside it every ordered basis pair, with no pair
skipped.  And the rational root finder by the rational root theorem, every
p/q over the divisors of the constant and leading coefficients, found by
trial division."""

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping

from mclie.cdga import FreePolynomialCdga
from mclie.linalg import ONE, QQ, ZERO, GradedElement, GradedLinearMap


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


def dense_kernel(rows, ncols):
    """Basis of the right kernel, one vector per free column of the rref,
    in column order."""
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for row, pc in zip(red, pivots):
                v[pc] = -row[fc]
            basis.append(v)
    return basis


class FractionRowSpace:
    """mclie's RowSpace as it stood on {column: Fraction} rows, before its
    rows became primitive ints: an incrementally maintained subspace in
    reduced row echelon form, on sparse vectors: {column: Fraction} dicts
    of nonzero entries.

    _rows maps each pivot to its row, which is 1 at its pivot and 0 at
    every other pivot.  So _reduce(v) subtracts only the rows whose pivots
    occur in v, at O(nnz(v) nnz(row)) cost, and _add rewrites only the rows
    nonzero at the new pivot.  Pivots lie in the first ncols columns;
    entries past them (as in Coordinates) are carried through every row
    operation.
    """

    def __init__(self, ncols: int, vectors: Iterable[Mapping[int, Fraction]] = ()):
        self.ncols = ncols
        self._rows: dict[int, dict[int, Fraction]] = {}
        for v in vectors:
            self._add(v)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def rows(self) -> list[dict[int, Fraction]]:
        """The reduced rows in pivot order, shared with the span: read
        them, do not change them."""
        return [self._rows[pc] for pc in self.pivots]

    def kernel(self) -> list[dict[int, Fraction]]:
        """Basis of the right kernel of the rows, one sparse vector per
        free column, in column order."""
        ker = {fc: {fc: ONE} for fc in range(self.ncols) if fc not in self._rows}
        for pc, row in self._rows.items():
            for j, x in row.items():
                if j in ker:
                    ker[j][pc] = -x
        return list(ker.values())

    def _reduce(self, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """vec minus its components along the rows, as a new dict."""
        rows = self._rows
        out = dict(vec)
        # every row is zero at the other pivots, so vec's own entries there
        # are the factors
        for pc, f in [(j, x) for j, x in vec.items() if j in rows]:
            for j, x in rows[pc].items():
                s = out.get(j, ZERO) - f * x
                if s:
                    out[j] = s
                else:
                    del out[j]
        return out

    def _add(self, vec: Mapping[int, Fraction]) -> bool:
        """Insert vec; True if it enlarged the span."""
        v = self._reduce(vec)
        pc = min((j for j in v if j < self.ncols), default=None)
        if pc is None:
            return False
        f = v[pc]
        if f != ONE:
            v = {j: x / f for j, x in v.items()}
        for row in self._rows.values():
            g = row.get(pc)
            if g:
                for j, x in v.items():
                    s = row.get(j, ZERO) - g * x
                    if s:
                        row[j] = s
                    else:
                        del row[j]
        self._rows[pc] = v
        return True

    def dim(self) -> int:
        return len(self._rows)


def dense_product(a, b, rows, cols):
    """The rows x cols matrix a b; a has rows rows, b has cols columns."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def dense_block(m, n):
    """The dense matrix of a GradedLinearMap in source degree n."""
    b = [[Fraction(0)] * m.source.dim(n) for _ in range(m.target.dim(n + m.shift))]
    for j, col in enumerate(m.columns.get(n, ())):
        for i, c in col:
            b[i][j] = c
    return b


def map_from_blocks(source, target, shift, blocks):
    """The GradedLinearMap with the given dense blocks, one per source
    degree, each target.dim(n + shift) x source.dim(n)."""
    return GradedLinearMap(source, target, shift, {
        n: [[(i, row[j]) for i, row in enumerate(b) if row[j]]
            for j in range(source.dim(n))]
        for n, b in blocks.items() if b})


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


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots_by_divisors(coeffs):
    """The distinct rational roots of a nonzero polynomial, coefficients
    highest first, ascending: each candidate +-p/q evaluated exactly."""
    while len(coeffs) > 1 and not coeffs[0]:
        coeffs = coeffs[1:]
    roots = set()
    work = list(coeffs)
    while work and not work[-1]:
        roots.add(Fraction(0))
        work = work[:-1]
    if len(work) <= 1:
        return sorted(roots)
    den = math.lcm(*(c.denominator for c in work))
    ints = [int(c * den) for c in work]
    for p in _divisors(ints[-1]):
        for q in _divisors(ints[0]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                val = Fraction(0)
                for c in ints:
                    val = val * cand + c
                if val == 0:
                    roots.add(cand)
    return sorted(roots)
