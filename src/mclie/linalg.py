"""Exact rational linear algebra: graded vector spaces, sparse elements,
degree-shifting linear maps, homology (one HomologyReport: ranks per
(weight, degree) cell for every reader, cycles and representatives only
when read), the core that dglas and cdgas share (with their one axiom
checker), and the primitive idempotents of a split commutative algebra in
degree 0: H^0 of a cdga, held as a Cdga with zero differential, by minimal
polynomials and Lagrange interpolation.

All arithmetic is exact, on fractions.Fraction or on Python ints; there is
no floating point anywhere.  Vectors are sparse, in and out: {index:
Fraction} dicts of nonzero entries, as GradedVectorSpace.to_vector returns
them and from_vector reads them.  The inner loops run on ints over one
denominator and build a Fraction only for an entry they hand out.  A
linear map stores each degree once, as sparse int columns over one least
denominator: the presented dgla's d and a truncated free cdga's d arrive as
ints, and compose (and so the d*d check) multiplies ints.  RowSpace keeps
each row as a primitive int vector, and the axiom checker contracts a
structure-constant table cleared to ints.
RowSpace, an incremental reduced row echelon form, is the one row reducer
and takes only sparse vectors, of ints or Fractions: the homology cells and
cycles and the quotient Lie algebras hand it int vectors, Coordinates and
the cdga constructions Fractions, and Coordinates.coords and
HomologyReport.class_of answer in sparse coordinates, in index order.  The
reduced row echelon form is unique, and a span is the same for any scaling
of its vectors, so every derived report is reproducible bit for bit.  Callers
outside this module never read its rows or a map's blocks: they ask a
RowSpace for the span of their vectors, its rows(), kernel() or dim(), and
a GradedLinearMap for its image(n) or power(k).

rref and solve_matrix are the two entry points for dense matrices (lists
of row lists).  No library code calls them; they stay because the
per-layer metrics of BENCHMARK.json name them, and perfbench's traced run
exits 2 when a named function is missing.

Coordinates in a subspace come from here: a subspace with a basis of its
own (a connected cover, a strict factor u*A, an eventual image) reads
them through its inclusion map's GradedLinearMap.solve, and a homology
class through HomologyReport.class_of.  Outside this module only the
transfer data builds a Coordinates.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

QQ = Fraction

ZERO = QQ(0)
ONE = QQ(1)


def rational(x) -> Fraction:
    """Coerce ints, strings like '-3/7' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return QQ(x)
    if isinstance(x, str):
        return QQ(x)
    raise TypeError("not an exact rational: %r" % (x,))


class McLieError(Exception):
    """Base of every failure mclie defines.  The CLI prints it on one stderr
    line, "prefix: message" (the class name when prefix is None), and exits
    with exit_code: 1 a failed verdict, 2 malformed input, 3 a resource cap."""

    exit_code = 1
    prefix = None


class NonSplitAlgebra(McLieError):
    """The algebra is not isomorphic to a finite product of copies of Q."""


class DegreeMismatch(McLieError):
    """An element was not homogeneous of the required degree."""

    exit_code = 2


class CertificateFailure(McLieError):
    """A computed certificate did not hold: the boundaries lying inside
    the cycles of a homology degree, the Harrison unit slot, the Hodge
    splitting of a transfer, a transfer solve, or a minimal-model check."""


# ---------------------------------------------------------------------------
# row reduction: RowSpace keeps sparse primitive int rows; rref and
# solve_matrix read dense matrices (lists of row lists) into it
# ---------------------------------------------------------------------------

def _sparse(vec: Sequence[Fraction]) -> dict[int, Fraction]:
    """The nonzero entries of a dense vector, keyed by column."""
    return {j: x for j, x in enumerate(vec) if x}


def rref(rows: Iterable[Sequence[Fraction]], ncols: int):
    """Reduced row echelon form of dense rows ncols wide: (nonzero reduced
    rows, pivot columns) in pivot order, read off a RowSpace.  The form is
    unique, so it is the leftmost-pivot Gauss-Jordan result."""
    span = RowSpace(ncols, map(_sparse, rows))
    return [[row.get(j, ZERO) for j in range(ncols)] for row in span.rows()], span.pivots


def solve_matrix(rows: Sequence[Sequence[Fraction]], ncols: int,
                 rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """One solution of A x = rhs with all free variables set to zero,
    or None when rhs is not in the column space."""
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


class RowSpace:
    """Incrementally maintained subspace in reduced row echelon form, on
    sparse vectors: {column: c} dicts of nonzero ints or Fractions, in and
    out.

    Each row is held once, as a primitive int vector that is positive at
    its pivot: _ints maps the pivot to it, and the reduced row is that
    vector divided by its pivot entry, so it is 0 at every other pivot.
    _scaled(v) clears v's denominators once and subtracts only the rows
    whose pivots occur in v, at O(nnz(v) nnz(row)) cost on ints; _reduce
    builds one Fraction per entry of the result, and _add hands the
    reduced ints to _insert, which rewrites only the rows nonzero at the
    new pivot, as p R - h v, and divides out their content.  Scaling a
    vector does not change the span, so a caller holding int vectors over
    a denominator hands in the ints.  Pivots lie in the first ncols
    columns; entries past them (as in Coordinates) are carried through
    every row operation.
    """

    def __init__(self, ncols: int, vectors: Iterable[Mapping[int, "int | Fraction"]] = ()):
        self.ncols = ncols
        self._ints: dict[int, dict[int, int]] = {}
        for v in vectors:
            self._add(v)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._ints)

    @property
    def _rows(self) -> dict[int, dict[int, Fraction]]:
        """The reduced rows as Fractions, {pivot: row}, built on each read."""
        return {pc: {j: QQ(x, row[pc]) for j, x in row.items()}
                for pc, row in self._ints.items()}

    def rows(self) -> list[dict[int, Fraction]]:
        """The reduced rows in pivot order, as Fractions built on each read."""
        rows = self._rows
        return [rows[pc] for pc in sorted(rows)]

    def kernel(self) -> list[dict[int, Fraction]]:
        """Basis of the right kernel of the rows, one sparse vector per
        free column, in column order."""
        ker = {fc: {fc: ONE} for fc in range(self.ncols) if fc not in self._ints}
        for pc, row in self._ints.items():
            for j, x in row.items():
                if j in ker:
                    ker[j][pc] = QQ(-x, row[pc])
        return list(ker.values())

    def _scaled(self, vec: Mapping[int, "int | Fraction"]) -> tuple[dict[int, int], int]:
        """vec minus its components along the rows, as (ints, den > 0):
        vec times the lcm of its denominators and of the pivot entries of
        the rows it meets, reduced on ints."""
        rows = self._ints
        # every row is zero at the other pivots, so vec's own entries there
        # give the factors
        hits = [j for j in vec if j in rows]
        den = math.lcm(*(x.denominator for x in vec.values()))
        scale = den * math.lcm(*(rows[pc][pc] for pc in hits))
        out = {j: x.numerator * (scale // x.denominator) for j, x in vec.items()}
        for pc in hits:
            row = rows[pc]
            f = out[pc] // row[pc]
            for j, x in row.items():
                s = out.get(j, 0) - f * x
                if s:
                    out[j] = s
                else:
                    del out[j]
        return out, scale

    def _reduce(self, vec: Mapping[int, "int | Fraction"]) -> dict[int, Fraction]:
        """vec minus its components along the rows, as a new dict."""
        out, den = self._scaled(vec)
        return {j: QQ(x, den) for j, x in out.items()}

    def _add(self, vec: Mapping[int, "int | Fraction"]) -> bool:
        """Insert vec; True if it enlarged the span."""
        return self._insert(self._scaled(vec)[0])

    def _insert(self, v: dict[int, int]) -> bool:
        """Insert v, ints that _scaled already reduced; True if it enlarged
        the span.  v itself may be kept as a row, which later inserts
        rewrite in place."""
        pc = min((j for j in v if j < self.ncols), default=None)
        if pc is None:
            return False
        g = math.gcd(*v.values())
        if v[pc] < 0:
            g = -g
        if g != 1:
            v = {j: x // g for j, x in v.items()}
        p = v[pc]
        for row in self._ints.values():
            h = row.get(pc)
            if h:
                g = math.gcd(p, h)
                a, b = p // g, h // g
                if a != 1:
                    for j in row:
                        row[j] *= a
                for j, x in v.items():
                    s = row.get(j, 0) - b * x
                    if s:
                        row[j] = s
                    else:
                        del row[j]
                g = math.gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
        self._ints[pc] = v
        return True

    def dim(self) -> int:
        return len(self._ints)


class Coordinates:
    """Coordinates in the span of a fixed list of sparse vectors, reduced
    once.

    Each echelon row carries, in the columns past ncols, minus the
    combination of the input vectors that produced it, so reducing v
    leaves its coordinates there.  A vector enters a row only when it is
    independent of those before it, so coords(v) is the solution with zero
    on every dependent vector: exactly solve_matrix on the matrix with
    these vectors as columns.
    """

    def __init__(self, vectors: Sequence[Mapping[int, Fraction]], ncols: int):
        self.span = RowSpace(ncols, ({**v, ncols + i: -ONE} for i, v in enumerate(vectors)))

    def coords(self, vec: Mapping[int, Fraction]) -> Optional[dict[int, Fraction]]:
        """The nonzero coefficients on the input vectors, {i: c} in index
        order, or None outside their span."""
        ncols = self.span.ncols
        x, den = self.span._scaled(vec)
        if any(j < ncols for j in x):
            return None
        return {j - ncols: QQ(c, den) for j, c in sorted(x.items())}

    def rank(self) -> int:
        return self.span.dim()


# ---------------------------------------------------------------------------
# graded vector spaces and elements
# ---------------------------------------------------------------------------

class GradedVectorSpace:
    """Finite Z-graded rational vector space with ordered, named bases.

    basis: {degree: [label, ...]}; labels are strings, unique per degree.
    """

    def __init__(self, basis: Mapping[int, Sequence[str]]):
        self.basis: dict[int, tuple[str, ...]] = {}
        self._index: dict[int, dict[str, int]] = {}
        for n, labels in basis.items():
            labels = tuple(labels)
            if not labels:
                continue
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate basis labels in degree %d" % n)
            self.basis[int(n)] = labels
            self._index[int(n)] = {lab: i for i, lab in enumerate(labels)}

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def labels(self, n: int) -> tuple[str, ...]:
        return self.basis.get(n, ())

    def index(self, n: int, label: str) -> int:
        return self._index[n][label]

    def has(self, n: int, label: str) -> bool:
        return label in self._index.get(n, {})

    def __eq__(self, other):
        return isinstance(other, GradedVectorSpace) and self.basis == other.basis

    def __repr__(self):
        parts = ", ".join("%d:%d" % (n, self.dim(n)) for n in self.degrees())
        return "GradedVectorSpace(%s)" % parts

    def basis_element(self, n: int, label: str) -> "GradedElement":
        if not self.has(n, label):
            raise KeyError((n, label))
        return GradedElement({(n, label): ONE})

    def basis_elements(self, n: int) -> list["GradedElement"]:
        return [self.basis_element(n, lab) for lab in self.labels(n)]

    def to_vector(self, elt: "GradedElement", n: int) -> dict[int, Fraction]:
        """elt as a sparse vector {index: coefficient} of degree n."""
        v = {}
        for (d, lab), c in elt.coeffs.items():
            if d != n:
                raise DegreeMismatch("element not concentrated in degree %d" % n)
            v[self.index(n, lab)] = c
        return v

    def from_vector(self, v: Mapping[int, Fraction], n: int) -> "GradedElement":
        """The element of degree n with the sparse vector v as coordinates,
        its terms in basis order."""
        labels = self.labels(n)
        return GradedElement({(n, labels[i]): v[i] for i in sorted(v)})


class GradedElement:
    """Sparse element of a graded space: {(degree, label): coefficient}.

    Zero coefficients are never stored.  Instances are treated as immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[tuple[int, str], Fraction]] = None):
        self.coeffs: dict[tuple[int, str], Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    self.coeffs[k] = rational(c)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> set[int]:
        return {d for (d, _) in self.coeffs}

    def degree(self) -> Optional[int]:
        """The degree if homogeneous (None for 0), else DegreeMismatch."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise DegreeMismatch("element not homogeneous: degrees %s" % sorted(ds))
        return ds.pop()

    def coeff(self, n: int, label: str) -> Fraction:
        return self.coeffs.get((n, label), ZERO)

    def homogeneous_part(self, n: int) -> "GradedElement":
        return GradedElement({k: c for k, c in self.coeffs.items() if k[0] == n})

    def __add__(self, other: "GradedElement") -> "GradedElement":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = GradedElement()
        res.coeffs = out
        return res

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return self.scale(-ONE)

    def scale(self, c) -> "GradedElement":
        c = rational(c)
        if not c:
            return GradedElement()
        res = GradedElement()
        res.coeffs = {k: c * v for k, v in self.coeffs.items()}
        return res

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return isinstance(other, GradedElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (n, lab), c in self.items_sorted():
            if c == ONE:
                parts.append("+ %s" % lab)
            elif c == -ONE:
                parts.append("- %s" % lab)
            elif c > 0:
                parts.append("+ %s %s" % (c, lab))
            else:
                parts.append("- %s %s" % (-c, lab))
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else s


# The one in-place sum for the package's inner loops, which would otherwise
# copy the whole dict per term with `out = out + e.scale(c)`.

def _accumulate(acc: dict, terms: Mapping, c) -> None:
    """acc += c * terms in place, on any keys, keeping GradedElement
    addition's key order and dropping what cancels.  The int 0 default
    keeps int sums on ints."""
    for key, v in terms.items():
        s = acc.get(key, 0) + c * v
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _element_of(coeffs: dict) -> GradedElement:
    """Wrap a dict of nonzero Fraction coefficients without copying it."""
    res = GradedElement()
    res.coeffs = coeffs
    return res


def linear_combination(pairs: Iterable[tuple[Fraction, GradedElement]]) -> GradedElement:
    out: dict = {}
    for c, e in pairs:
        if c:
            _accumulate(out, e.coeffs, rational(c))
    return _element_of(out)


def _cleared(cols: Sequence[Sequence[tuple[int, "int | Fraction"]]], den: int = 1):
    """Columns whose entries are ints or Fractions, all over den, as (int
    columns, denominator): every entry scaled by the lcm of the entries'
    denominators, and den by it too."""
    m = math.lcm(*(x.denominator for col in cols for _, x in col))
    return [[(i, x.numerator * (m // x.denominator)) for i, x in col]
            for col in cols], den * m


class GradedLinearMap:
    """Degree-homogeneous linear map between graded spaces.

    Each degree is stored once, as one block of sparse int columns over one
    positive denominator: _blocks[n] = (cols, den), where cols[j] lists the
    (row, int) pairs of den times the image of the j-th basis vector of
    degree n, in degree n + shift, rows ascending and zero entries never
    stored.  den is the least one: its gcd with the block's entries is 1.
    Degrees whose columns are all zero are dropped.  apply, compose,
    is_zero and solve work on the blocks at a cost of O(nonzero entries),
    and build a Fraction only for an entry they hand out.

    The constructor and from_function take columns of Fractions and clear
    their denominators once; a builder that already holds ints over one
    denominator hands them over as they are, through _from_blocks.
    columns reads the blocks back as Fractions, built on each read.
    """

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace,
                 shift: int, columns: Optional[Mapping[int, list]] = None):
        self.source = source
        self.target = target
        self.shift = shift
        self._blocks = self._reduced({n: _cleared(cols) for n, cols in (columns or {}).items()})
        self._coordinates: dict[int, tuple[Coordinates, int]] = {}

    @classmethod
    def _from_blocks(cls, source: GradedVectorSpace, target: GradedVectorSpace,
                     shift: int, blocks: Mapping[int, tuple[list, int]]) -> "GradedLinearMap":
        """The map with the given blocks {n: (int columns, den > 0)}, each
        reduced to its least denominator."""
        m = cls(source, target, shift)
        m._blocks = cls._reduced(blocks)
        return m

    @staticmethod
    def _reduced(blocks: Mapping[int, tuple[list, int]]) -> dict[int, tuple[list, int]]:
        """The nonzero blocks, each divided by the gcd of its denominator
        and its entries."""
        out = {}
        for n, (cols, den) in blocks.items():
            if not any(cols):
                continue
            g = math.gcd(den, *(x for col in cols for _, x in col)) if den != 1 else 1
            if g != 1:
                cols, den = [[(i, x // g) for i, x in col] for col in cols], den // g
            out[n] = (cols, den)
        return out

    @property
    def columns(self) -> dict[int, list[list[tuple[int, Fraction]]]]:
        """The columns as Fractions, {n: [[(row, Fraction)]]}, built on each
        read from the blocks."""
        return {n: [[(i, QQ(x, den)) for i, x in col] for col in cols]
                for n, (cols, den) in self._blocks.items()}

    @classmethod
    def from_function(cls, source: GradedVectorSpace, target: GradedVectorSpace,
                      shift: int, fn: Callable[[int, str], GradedElement]):
        columns = {}
        for n in source.degrees():
            cols = []
            for lab in source.labels(n):
                col = []
                for (d, tl), c in fn(n, lab).coeffs.items():
                    if d != n + shift:
                        raise DegreeMismatch(
                            "image of (%d,%s) not in degree %d" % (n, lab, n + shift))
                    if c:
                        col.append((target.index(d, tl), rational(c)))
                col.sort()
                cols.append(col)
            columns[n] = cols
        return cls(source, target, shift, columns)

    def apply(self, elt: GradedElement) -> GradedElement:
        """The image of elt: den times it summed per target degree, then
        one division per nonzero coefficient."""
        out: dict[tuple[int, str], Fraction] = {}
        dens: dict[int, int] = {}
        for (n, lab), c in elt.coeffs.items():
            block = self._blocks.get(n)
            if block is None:
                continue
            cols, den = block
            m = n + self.shift
            dens[m] = den
            tlabels = self.target.labels(m)
            for i, a in cols[self.source.index(n, lab)]:
                key = (m, tlabels[i])
                s = out.get(key, ZERO) + a * c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return _element_of({key: s / dens[key[0]] if dens[key[0]] != 1 else s
                            for key, s in out.items()})

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self after other, on ints: a block of the product is the product
        of the two int blocks over the product of their denominators,
        reduced to its least denominator (so the squarings of a power keep
        it small)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition spaces do not match")
        blocks = {}
        for n, (cols1, den1) in other._blocks.items():
            block2 = self._blocks.get(n + other.shift)
            if block2 is None:
                continue
            cols2, den2 = block2
            out = []
            for col in cols1:
                acc: dict[int, int] = {}
                for k, a in col:
                    for i, b in cols2[k]:
                        acc[i] = acc.get(i, 0) + b * a
                out.append([(i, c) for i, c in sorted(acc.items()) if c])
            blocks[n] = (out, den1 * den2)
        return GradedLinearMap._from_blocks(other.source, self.target,
                                            self.shift + other.shift, blocks)

    def power(self, k: int) -> "GradedLinearMap":
        """The map composed with itself k >= 1 times, by repeated squaring."""
        square, out = self, None
        while True:
            if k & 1:
                out = square if out is None else square.compose(out)
            k >>= 1
            if not k:
                return out
            square = square.compose(square)

    def image(self, n: int) -> list[dict[int, Fraction]]:
        """The reduced echelon basis of the image of degree n, in degree n
        + shift, as sparse vectors in pivot order: the span of the int
        columns, which den does not change."""
        cols, _ = self._blocks.get(n, ((), 1))
        return RowSpace(self.target.dim(n + self.shift), map(dict, cols)).rows()

    def is_zero(self) -> bool:
        return not self._blocks

    def solve(self, target_elt: GradedElement) -> Optional[GradedElement]:
        """Some preimage under the map, or None.  Deterministic: reduced row
        echelon with free variables pinned to zero (pivot-minimal).  The
        preimage's keys come per target degree, in the order the degrees
        first appear in target_elt, and within a degree in basis order."""
        out: dict[tuple[int, str], Fraction] = {}
        for d in dict.fromkeys(d for d, _ in target_elt.coeffs):
            n = d - self.shift
            if n not in self._coordinates:
                cols, den = self._blocks.get(n, ([()] * self.source.dim(n), 1))
                self._coordinates[n] = Coordinates(list(map(dict, cols)), self.target.dim(d)), den
            coords, den = self._coordinates[n]
            x = coords.coords(self.target.to_vector(target_elt.homogeneous_part(d), d))
            if x is None:
                return None
            # coordinates on the int columns, which are den times the map's;
            # one source degree per target degree: the keys never collide
            out.update(self.source.from_vector({i: c * den for i, c in x.items()}, n).coeffs)
        return _element_of(out)


# ---------------------------------------------------------------------------
# the dg-algebra core and homology
# ---------------------------------------------------------------------------

class _DgAlgebra:
    """What dglas and cdgas share: a graded space, a differential of shift
    -1, a product on basis pairs with one graded symmetry, and one axiom
    checker.

    product_fn(deg1, label1, deg2, label2) -> GradedElement is evaluated
    lazily with a cache, so large truncated quotients never materialize a
    full structure-constant table.  The differential d is a GradedLinearMap
    of shift -1 on space (a presented dgla's quotient and a truncated free
    cdga build their own, as int blocks), None for the zero map, or
    d(n, label) -> GradedElement, read once the cache exists, so that it
    may multiply.  d*d = 0 is always checked, by composing d with itself; the
    subclass's verify_axioms runs when check is "full", or "auto" with at
    most _TRIPLE_CAP basis elements.

    A subclass sets _SIGN (v*u = _SIGN (-1)^{|u||v|} u*v: -1 for a Lie
    bracket, +1 for a commutative product), _SYMMETRY (the name of that
    axiom), _TRIPLE_LAW (the name of the law on basis triples, "Jacobi" or
    "associativity"), _VIOLATION (the exception a failed axiom raises) and
    _TRIPLE_CAP, and names the product under its own public aliases.  Its
    verify_axioms calls _check_axioms, the one pair loop (the symmetry,
    then Leibniz) and the one triple loop for both laws.

    The checker works on basis positions, not on GradedElements, and on
    ints.  Whenever either loop runs it fills one structure-constant table,
    table[i][j] = e_i * e_j as {k: c} without zeros, from the lazy cache
    (_table_row), times the lcm D of its denominators; the pair loop reads
    the columns of d from d_map's blocks, times the lcm D_d of theirs
    (_d_table).  Each law is then a contraction over the int table whose
    terms share one denominator, D^2 for the symmetry and the triple law
    and D D_d for Leibniz, so it vanishes exactly when the law holds.  The
    triple loop contracts u(vw) - (uv)w and, for a Lie bracket (_SIGN <
    0), subtracts (-1)^{|u||v|} v(uw): Jacobi is associativity plus that
    one term, and there is no _triple_failure hook.  A triple whose terms
    are all empty is skipped; an associative product reads its third term
    from one shared row of empty dicts.

    The class, its product methods and the checker's helpers are
    underscored because perfbench's tracer times every call of a public
    name in a span of its own: a public helper called in an inner loop
    would be timed once per call.

    A subclass may set weights ({label: weight}) before calling __init__;
    homology() hands them to the one HomologyReport, which splits the basis
    into (weight, degree) cells when d shifts every weight alike.
    """

    weights: Optional[dict[str, int]] = None

    def __init__(self, space: GradedVectorSpace,
                 d: "GradedLinearMap | Callable[[int, str], GradedElement] | None",
                 product_fn: Callable[[int, str, int, str], GradedElement],
                 check: str = "auto"):
        self.space = space
        self._product_fn = product_fn
        self._products: dict[tuple[str, str], GradedElement] = {}
        self._homology: Optional[HomologyReport] = None
        self.d_map = d if isinstance(d, GradedLinearMap) else \
            GradedLinearMap(space, space, -1) if d is None else \
            GradedLinearMap.from_function(space, space, -1, d)
        if not self.d_map.compose(self.d_map).is_zero():
            raise self._VIOLATION("d squared is nonzero")
        if check == "full" or (check == "auto" and space.total_dim() <= self._TRIPLE_CAP):
            self.verify_axioms()

    @classmethod
    def _mirror_sign(cls, d1: int, d2: int) -> Fraction:
        """s with v*u = s u*v for u, v of degrees d1, d2."""
        return cls._SIGN * (-ONE if (d1 * d2) % 2 else ONE)

    @classmethod
    def _mirror_filled(cls, space: GradedVectorSpace,
                       table: Mapping[tuple[str, str], GradedElement]
                       ) -> dict[tuple[str, str], GradedElement]:
        """table with each missing mirror pair (l2, l1) filled in by the
        graded symmetry, after the given pairs in their order; raises
        DegreeMismatch on an entry not homogeneous of degree |l1| + |l2|."""
        degree_of = {lab: n for n in space.degrees() for lab in space.labels(n)}
        full = dict(table)
        for (l1, l2), val in table.items():
            n = degree_of[l1] + degree_of[l2]
            if any(d != n for d, _ in val.coeffs):
                raise DegreeMismatch("product of (%s, %s) not in degree %d" % (l1, l2, n))
            if (l2, l1) not in full:
                full[(l2, l1)] = val.scale(cls._mirror_sign(degree_of[l1], degree_of[l2]))
        return full

    def basis_items(self) -> list[tuple[int, str]]:
        return [(n, lab) for n in self.space.degrees() for lab in self.space.labels(n)]

    def d(self, elt: GradedElement) -> GradedElement:
        return self.d_map.apply(elt)

    def _product_labels(self, d1: int, l1: str, d2: int, l2: str) -> GradedElement:
        key = (l1, l2)
        out = self._products.get(key)
        if out is None:
            out = self._product_fn(d1, l1, d2, l2)
            self._products[key] = out
        return out

    def _product(self, u: GradedElement, v: GradedElement) -> GradedElement:
        out: dict = {}
        for (d1, l1), c1 in u.coeffs.items():
            for (d2, l2), c2 in v.coeffs.items():
                _accumulate(out, self._product_labels(d1, l1, d2, l2).coeffs, c1 * c2)
        return _element_of(out)

    def element(self, label: str) -> GradedElement:
        for n in self.space.degrees():
            if self.space.has(n, label):
                return self.space.basis_element(n, label)
        raise KeyError(label)

    def homology(self) -> "HomologyReport":
        """The homology report, built once; __init__ checked d*d = 0."""
        if self._homology is None:
            self._homology = HomologyReport(self.space, self.d_map, self.weights)
        return self._homology

    def total_dim(self) -> int:
        return self.space.total_dim()

    def _table_row(self, items: Sequence[tuple[int, str]],
                   pos: Mapping[tuple[int, str], int], i: int) -> list[dict[int, Fraction]]:
        """Row i of the structure-constant table: e_i * e_j as {k: c} on
        basis positions, for each j, read through the lazy cache."""
        d1, l1 = items[i]
        return [{pos[key]: c for key, c in self._product_labels(d1, l1, d2, l2).coeffs.items()}
                for d2, l2 in items]

    def _d_table(self) -> list[dict[int, int]]:
        """The columns of d as {k: c} on basis positions, one per basis
        element in basis order: ints over the lcm of the blocks'
        denominators."""
        blocks = self.d_map._blocks
        den = math.lcm(*(den for _, den in blocks.values()))
        start: dict[int, int] = {}
        out: list[dict[int, int]] = []
        for n in self.space.degrees():
            start[n] = len(out)
            cols, bden = blocks.get(n, ([()] * self.space.dim(n), den))
            f = den // bden
            out.extend({start[n - 1] + r: x * f for r, x in col} for col in cols)
        return out

    def _check_axioms(self, pair_cap: int, triple_cap: int) -> list[tuple[str, int, int]]:
        """The graded symmetry and the Leibniz rule on every ordered pair
        of basis elements when there are at most pair_cap of them, and
        _TRIPLE_LAW on every ordered triple when at most triple_cap; raises
        _VIOLATION naming the first failure, in itertools.product order.
        Returns (law, basis size, cap) for each law a cap skipped.  Both
        loops contract one table of structure constants, and the triple
        loop reads the Lie term from _SIGN (see the class docstring)."""
        items = self.basis_items()
        n = len(items)
        flip = int(self._SIGN < 0)
        skipped = []
        if n <= pair_cap or n <= triple_cap:
            pos = {key: p for p, key in enumerate(items)}
            table = [self._table_row(items, pos, i) for i in range(n)]
            den = math.lcm(*(c.denominator for row in table for e in row for c in e.values()))
            table = [[{k: c.numerator * (den // c.denominator) for k, c in e.items()}
                      for e in row] for row in table]
        if n <= pair_cap:
            dcols = self._d_table()
            for i, j in itertools.product(range(n), repeat=2):
                (d1, l1), (d2, l2) = items[i], items[j]
                uv, vu = table[i][j], table[j][i]
                if (d1 * d2 + flip) % 2:  # the mirror sign is -1
                    vu = {k: -c for k, c in vu.items()}
                if uv != vu:
                    raise self._VIOLATION("%s fails on (%s, %s)" % (self._SYMMETRY, l1, l2))
                # d(uv) - d(u) v - (-1)^{|u|} u d(v)
                du, dv = dcols[i], dcols[j]
                if not (uv or du or dv):
                    continue
                acc: dict[int, int] = {}
                for a, c in uv.items():
                    _accumulate(acc, dcols[a], c)
                for a, c in du.items():
                    _accumulate(acc, table[a][j], -c)
                for b, c in dv.items():
                    _accumulate(acc, table[i][b], c if d1 % 2 else -c)
                if acc:
                    raise self._VIOLATION("Leibniz fails on (%s, %s)" % (l1, l2))
        else:
            skipped += [(self._SYMMETRY, n, pair_cap), ("Leibniz", n, pair_cap)]
        if n <= triple_cap:
            # u(vw) - (uv)w, and for a Lie bracket - (-1)^{|u||v|} v(uw)
            empty = [{}] * n
            for i, j in itertools.product(range(n), repeat=2):
                uv, row_i, row_j = table[i][j], table[i], table[j]
                third = row_i if flip else empty
                odd = (items[i][0] * items[j][0]) % 2
                for k in range(n):
                    vw, uw = row_j[k], third[k]
                    if not (uv or vw or uw):
                        continue
                    acc = {}
                    for b, c in vw.items():
                        _accumulate(acc, row_i[b], c)
                    for a, c in uv.items():
                        _accumulate(acc, table[a][k], -c)
                    if uw:  # never for an associative product
                        for b, c in uw.items():
                            _accumulate(acc, row_j[b], c if odd else -c)
                    if acc:
                        raise self._VIOLATION("%s fails on (%s, %s, %s)" % (
                            self._TRIPLE_LAW, items[i][1], items[j][1], items[k][1]))
        else:
            skipped.append((self._TRIPLE_LAW, n, triple_cap))
        return skipped


class HomologyReport:
    """Homology of the complex (space, d), d of shift -1, on the sparse int
    columns of d; cohomological objects are stored with degrees negated.
    d*d = 0 is taken as checked, once per differential: _DgAlgebra.__init__
    checks it, and homology() does for a bare complex.

    The basis splits into cells, (weight, degree) blocks; a label missing
    from weights has weight 1.  The weights are kept only when every term
    of d shifts weight by one amount, shift (0 for d = 0), so that d maps
    each cell into one cell; otherwise each cell is a whole degree and
    shift is 0.  One RowSpace per cell reduces the int columns of d out of
    it (den times d's, with the same span), so a rank builds no Fraction:
    cell_dims[(w, n)] = |cell| - rank(d out of it) - rank(d into it), in
    sorted order, and dims sums them per degree.  The cells' rows into
    degree n have disjoint supports, so together they are the reduced
    boundary basis; representatives(n), built on first read, are the
    cycles _cycles(d, n) that extend it, in order.
    """

    def __init__(self, space: GradedVectorSpace, d: GradedLinearMap,
                 weights: Optional[Mapping[str, int]] = None):
        if d.shift != -1:
            raise ValueError("differential must have shift -1")
        self.space = space
        self.d = d
        weights = weights or {}
        shifts = {weights.get(space.labels(n - 1)[i], 1) - weights.get(lab, 1)
                  for n, (cols, _) in d._blocks.items()
                  for lab, col in zip(space.labels(n), cols) for i, _ in col}
        if len(shifts) > 1:
            weights = {}
        self.shift = shifts.pop() if len(shifts) == 1 else 0
        cells: dict[tuple[int, int], list[int]] = {}
        for n in space.degrees():
            for i, lab in enumerate(space.labels(n)):
                cells.setdefault((weights.get(lab, 1), n), []).append(i)
        self._spans: dict[tuple[int, int], RowSpace] = {}
        for (w, n), idx in cells.items():
            cols, _ = d._blocks.get(n, ((), 1))
            self._spans[(w, n)] = RowSpace(space.dim(n - 1), (dict(cols[i]) for i in idx if cols))
        rank = {key: span.dim() for key, span in self._spans.items()}
        self.cell_dims = {(w, n): len(idx) - rank[(w, n)] - rank.get((w - self.shift, n + 1), 0)
                          for (w, n), idx in sorted(cells.items())}
        self.dims = {n: sum(v for (_, m), v in self.cell_dims.items() if m == n)
                     for n in space.degrees()}
        self._reps: dict[int, list[GradedElement]] = {}
        self._classes: dict[int, Coordinates] = {}

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def _boundary_rows(self, n: int) -> dict[int, dict[int, Fraction]]:
        return {pc: row for (_, m), span in self._spans.items() if m == n + 1
                for pc, row in zip(span.pivots, span.rows())}

    def boundaries(self, n: int) -> list[GradedElement]:
        """The reduced boundary basis of degree n, in pivot order."""
        rows = self._boundary_rows(n)
        return [self.space.from_vector(rows[pc], n) for pc in sorted(rows)]

    def representatives(self, n: int) -> list[GradedElement]:
        """Cycles of degree n whose classes form a basis of H_n."""
        if n not in self._reps:
            rows = self._boundary_rows(n)
            span = RowSpace(self.space.dim(n), (rows[pc] for pc in sorted(rows)))
            ker = _cycles(self.d, n)
            chosen = [v for v in ker if span._add(v)]
            # computed evidence that every boundary is a cycle
            if len(chosen) != len(ker) - len(rows):
                raise CertificateFailure("boundaries are not all cycles in degree %d" % n)
            self._reps[n] = [self.space.from_vector(v, n) for v in chosen]
        return self._reps[n]

    def class_of(self, elt: GradedElement, n: int) -> Optional[dict[int, Fraction]]:
        """A degree-n cycle's class as sparse coefficients {i: c} on the
        representatives, in index order, or None for a non-cycle; the
        Coordinates over representatives and boundaries is built on first
        use."""
        if n not in self._classes:
            self._classes[n] = Coordinates(
                [self.space.to_vector(c, n) for c in
                 self.representatives(n) + self.boundaries(n)],
                self.space.dim(n))
        x = self._classes[n].coords(self.space.to_vector(elt, n))
        return None if x is None else {i: c for i, c in x.items() if i < self.dim(n)}

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def as_dict(self):
        return {str(n): self.dims[n] for n in self.degrees()}

    def __repr__(self):
        return "HomologyReport(%s)" % {n: self.dims[n] for n in self.degrees()}


def _cycles(d: GradedLinearMap, n: int) -> list[dict[int, Fraction]]:
    """Basis of the kernel of d on degree n: the int rows of den d_n, which
    have the same kernel, reduced into a RowSpace, then one sparse vector
    per free column, in column order."""
    rows: dict[int, dict[int, int]] = {}
    cols, _ = d._blocks.get(n, ((), 1))
    for j, col in enumerate(cols):
        for i, x in col:
            rows.setdefault(i, {})[j] = x
    return RowSpace(d.source.dim(n), rows.values()).kernel()


def homology(space: GradedVectorSpace, d: GradedLinearMap) -> HomologyReport:
    """The HomologyReport of a bare complex (space, d), one cell per
    degree, after checking d*d = 0: a nonzero d_n d_{n+1} names the lowest
    degree n whose boundaries are not all cycles."""
    h = HomologyReport(space, d)
    dd = d.compose(d)
    if not dd.is_zero():
        raise CertificateFailure(
            "boundaries are not all cycles in degree %d" % (min(dd._blocks) - 1))
    return h


# ---------------------------------------------------------------------------
# idempotent splitting of a commutative algebra in degree 0
# ---------------------------------------------------------------------------

def _divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Quotient and remainder of polynomials given as coefficient lists,
    highest first, b[0] != 0; the remainder has no leading zeros."""
    a, quo = list(a), []
    while len(a) >= len(b):
        f = QQ(a[0]) / b[0]
        quo.append(f)
        a = [x - f * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    while a and not a[0]:
        a.pop(0)
    return quo, a


def _value(poly: Sequence, y):
    """poly, its coefficients highest first, at y (Horner)."""
    v = 0
    for c in poly:
        v = v * y + c
    return v


def _rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """The distinct rational roots of a nonzero polynomial, its
    coefficients highest first, in ascending order; exact, and without
    factoring any coefficient.  With lead the leading coefficient after
    clearing denominators, y = lead x turns the polynomial into a monic int
    one, q, whose rational roots are ints.  The Sturm chain of q divided by
    its last member, gcd(q, q'), is a Sturm chain of q's squarefree part:
    it counts the distinct real roots in (lo, hi], and bisection over the
    ints inside the Cauchy bound narrows every nonzero count down to one
    int, kept only where q vanishes exactly."""
    p = list(coeffs)
    while len(p) > 1 and not p[0]:
        p.pop(0)
    if len(p) <= 1:
        return []
    den = math.lcm(*(c.denominator for c in p))
    lead, m = int(p[0] * den), len(p) - 1
    q = [1] + [int(c * den) * lead ** (i - 1) for i, c in enumerate(p) if i]
    chain = [q, [c * (m - i) for i, c in enumerate(q[:-1])]]
    while True:
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    chain = [_divmod(c, chain[-1])[0] for c in chain]
    # each times the lcm of its denominators: the same signs, on ints
    chain = [[int(c * k) for c in poly] for poly in chain
             for k in [math.lcm(*(c.denominator for c in poly))]]

    def variations(y: int) -> int:
        signs = [v > 0 for v in (_value(c, y) for c in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in q[1:])
    roots, stack = [], [(-bound - 1, variations(-bound - 1), bound, variations(bound))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if not _value(q, hi):
                roots.append(QQ(hi, lead))
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
    return sorted(roots)


def idempotents(a) -> list[dict[int, Fraction]]:
    """Orthogonal primitive idempotents of a split algebra, as sparse
    coordinate vectors {i: c} in its basis, in index order, sorted by their
    coordinate lists.  a is a commutative algebra in degree 0, such as the
    H^0 of cdga.cohomology_algebra, read through its degree-0 basis,
    a.multiply and a.unit.

    Each basis element g refines each idempotent e found so far, starting
    from the unit.  x = g e lies in eA, whose unit is e; its minimal
    polynomial there comes from the first power x^k in the span of e, x,
    ..., x^(k-1).  In a split algebra it has k distinct rational roots l_i,
    and e is the sum of the orthogonal Lagrange idempotents
    e_i = prod_{j != i} (x - l_j e) / (l_i - l_j), with x e_i = l_i e_i.
    So after the last g every basis element acts on each e as a scalar:
    eA = Q e, and e is primitive.  Raises NonSplitAlgebra when a minimal
    polynomial has an irrational or repeated root: a is no finite product
    of copies of Q.
    """
    space = a.space
    n = space.dim(0)
    idems = [a.unit]
    for g in space.basis_elements(0):
        refined = []
        for e in idems:
            x = a.multiply(g, e)
            powers = [e]
            for _ in range(n):
                top = a.multiply(powers[-1], x)
                coords = Coordinates([space.to_vector(p, 0) for p in powers], n).coords(
                    space.to_vector(top, 0))
                if coords is not None:
                    break
                powers.append(top)
            # x^k = sum_i c_i x^i: the minimal polynomial, highest first
            k = len(powers)
            roots = _rational_roots([ONE] + [-coords.get(i, ZERO) for i in range(k - 1, -1, -1)])
            if len(roots) != k:
                raise NonSplitAlgebra(
                    "multiplication operator has irrational or non-semisimple spectrum")
            for lam in roots:
                f = e
                for mu in roots:
                    if mu != lam:
                        f = a.multiply(f, x - e.scale(mu)).scale(1 / (lam - mu))
                refined.append(f)
        idems = refined
    # exact verification of the defining identities
    for i, e in enumerate(idems):
        if e.is_zero() or a.multiply(e, e) != e:
            raise NonSplitAlgebra("candidate idempotent fails e*e = e")
        if any(not a.multiply(e, f).is_zero() for f in idems[i + 1:]):
            raise NonSplitAlgebra("candidate idempotents not orthogonal")
    if linear_combination((ONE, e) for e in idems) != a.unit:
        raise NonSplitAlgebra("idempotents do not sum to the unit")
    vectors = [space.to_vector(e, 0) for e in idems]
    vectors.sort(key=lambda v: [v.get(t, ZERO) for t in range(n)])
    return [{t: v[t] for t in sorted(v)} for v in vectors]
