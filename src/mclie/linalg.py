"""Exact rational linear algebra: graded vector spaces, sparse elements,
degree-shifting linear maps, homology, the core that dglas and cdgas share
(with their one axiom checker), and the primitive idempotents of a split
commutative algebra in degree 0: H^0 of a cdga, held as a Cdga with zero
differential.

All arithmetic is fractions.Fraction; there is no floating point anywhere.
Vectors are sparse, in and out: {index: Fraction} dicts of nonzero
entries, as GradedVectorSpace.to_vector returns them and from_vector reads
them.  Linear maps are stored as sparse columns.  RowSpace, an incremental
reduced row echelon form, is the one row reducer and takes only sparse
vectors: homology, the (weight, degree) cells, the quotient Lie algebras,
Coordinates and the cdga constructions all feed it that way, and
Coordinates.coords and HomologyReport.class_of answer in sparse
coordinates, in index order.  The reduced row echelon form is unique, so
every derived report is reproducible bit for bit.

rref and solve_matrix are the two entry points for dense matrices (lists
of row lists).  No library code calls them; they stay because the
per-layer metrics of BENCHMARK.json name them, and perfbench's traced run
exits 2 when a named function is missing.

Coordinates in a subspace come from here: a subspace with a basis of its
own (a connected cover, a strict factor u*A, an eventual image) reads
them through its inclusion map's GradedLinearMap.solve, and a homology
class through HomologyReport.class_of.  Outside this module only the
transfer data and the derivations report build a Coordinates.
"""

from __future__ import annotations

import itertools
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


class NonSplitAlgebra(Exception):
    """The algebra is not isomorphic to a finite product of copies of Q."""


class DegreeMismatch(Exception):
    """An element was not homogeneous of the required degree."""


class CertificateFailure(Exception):
    """A computed certificate did not hold: the boundaries lying inside
    the cycles of a homology degree, the Harrison unit slot, the Hodge
    splitting of a transfer, a transfer solve, or a minimal-model check."""


# ---------------------------------------------------------------------------
# row reduction: RowSpace keeps sparse {column: Fraction} rows; rref and
# solve_matrix read dense matrices (lists of row lists) into it
# ---------------------------------------------------------------------------

def _sparse(vec: Sequence[Fraction]) -> dict[int, Fraction]:
    """The nonzero entries of a dense vector, keyed by column."""
    return {j: x for j, x in enumerate(vec) if x}


def rref(rows: Iterable[Sequence[Fraction]], ncols: int):
    """Reduced row echelon form of dense rows ncols wide: (nonzero reduced
    rows, pivot columns) in pivot order, read off a RowSpace.  The form is
    unique, so it is the leftmost-pivot Gauss-Jordan result."""
    span = RowSpace(ncols)
    for r in rows:
        span._add(_sparse(r))
    pivots = span.pivots
    return [[span._rows[pc].get(j, ZERO) for j in range(ncols)] for pc in pivots], pivots


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
    sparse vectors: {column: Fraction} dicts of nonzero entries.

    _rows maps each pivot to its row, which is 1 at its pivot and 0 at
    every other pivot.  So _reduce(v) subtracts only the rows whose pivots
    occur in v, at O(nnz(v) nnz(row)) cost, and _add rewrites only the rows
    nonzero at the new pivot.  Pivots lie in the first ncols columns;
    entries past them (as in Coordinates) are carried through every row
    operation.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict[int, Fraction]] = {}

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

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
        self.span = RowSpace(ncols)
        for i, v in enumerate(vectors):
            tagged = dict(v)
            tagged[ncols + i] = -ONE
            self.span._add(tagged)

    def coords(self, vec: Mapping[int, Fraction]) -> Optional[dict[int, Fraction]]:
        """The nonzero coefficients on the input vectors, {i: c} in index
        order, or None outside their span."""
        ncols = self.span.ncols
        x = self.span._reduce(vec)
        if any(j < ncols for j in x):
            return None
        return {j - ncols: c for j, c in sorted(x.items())}

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


# In-place sums for the package's inner loops, which would otherwise copy the
# whole dict per term with `out = out + e.scale(c)`.

def _add_scaled(acc: dict, elt: GradedElement, c: Fraction) -> None:
    """acc += c * elt in place, keeping GradedElement addition's key order
    and dropping coefficients that cancel."""
    for key, v in elt.coeffs.items():
        s = acc.get(key, ZERO) + c * v
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
            _add_scaled(out, e, rational(c))
    return _element_of(out)


class GradedLinearMap:
    """Degree-homogeneous linear map between graded spaces.

    Stored as sparse columns: columns[n][j] lists the (row, coefficient)
    pairs of the image of the j-th basis vector of degree n, in degree
    n + shift, rows ascending and zero entries never stored.  Degrees whose
    columns are all zero are dropped.  apply, compose, is_zero and solve
    work on the columns at a cost of O(nonzero entries).
    """

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace,
                 shift: int, columns: Optional[Mapping[int, list]] = None):
        self.source = source
        self.target = target
        self.shift = shift
        self.columns: dict[int, list[list[tuple[int, Fraction]]]] = {
            n: cols for n, cols in (columns or {}).items() if any(cols)}
        self._coordinates: dict[int, Coordinates] = {}

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
        out: dict[tuple[int, str], Fraction] = {}
        for (n, lab), c in elt.coeffs.items():
            cols = self.columns.get(n)
            if cols is None:
                continue
            m = n + self.shift
            tlabels = self.target.labels(m)
            for i, a in cols[self.source.index(n, lab)]:
                key = (m, tlabels[i])
                s = out.get(key, ZERO) + a * c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return _element_of(out)

    def compose(self, other: "GradedLinearMap") -> "GradedLinearMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition spaces do not match")
        columns = {}
        for n, cols1 in other.columns.items():
            cols2 = self.columns.get(n + other.shift)
            if cols2 is None:
                continue
            out = []
            for col in cols1:
                acc: dict[int, Fraction] = {}
                for k, a in col:
                    for i, b in cols2[k]:
                        acc[i] = acc.get(i, ZERO) + b * a
                out.append(sorted((i, c) for i, c in acc.items() if c))
            columns[n] = out
        return GradedLinearMap(other.source, self.target, self.shift + other.shift,
                               columns)

    def is_zero(self) -> bool:
        return not self.columns

    def solve(self, target_elt: GradedElement) -> Optional[GradedElement]:
        """Some preimage under the map, or None.  Deterministic: reduced row
        echelon with free variables pinned to zero (pivot-minimal).  The
        preimage's keys come per target degree, in the order the degrees
        first appear in target_elt, and within a degree in basis order."""
        out: dict[tuple[int, str], Fraction] = {}
        for d in dict.fromkeys(d for d, _ in target_elt.coeffs):
            n = d - self.shift
            if n not in self._coordinates:
                cols = self.columns.get(n) or [()] * self.source.dim(n)
                self._coordinates[n] = Coordinates([dict(col) for col in cols],
                                                   self.target.dim(d))
            x = self._coordinates[n].coords(
                self.target.to_vector(target_elt.homogeneous_part(d), d))
            if x is None:
                return None
            # one source degree per target degree: the keys never collide
            out.update(self.source.from_vector(x, n).coeffs)
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
    full structure-constant table.  The differential is built from
    d_fn(n, label) -> GradedElement (None for the zero map) once the cache
    exists, so d_fn may multiply.  d*d = 0 is always checked; the
    subclass's verify_axioms runs when check is "full", or "auto" with at
    most _TRIPLE_CAP basis elements.

    A subclass sets _SIGN (v*u = _SIGN (-1)^{|u||v|} u*v: -1 for a Lie
    bracket, +1 for a commutative product), _SYMMETRY (the name of that
    axiom), _TRIPLE_LAW (the law on basis triples, "Jacobi" or
    "associativity") with its hook _triple_failure, _VIOLATION (the
    exception a failed axiom raises) and _TRIPLE_CAP, and names the product
    under its own public aliases.  Its verify_axioms calls _check_axioms,
    the one pair loop (the symmetry, then Leibniz) and the one triple loop.

    The checker works on basis positions, not on GradedElements.  Whenever
    either loop runs it fills one structure-constant table, table[i][j] =
    e_i * e_j as {k: c} without zeros, from the lazy cache (_table_row),
    and the pair loop reads d the same way (_d_table).  Each law is then a
    contraction over the table: the pair loop compares table[i][j] with
    the mirrored table[j][i] and sums the Leibniz terms into one dict, and
    _triple_failure(table, degrees) contracts the triple law and returns
    the first failing triple (i, j, k) in itertools.product order, or None.
    A triple whose table entries are all empty is skipped at once.

    The class, its product methods and the checker's helpers are
    underscored because perfbench's tracer times every call of a public
    name in a span of its own: a public helper called in an inner loop
    would be timed once per call.

    A subclass may set weights ({label: weight}) before calling __init__;
    _cells() groups the basis by (weight, degree), and _cell_homology reads
    the homology of each such cell.
    """

    weights: Optional[dict[str, int]] = None

    def __init__(self, space: GradedVectorSpace,
                 d_fn: Optional[Callable[[int, str], GradedElement]],
                 product_fn: Callable[[int, str, int, str], GradedElement],
                 check: str = "auto"):
        self.space = space
        self._product_fn = product_fn
        self._products: dict[tuple[str, str], GradedElement] = {}
        self._cell_index: Optional[dict[tuple[int, int], list[str]]] = None
        self.d_map = GradedLinearMap(space, space, -1) if d_fn is None else \
            GradedLinearMap.from_function(space, space, -1, d_fn)
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
        graded symmetry, after the given pairs in their order."""
        degree_of = {lab: n for n in space.degrees() for lab in space.labels(n)}
        full = dict(table)
        for (l1, l2), val in table.items():
            if (l2, l1) not in full:
                full[(l2, l1)] = val.scale(cls._mirror_sign(degree_of[l1], degree_of[l2]))
        return full

    def basis_items(self) -> list[tuple[int, str]]:
        return [(n, lab) for n in self.space.degrees() for lab in self.space.labels(n)]

    def _cells(self) -> dict[tuple[int, int], list[str]]:
        """(weight, degree) -> labels in basis order, built once; a label
        missing from weights (all of them when weights is None) has
        weight 1."""
        if self._cell_index is None:
            weights = self.weights or {}
            cells: dict[tuple[int, int], list[str]] = {}
            for n, lab in self.basis_items():
                cells.setdefault((weights.get(lab, 1), n), []).append(lab)
            self._cell_index = cells
        return self._cell_index

    def _weight_shift(self) -> Optional[int]:
        """The weight shift w(target) - w(source) shared by every term of
        d, or None when weights is None, d is zero or the shifts differ."""
        if self.weights is None:
            return None
        shifts = {self.weights[self.space.labels(n - 1)[i]] - self.weights[lab]
                  for n, cols in self.d_map.columns.items()
                  for lab, col in zip(self.space.labels(n), cols) for i, _ in col}
        return shifts.pop() if len(shifts) == 1 else None

    def _cell_homology(self, shift: int) -> dict[tuple[int, int], int]:
        """Homology dimension of each (weight, degree) cell, in sorted
        order, for a d that shifts the weight of every term by shift (so
        each cell is mapped into one cell): |cell| - rank(d out of the
        cell) - rank(d into it), the ranks read off the sparse columns."""
        cells = self._cells()
        cols = self.d_map.columns
        ranks: dict[tuple[int, int], int] = {}
        for (w, n), labs in cells.items():
            span = RowSpace(self.space.dim(n - 1))
            if n in cols:
                for lab in labs:
                    span._add(dict(cols[n][self.space.index(n, lab)]))
            ranks[(w, n)] = span.dim()
        return {(w, n): len(labs) - ranks[(w, n)] - ranks.get((w - shift, n + 1), 0)
                for (w, n), labs in sorted(cells.items())}

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
                _add_scaled(out, self._product_labels(d1, l1, d2, l2), c1 * c2)
        return _element_of(out)

    def element(self, label: str) -> GradedElement:
        for n in self.space.degrees():
            if self.space.has(n, label):
                return self.space.basis_element(n, label)
        raise KeyError(label)

    def homology(self) -> "HomologyReport":
        return homology(self.space, self.d_map)

    def total_dim(self) -> int:
        return self.space.total_dim()

    def _table_row(self, items: Sequence[tuple[int, str]],
                   pos: Mapping[tuple[int, str], int], i: int) -> list[dict[int, Fraction]]:
        """Row i of the structure-constant table: e_i * e_j as {k: c} on
        basis positions, for each j, read through the lazy cache."""
        d1, l1 = items[i]
        return [{pos[key]: c for key, c in self._product_labels(d1, l1, d2, l2).coeffs.items()}
                for d2, l2 in items]

    def _d_table(self) -> list[dict[int, Fraction]]:
        """The columns of d as {k: c} on basis positions, one per basis
        element in basis order."""
        start: dict[int, int] = {}
        out: list[dict[int, Fraction]] = []
        for n in self.space.degrees():
            start[n] = len(out)
            cols = self.d_map.columns.get(n) or [()] * self.space.dim(n)
            out.extend({start[n - 1] + r: c for r, c in col} for col in cols)
        return out

    def _check_axioms(self, pair_cap: int, triple_cap: int) -> list[tuple[str, int, int]]:
        """The graded symmetry and the Leibniz rule on every ordered pair
        of basis elements when there are at most pair_cap of them, and
        _TRIPLE_LAW on every ordered triple when at most triple_cap; raises
        _VIOLATION naming the first failure.  Returns (law, basis size,
        cap) for each law a cap skipped.  Both loops contract one table
        of structure constants (see the class docstring)."""
        items = self.basis_items()
        n = len(items)
        skipped = []
        if n <= pair_cap or n <= triple_cap:
            pos = {key: p for p, key in enumerate(items)}
            table = [self._table_row(items, pos, i) for i in range(n)]
        if n <= pair_cap:
            dcols = self._d_table()
            flip = int(self._SIGN < 0)
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
                acc: dict[int, Fraction] = {}
                for a, c in uv.items():
                    _axpy(acc, dcols[a], c)
                for a, c in du.items():
                    _axpy(acc, table[a][j], -c)
                for b, c in dv.items():
                    _axpy(acc, table[i][b], c if d1 % 2 else -c)
                if any(acc.values()):
                    raise self._VIOLATION("Leibniz fails on (%s, %s)" % (l1, l2))
        else:
            skipped += [(self._SYMMETRY, n, pair_cap), ("Leibniz", n, pair_cap)]
        if n <= triple_cap:
            failure = self._triple_failure(table, [d for d, _ in items])
            if failure is not None:
                raise self._VIOLATION("%s fails on (%s, %s, %s)" % (
                    (self._TRIPLE_LAW,) + tuple(items[p][1] for p in failure)))
        else:
            skipped.append((self._TRIPLE_LAW, n, triple_cap))
        return skipped


def _axpy(acc: dict[int, Fraction], vec: Mapping[int, Fraction], c: Fraction) -> None:
    """acc += c * vec in place, on position-keyed dicts; cancelled entries
    stay as zeros."""
    for k, x in vec.items():
        acc[k] = acc.get(k, ZERO) + c * x


class HomologyReport:
    """Per-degree homology data of a complex on space: dimension,
    representative cycles whose classes form a basis, and a boundary basis."""

    def __init__(self, space: GradedVectorSpace, dims: dict[int, int],
                 representatives: dict[int, list[GradedElement]],
                 boundaries: dict[int, list[GradedElement]]):
        self.space = space
        self.dims = dims
        self.representatives = representatives
        self.boundaries = boundaries
        self._classes: dict[int, Coordinates] = {}

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def class_of(self, elt: GradedElement, n: int) -> Optional[dict[int, Fraction]]:
        """A degree-n cycle's class as sparse coefficients {i: c} on the
        representatives, in index order, or None for a non-cycle; the
        Coordinates over representatives and boundaries is built on first
        use."""
        if n not in self._classes:
            self._classes[n] = Coordinates(
                [self.space.to_vector(c, n) for c in
                 self.representatives.get(n, []) + self.boundaries.get(n, [])],
                self.space.dim(n))
        x = self._classes[n].coords(self.space.to_vector(elt, n))
        return None if x is None else {i: c for i, c in x.items() if i < self.dim(n)}

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def as_dict(self):
        return {str(n): self.dims[n] for n in self.degrees()}

    def __repr__(self):
        return "HomologyReport(%s)" % {n: self.dims[n] for n in self.degrees()}


def _kernel(span: RowSpace) -> list[dict[int, Fraction]]:
    """Basis of the right kernel of span's rows, one sparse vector per
    free column, in column order."""
    ker = {fc: {fc: ONE} for fc in range(span.ncols) if fc not in span._rows}
    for pc, row in span._rows.items():
        for j, x in row.items():
            if j in ker:
                ker[j][pc] = -x
    return list(ker.values())


def _cycles(d: GradedLinearMap, n: int) -> list[dict[int, Fraction]]:
    """Basis of the kernel of d on degree n: the rows of d_n reduced into a
    RowSpace, then one sparse vector per free column, in column order."""
    rows: dict[int, dict[int, Fraction]] = {}
    for j, col in enumerate(d.columns.get(n, ())):
        for i, x in col:
            rows.setdefault(i, {})[j] = x
    span = RowSpace(d.source.dim(n))
    for row in rows.values():
        span._add(row)
    return _kernel(span)


def homology(space: GradedVectorSpace, d: GradedLinearMap) -> HomologyReport:
    """Homology of the complex (space, d), d of shift -1, degreewise, on
    the sparse columns of d.  Cohomological objects are stored with degrees
    negated, so one sign discipline covers both conventions.

    The cycles are _cycles(d, n); the boundary basis is the reduced columns
    of d_{n+1}, and the representatives are the cycles that extend it,
    taken in order.  The two eliminations are independent, so that every
    boundary is a cycle (exactly dim ker - dim im representatives: d*d = 0
    in degree n + 1) is computed evidence, checked in each degree.
    """
    if d.shift != -1:
        raise ValueError("differential must have shift -1")
    dims: dict[int, int] = {}
    reps: dict[int, list[GradedElement]] = {}
    bnds: dict[int, list[GradedElement]] = {}
    for n in space.degrees():
        ker = _cycles(d, n)
        span = RowSpace(space.dim(n))
        for col in d.columns.get(n + 1, ()):
            span._add(dict(col))
        bnds[n] = [space.from_vector(span._rows[pc], n) for pc in span.pivots]
        chosen = [v for v in ker if span._add(v)]
        if len(chosen) != len(ker) - len(bnds[n]):
            raise CertificateFailure("boundaries are not all cycles in degree %d" % n)
        reps[n] = [space.from_vector(v, n) for v in chosen]
        dims[n] = len(chosen)
    return HomologyReport(space, dims, reps, bnds)


# ---------------------------------------------------------------------------
# idempotent splitting of a commutative algebra in degree 0
# ---------------------------------------------------------------------------

def _char_poly(m: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial coefficients [1, c1, ..., cn] of m
    (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [ONE]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [[sum(m[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
    return coeffs


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots (with the leading coefficient 1 convention kept
    general); exact, by the rational root theorem after clearing
    denominators."""
    while len(coeffs) > 1 and not coeffs[0]:
        coeffs = coeffs[1:]
    roots = set()
    # strip zero roots
    work = list(coeffs)
    while work and not work[-1]:
        roots.add(ZERO)
        work = work[:-1]
    if len(work) <= 1:
        return sorted(roots)
    from math import lcm
    den = 1
    for c in work:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in work]
    lead, const = ints[0], ints[-1]
    for p in _divisors(const):
        for q in _divisors(lead):
            for cand in (QQ(p, q), QQ(-p, q)):
                if cand in roots:
                    continue
                val = ZERO
                for c in ints:
                    val = val * cand + c
                if val == 0:
                    roots.add(cand)
    return sorted(roots)


def idempotents(a) -> list[dict[int, Fraction]]:
    """Orthogonal primitive idempotents of a split algebra, by simultaneous
    rational eigenspace splitting of the multiplication operators, as
    sparse coordinate vectors {i: c} in its basis, in index order, sorted
    by their coordinate lists.

    a is a commutative algebra concentrated in degree 0, a cdga such as the
    H^0 of cdga.cohomology_algebra: it is read through its degree-0 basis,
    a.multiply and a.unit.

    Raises NonSplitAlgebra when some multiplication operator has an
    irrational or non-semisimple spectrum, i.e. the algebra is not a finite
    product of copies of Q.
    """
    space = a.space
    n = space.dim(0)
    # subspaces as lists of basis elements
    subspaces = [space.basis_elements(0)]
    for eg in space.basis_elements(0):
        new_subspaces = []
        for v_basis in subspaces:
            k = len(v_basis)
            if k == 1:
                new_subspaces.append(v_basis)
                continue
            # restrict e_g* to the subspace: solve e_g*v_j = sum_i r_ij v_i
            in_basis = Coordinates([space.to_vector(v, 0) for v in v_basis], n)
            restr = []
            for vb in v_basis:
                coords = in_basis.coords(space.to_vector(a.multiply(eg, vb), 0))
                if coords is None:
                    raise NonSplitAlgebra("subspace not invariant")
                restr.append(coords)
            rmat = [[restr[j].get(i, ZERO) for j in range(k)] for i in range(k)]
            pieces = []
            for lam in _rational_roots(_char_poly(rmat)):
                shifted = RowSpace(k)
                for i in range(k):
                    shifted._add(_sparse([x - lam if i == j else x
                                          for j, x in enumerate(rmat[i])]))
                ker = _kernel(shifted)
                if ker:
                    pieces.append([linear_combination((c, v_basis[j]) for j, c in kv.items())
                                   for kv in ker])
            if sum(map(len, pieces)) != k:
                raise NonSplitAlgebra(
                    "multiplication operator has irrational or non-semisimple spectrum")
            new_subspaces.extend(pieces)
        subspaces = new_subspaces
    if any(len(v) != 1 for v in subspaces):
        raise NonSplitAlgebra("common eigenspaces are not one-dimensional")
    idems = []
    for (vec,) in subspaces:
        sq = a.multiply(vec, vec)
        # v*v = mu*v on a common eigenline; mu = 0 would mean a nilpotent line
        first = min(vec.coeffs, key=lambda key: space.index(*key))
        mu = sq.coeffs.get(first, ZERO) / vec.coeffs[first]
        if not mu:
            raise NonSplitAlgebra("nilpotent eigenline")
        if vec.scale(mu) != sq:
            raise NonSplitAlgebra("eigenline not multiplicatively closed")
        idems.append(vec.scale(1 / mu))
    # exact verification of the defining identities
    for i, e in enumerate(idems):
        if a.multiply(e, e) != e:
            raise NonSplitAlgebra("candidate idempotent fails e*e = e")
        if any(not a.multiply(e, f).is_zero() for f in idems[i + 1:]):
            raise NonSplitAlgebra("candidate idempotents not orthogonal")
    if linear_combination((ONE, e) for e in idems) != a.unit:
        raise NonSplitAlgebra("idempotents do not sum to the unit")
    vectors = [space.to_vector(e, 0) for e in idems]
    vectors.sort(key=lambda v: [v.get(t, ZERO) for t in range(n)])
    return [{t: v[t] for t in sorted(v)} for v in vectors]
