"""Exact rational linear algebra: graded vector spaces, sparse elements,
degree-shifting linear maps, chain complexes and their homology, the
core that dglas and cdgas share, and primitive idempotents of split finite
commutative algebras.

All arithmetic is fractions.Fraction; there is no floating point anywhere.
Linear maps are stored as sparse columns.  RowSpace, an incremental
reduced row echelon form on sparse rows, is the one row reducer: homology,
the weight cells of dglas and the quotient Lie algebras feed it sparse
vectors, and Coordinates, rref, rank, kernel_basis and solve_matrix read
dense vectors into it.  The reduced row echelon form is unique, so every
derived report is reproducible bit for bit.
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
# row reduction: dense matrices are lists of row lists of Fractions, read
# into the incremental RowSpace, which keeps sparse rows
# ---------------------------------------------------------------------------

def zeros(nrows: int, ncols: int) -> list[list[Fraction]]:
    return [[ZERO] * ncols for _ in range(nrows)]


def identity_matrix(n: int) -> list[list[Fraction]]:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for j in range(k):
            c = ai[j]
            if c:
                bj = b[j]
                for l in range(m):
                    if bj[l]:
                        oi[l] += c * bj[l]
    return out


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> list[Fraction]:
    out = []
    for row in a:
        s = ZERO
        for c, x in zip(row, v):
            if c and x:
                s += c * x
        out.append(s)
    return out


def rref(rows: Iterable[Sequence[Fraction]], ncols: int):
    """Reduced row echelon form of rows ncols wide: (nonzero reduced rows,
    pivot columns) in pivot order, read off a RowSpace.  The form is
    unique, so it is the leftmost-pivot Gauss-Jordan result."""
    span = RowSpace(ncols)
    for r in rows:
        span._add({j: x for j, x in enumerate(r) if x})
    return span.rows, span.pivots


def rank(rows: Iterable[Sequence[Fraction]], ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def kernel_basis(rows: Iterable[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column, in column order."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


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
    """Incrementally maintained subspace in reduced row echelon form.

    Sparse inside: each row is a {column: Fraction} dict of its nonzeros,
    keyed by its pivot; it is 1 at its pivot and 0 at every other pivot.
    So _reduce(v) subtracts only the rows whose pivots occur in v, at
    O(nnz(v) nnz(row)) cost, and _add rewrites only the rows nonzero at
    the new pivot.  Pivots lie in the first ncols columns; entries past
    them (as in Coordinates) are carried through every row operation.
    reduce and add are dense adapters over the two, for vectors of one
    width, used by Coordinates and the cdga sites; rows and pivots are
    read-only views in pivot order, rows as dense lists as wide as the
    widest vector added.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict[int, Fraction]] = {}
        self._width = ncols

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    @property
    def rows(self) -> list[list[Fraction]]:
        out = []
        for pc in self.pivots:
            v = [ZERO] * self._width
            for j, x in self._rows[pc].items():
                v[j] = x
            out.append(v)
        return out

    def _reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
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

    def _add(self, vec: dict[int, Fraction]) -> bool:
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

    def reduce(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """vec minus its components along the rows."""
        out = [ZERO] * len(vec)
        for j, x in self._reduce({j: x for j, x in enumerate(vec) if x}).items():
            out[j] = x
        return out

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Insert vec; True if it enlarged the span."""
        self._width = max(self._width, len(vec))
        return self._add({j: x for j, x in enumerate(vec) if x})

    def dim(self) -> int:
        return len(self._rows)


class Coordinates:
    """Coordinates in the span of a fixed list of vectors, reduced once.

    Each echelon row carries after its ncols entries minus the combination
    of the input vectors that produced it, so reducing v leaves its
    coordinates there.  A vector enters a row only when it is independent
    of those before it, so coords(v) is the solution with zero on every
    dependent vector: exactly solve_matrix on the matrix with these vectors
    as columns.
    """

    def __init__(self, vectors: Sequence[Sequence[Fraction]], ncols: int):
        self.m = len(vectors)
        self.span = RowSpace(ncols)
        for i, v in enumerate(vectors):
            tag = [ZERO] * self.m
            tag[i] = -ONE
            self.span.add(list(v) + tag)

    def coords(self, vec: Sequence[Fraction]) -> Optional[list[Fraction]]:
        """Coefficients on all input vectors, or None outside their span."""
        v = self.span.reduce(list(vec) + [ZERO] * self.m)
        if any(v[:self.span.ncols]):
            return None
        return v[self.span.ncols:]

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

    def to_vector(self, elt: "GradedElement", n: int) -> list[Fraction]:
        v = [ZERO] * self.dim(n)
        for (d, lab), c in elt.coeffs.items():
            if d != n:
                raise DegreeMismatch("element not concentrated in degree %d" % n)
            v[self.index(n, lab)] = c
        return v

    def from_vector(self, v: Sequence[Fraction], n: int) -> "GradedElement":
        labels = self.labels(n)
        return GradedElement({(n, labels[i]): c for i, c in enumerate(v) if c})


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
    n + shift, rows ascending and zeros never stored.  Degrees whose
    columns are all zero are absent.  apply, compose and is_zero work on
    the columns at O(nonzeros) cost; block(n) builds the dense matrix on
    demand.  The constructor takes dense blocks, one per source degree.
    """

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace,
                 shift: int, blocks: Optional[Mapping[int, Sequence[Sequence[Fraction]]]] = None):
        self.source = source
        self.target = target
        self.shift = shift
        self.columns: dict[int, list[list[tuple[int, Fraction]]]] = {}
        self._coordinates: dict[int, Coordinates] = {}
        if blocks:
            for n, b in blocks.items():
                b = [list(map(rational, row)) for row in b]
                if b and any(any(row) for row in b):
                    exp_rows = target.dim(n + shift)
                    exp_cols = source.dim(n)
                    if len(b) != exp_rows or any(len(r) != exp_cols for r in b):
                        raise ValueError("block %d has wrong shape" % n)
                    self.columns[n] = [[(i, row[j]) for i, row in enumerate(b) if row[j]]
                                       for j in range(exp_cols)]

    @classmethod
    def _of_columns(cls, source: GradedVectorSpace, target: GradedVectorSpace,
                    shift: int, columns: Mapping[int, list]) -> "GradedLinearMap":
        out = cls(source, target, shift)
        out.columns = {n: cols for n, cols in columns.items() if any(cols)}
        return out

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
        return cls._of_columns(source, target, shift, columns)

    def block(self, n: int) -> list[list[Fraction]]:
        """The dense matrix of degree n (a new list each call)."""
        b = zeros(self.target.dim(n + self.shift), self.source.dim(n))
        for j, col in enumerate(self.columns.get(n, ())):
            for i, c in col:
                b[i][j] = c
        return b

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
        return GradedLinearMap._of_columns(other.source, self.target,
                                           self.shift + other.shift, columns)

    def is_zero(self) -> bool:
        return not self.columns

    def solve(self, target_elt: GradedElement) -> Optional[GradedElement]:
        """Some preimage under the map, or None.  Deterministic: reduced row
        echelon with free variables pinned to zero (pivot-minimal)."""
        out: dict[tuple[int, str], Fraction] = {}
        for d in dict.fromkeys(d for d, _ in target_elt.coeffs):
            n = d - self.shift
            if n not in self._coordinates:
                self._coordinates[n] = Coordinates(list(zip(*self.block(n))),
                                                   self.target.dim(d))
            x = self._coordinates[n].coords(
                self.target.to_vector(target_elt.homogeneous_part(d), d))
            if x is None:
                return None
            # one source degree per target degree: the keys never collide
            out.update(self.source.from_vector(x, n).coeffs)
        return _element_of(out)


# ---------------------------------------------------------------------------
# chain complexes and homology
# ---------------------------------------------------------------------------

class ChainComplex:
    """Graded space with a differential of homological shift -1; d*d = 0 is
    checked on construction.  Cohomological objects are stored with degrees
    negated, so one sign discipline covers both conventions."""

    def __init__(self, space: GradedVectorSpace, differential: GradedLinearMap):
        if differential.shift != -1:
            raise ValueError("differential must have shift -1")
        self.space = space
        self.d = differential
        dd = differential.compose(differential)
        if not dd.is_zero():
            raise ValueError("d squared is nonzero")

    def homology(self) -> "HomologyReport":
        return homology(self)


class _DgAlgebra:
    """What dglas and cdgas share: a graded space, a differential of shift
    -1, and a product on basis pairs with one graded symmetry.

    product_fn(deg1, label1, deg2, label2) -> GradedElement is evaluated
    lazily with a cache, so large truncated quotients never materialize a
    full structure-constant table.  The differential is built from
    d_fn(n, label) -> GradedElement (None for the zero map) once the cache
    exists, so d_fn may multiply.  d*d = 0 is always checked; the
    subclass's verify_axioms runs when check is "full", or "auto" with at
    most _TRIPLE_CAP basis elements.

    A subclass sets _SIGN (v*u = _SIGN (-1)^{|u||v|} u*v: -1 for a Lie
    bracket, +1 for a commutative product), _SYMMETRY (the name of that
    axiom), _VIOLATION (the exception a failed axiom raises) and
    _TRIPLE_CAP, and names the product under its own public aliases.  The
    class and its product methods are underscored because perfbench's
    tracer times every call of a public name in a span of its own.
    """

    def __init__(self, space: GradedVectorSpace,
                 d_fn: Optional[Callable[[int, str], GradedElement]],
                 product_fn: Callable[[int, str, int, str], GradedElement],
                 check: str = "auto"):
        self.space = space
        self._product_fn = product_fn
        self._products: dict[tuple[str, str], GradedElement] = {}
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
                _add_scaled(out, self._product_labels(d1, l1, d2, l2), c1 * c2)
        return _element_of(out)

    def element(self, label: str) -> GradedElement:
        for n in self.space.degrees():
            if self.space.has(n, label):
                return self.space.basis_element(n, label)
        raise KeyError(label)

    def homology(self) -> "HomologyReport":
        return homology(ChainComplex(self.space, self.d_map))

    def total_dim(self) -> int:
        return self.space.total_dim()

    def _check_pairs(self, items: list[tuple[int, str]]):
        """The graded symmetry and the Leibniz rule on every ordered pair
        of basis elements."""
        for (d1, l1), (d2, l2) in itertools.product(items, repeat=2):
            uv = self._product_labels(d1, l1, d2, l2)
            vu = self._product_labels(d2, l2, d1, l1)
            if not (uv - vu.scale(self._mirror_sign(d2, d1))).is_zero():
                raise self._VIOLATION("%s fails on (%s, %s)" % (self._SYMMETRY, l1, l2))
            u = self.space.basis_element(d1, l1)
            v = self.space.basis_element(d2, l2)
            lhs = self.d(uv)
            rhs = self._product(self.d(u), v) + \
                self._product(u, self.d(v)).scale(-ONE if d1 % 2 else ONE)
            if not (lhs - rhs).is_zero():
                raise self._VIOLATION("Leibniz fails on (%s, %s)" % (l1, l2))


class HomologyReport:
    """Per-degree homology data: dimension, representative cycles whose
    classes form a basis, and a basis of the boundary space."""

    def __init__(self, dims: dict[int, int],
                 representatives: dict[int, list[GradedElement]],
                 boundaries: dict[int, list[GradedElement]],
                 cycle_dims: dict[int, int]):
        self.dims = dims
        self.representatives = representatives
        self.boundaries = boundaries
        self.cycle_dims = cycle_dims

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

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


def homology(c: ChainComplex) -> HomologyReport:
    """Homology of a chain complex, degreewise, on the sparse columns of d.

    The cycles are the kernel of the reduced rows of d_n; the boundary
    basis is the reduced columns of d_{n+1}, and the representatives are
    the cycles that extend it, taken in order.  The two eliminations are
    independent, so that every boundary is a cycle (exactly dim ker -
    dim im representatives) is computed evidence, checked in each degree.
    """
    space, d = c.space, c.d
    dims: dict[int, int] = {}
    reps: dict[int, list[GradedElement]] = {}
    bnds: dict[int, list[GradedElement]] = {}
    cycle_dims: dict[int, int] = {}
    for n in space.degrees():
        labels = space.labels(n)

        def element(vec: dict[int, Fraction]) -> GradedElement:
            return _element_of({(n, labels[j]): x for j, x in sorted(vec.items())})

        rows: dict[int, dict[int, Fraction]] = {}
        for j, col in enumerate(d.columns.get(n, ())):
            for i, x in col:
                rows.setdefault(i, {})[j] = x
        cycles = RowSpace(len(labels))
        for row in rows.values():
            cycles._add(row)
        ker = _kernel(cycles)
        span = RowSpace(len(labels))
        for col in d.columns.get(n + 1, ()):
            span._add(dict(col))
        bnds[n] = [element(span._rows[pc]) for pc in span.pivots]
        chosen = [v for v in ker if span._add(v)]
        if len(chosen) != len(ker) - len(bnds[n]):
            raise CertificateFailure("boundaries are not all cycles in degree %d" % n)
        reps[n] = [element(v) for v in chosen]
        dims[n] = len(chosen)
        cycle_dims[n] = len(ker)
    return HomologyReport(dims, reps, bnds, cycle_dims)


# ---------------------------------------------------------------------------
# finite commutative algebras and idempotent splitting
# ---------------------------------------------------------------------------

class FiniteCommutativeAlgebra:
    """Finite-dimensional commutative associative unital algebra over Q.

    table[(i, j)] is the coefficient vector of e_i * e_j; unit is a
    coefficient vector.  Commutativity, associativity and unitality are
    checked on construction.
    """

    def __init__(self, labels: Sequence[str], table: Mapping[tuple[int, int], Sequence[Fraction]],
                 unit: Sequence[Fraction]):
        self.labels = list(labels)
        n = len(self.labels)
        self.n = n
        self.table = {}
        for i in range(n):
            for j in range(n):
                v = table.get((i, j))
                if v is None:
                    v = table.get((j, i))
                if v is None:
                    v = [ZERO] * n
                self.table[(i, j)] = [rational(x) for x in v]
        self.unit = [rational(x) for x in unit]
        self._check()

    def _check(self):
        n = self.n
        for i in range(n):
            for j in range(i, n):
                if self.table[(i, j)] != self.table[(j, i)]:
                    raise ValueError("multiplication table not commutative")
        for i in range(n):
            ei = [ONE if k == i else ZERO for k in range(n)]
            if self.multiply(self.unit, ei) != ei:
                raise ValueError("unit fails on basis element %d" % i)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ei = [ONE if t == i else ZERO for t in range(n)]
                    ej = [ONE if t == j else ZERO for t in range(n)]
                    ek = [ONE if t == k else ZERO for t in range(n)]
                    left = self.multiply(self.multiply(ei, ej), ek)
                    right = self.multiply(ei, self.multiply(ej, ek))
                    if left != right:
                        raise ValueError("multiplication not associative")

    def multiply(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        n = self.n
        out = [ZERO] * n
        for i in range(n):
            if not u[i]:
                continue
            for j in range(n):
                if not v[j]:
                    continue
                c = u[i] * v[j]
                tij = self.table[(i, j)]
                for k in range(n):
                    if tij[k]:
                        out[k] += c * tij[k]
        return out

    def mult_operator(self, u: Sequence[Fraction]) -> list[list[Fraction]]:
        """Matrix of multiplication by u in the given basis."""
        n = self.n
        cols = []
        for j in range(n):
            ej = [ONE if t == j else ZERO for t in range(n)]
            cols.append(self.multiply(u, ej))
        return [[cols[j][i] for j in range(n)] for i in range(n)]


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
        mk = mat_mul(m, mk)
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


def idempotents(a: FiniteCommutativeAlgebra) -> list[list[Fraction]]:
    """Orthogonal primitive idempotents of a split algebra, by simultaneous
    rational eigenspace splitting of the multiplication operators.

    Raises NonSplitAlgebra when some multiplication operator has an
    irrational or non-semisimple spectrum, i.e. the algebra is not a finite
    product of copies of Q.
    """
    n = a.n
    # subspaces as lists of coordinate vectors
    subspaces: list[list[list[Fraction]]] = [identity_matrix(n)]
    for g in range(n):
        eg = [ONE if t == g else ZERO for t in range(n)]
        mg = a.mult_operator(eg)
        new_subspaces = []
        for v_basis in subspaces:
            k = len(v_basis)
            if k == 1:
                new_subspaces.append(v_basis)
                continue
            # restrict mg to the subspace: solve mg*v_i = sum_j r_ji v_j
            in_basis = Coordinates(v_basis, n)
            restr = []
            for vb in v_basis:
                coords = in_basis.coords(mat_vec(mg, vb))
                if coords is None:
                    raise NonSplitAlgebra("subspace not invariant")
                restr.append(coords)
            # columns of the restricted operator
            rmat = [[restr[j][i] for j in range(k)] for i in range(k)]
            cp = _char_poly(rmat)
            roots = _rational_roots(cp)
            pieces = []
            total = 0
            for lam in roots:
                shifted = [[rmat[i][j] - (lam if i == j else ZERO) for j in range(k)]
                           for i in range(k)]
                ker = kernel_basis(shifted, k)
                if not ker:
                    continue
                total += len(ker)
                piece = []
                for kv in ker:
                    vec = [ZERO] * n
                    for j, c in enumerate(kv):
                        if c:
                            for t in range(n):
                                vec[t] += c * v_basis[j][t]
                    piece.append(vec)
                pieces.append(piece)
            if total != k:
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
        mu = None
        for i in range(n):
            if vec[i]:
                mu = sq[i] / vec[i]
                break
        if not mu:
            raise NonSplitAlgebra("nilpotent eigenline")
        if [mu * x for x in vec] != sq:
            raise NonSplitAlgebra("eigenline not multiplicatively closed")
        idems.append([x / mu for x in vec])
    # exact verification of the defining identities
    for i, e in enumerate(idems):
        if a.multiply(e, e) != e:
            raise NonSplitAlgebra("candidate idempotent fails e*e = e")
        for j in range(i + 1, len(idems)):
            if any(a.multiply(e, idems[j])):
                raise NonSplitAlgebra("candidate idempotents not orthogonal")
    s = [ZERO] * n
    for e in idems:
        for t in range(n):
            s[t] += e[t]
    if s != a.unit:
        raise NonSplitAlgebra("idempotents do not sum to the unit")
    idems.sort()
    return idems
