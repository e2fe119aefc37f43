"""Free graded Lie algebras on finite generator sets, truncated at bracket
weight, with a canonical super-Lyndon basis.

Basis elements are standard bracketings of Lyndon words on the generator
alphabet (ordered by declaration), together with squares [u,u] of basis
brackets u of odd total degree.  Bracket expansion goes through the tensor
algebra: the expansion of a basis bracket is triangular with smallest word
its Lyndon word (coefficient 1, or 2 for squares), so a greedy elimination
rewrites any Lie element back into the basis.  Everything above the weight
bound is truncated away, realizing the quotient by the corresponding term
of the lower central series.  A presented quotient (QuotientLie) carries
its own free differential, checked on construction to descend to the
truncation and to the quotient.

The Lyndon basis is a Z-basis of the free Lie ring, so tensor expansions
and the bracket's commutators and eliminations run on Python ints; only a
square's halving can leave the integers (Fraction(c, 2) for odd c).  A
coefficient becomes a Fraction once, when its GradedElement is built.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .linalg import (
    ONE,
    ZERO,
    GradedElement,
    GradedVectorSpace,
    RowSpace,
    _add_scaled,
    _element_of,
)

Tree = object  # int leaf or (Tree, Tree) pair
Word = tuple  # tuple of generator indices


# the most basis elements a truncated free Lie algebra or a truncated free
# cdga may have; one more raises TruncationTooLarge, a resource cap (exit 3)
BASIS_SIZE_CAP = 20000


class TruncationTooLarge(Exception):
    """The requested truncated basis exceeds BASIS_SIZE_CAP."""


class NotLieElement(Exception):
    """A tensor-algebra element failed to rewrite into the Lyndon basis."""


class InvalidDifferential(Exception):
    """Generator differentials are incompatible with the weight truncation
    or fail d*d = 0."""


class InvalidPresentation(Exception):
    """Relations or differentials of a presentation are inconsistent."""


def lyndon_words(k: int, maxlen: int):
    """All Lyndon words on {0..k-1} of length <= maxlen, lexicographic
    (Duval's algorithm)."""
    if k == 0 or maxlen == 0:
        return
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < maxlen:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()


def foliage(tree) -> Word:
    if isinstance(tree, int):
        return (tree,)
    return foliage(tree[0]) + foliage(tree[1])


def _commutator(a: Mapping[Word, int], b: Mapping[Word, int],
                odd: int) -> dict[Word, int]:
    """ab - (-1)^odd ba in the tensor algebra; cancelled words stay, as 0."""
    rsign = 1 if odd else -1
    out: dict[Word, int] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            c = c1 * c2
            w = w1 + w2
            out[w] = out.get(w, 0) + c
            wr = w2 + w1
            out[wr] = out.get(wr, 0) + rsign * c
    return out


class FreeLieTruncation:
    """Free graded Lie algebra on named generators, modulo brackets of
    weight above m.

    generators: sequence of (name, degree) or (name, degree, weight);
    weights default to 1 and give the grading by which the algebra is
    truncated (bracket weight when all weights are 1).
    """

    def __init__(self, generators: Sequence[tuple], m: int):
        if m < 1:
            raise ValueError("weight bound must be >= 1")
        self.m = m
        self.gen_names: list[str] = []
        self.gen_degrees: list[int] = []
        self.gen_weights: list[int] = []
        for g in generators:
            if len(g) == 2:
                name, degree = g
                weight = 1
            else:
                name, degree, weight = g
            if name in self.gen_names:
                raise ValueError("duplicate generator %r" % name)
            if weight < 1:
                raise ValueError("generator weights must be >= 1")
            self.gen_names.append(str(name))
            self.gen_degrees.append(int(degree))
            self.gen_weights.append(int(weight))
        self.gen_index = {n: i for i, n in enumerate(self.gen_names)}

        self._wd_cache: dict = {}
        self._build_basis()
        self._expand_cache: dict = {}
        self._bracket_cache: dict[tuple[str, str], GradedElement] = {}

    # -- basis ------------------------------------------------------------

    def word_weight(self, w: Word) -> int:
        return sum(self.gen_weights[i] for i in w)

    def word_degree(self, w: Word) -> int:
        return sum(self.gen_degrees[i] for i in w)

    def _weight_degree(self, tree) -> tuple[int, int]:
        """(weight, degree) of a tree, memoized per tree."""
        wd = self._wd_cache.get(tree)
        if wd is None:
            if isinstance(tree, int):
                wd = (self.gen_weights[tree], self.gen_degrees[tree])
            else:
                w1, d1 = self._weight_degree(tree[0])
                w2, d2 = self._weight_degree(tree[1])
                wd = (w1 + w2, d1 + d2)
            self._wd_cache[tree] = wd
        return wd

    def tree_weight(self, tree) -> int:
        return self._weight_degree(tree)[0]

    def tree_degree(self, tree) -> int:
        return self._weight_degree(tree)[1]

    def _standard_tree(self, w: Word):
        """Standard (right) bracketing of a Lyndon word."""
        if len(w) == 1:
            return w[0]
        # longest proper Lyndon suffix
        for start in range(1, len(w)):
            if w[start:] in self._lyndon_set:
                return (self._standard_tree(w[:start]), self._standard_tree(w[start:]))
        raise AssertionError("no Lyndon suffix found for %r" % (w,))

    def _build_basis(self):
        k = len(self.gen_names)
        words = []
        for w in lyndon_words(k, self.m):
            if self.word_weight(w) <= self.m:
                words.append(w)
                if len(words) > BASIS_SIZE_CAP:
                    raise TruncationTooLarge(
                        "basis exceeds the size cap %d" % BASIS_SIZE_CAP)
        self._lyndon_set = set(words)
        self.tree_of_word: dict[Word, object] = {}
        trees = []
        for w in sorted(words):
            t = self._standard_tree(w)
            self.tree_of_word[w] = t
            trees.append(t)
        # odd squares [u,u]
        self._square_words = {}
        for w in sorted(words):
            t = self.tree_of_word[w]
            if self.tree_degree(t) % 2 == 1 and 2 * self.word_weight(w) <= self.m:
                trees.append((t, t))
                self._square_words[w + w] = (t, t)
        if len(trees) > BASIS_SIZE_CAP:
            raise TruncationTooLarge(
                "basis would have %d elements (cap %d)" % (len(trees), BASIS_SIZE_CAP))
        self.label_of_tree: dict = {}
        self.tree_of_label: dict[str, object] = {}
        basis: dict[int, list[str]] = {}
        self.weight_of_label: dict[str, int] = {}
        for t in sorted(trees, key=lambda t: (self._weight_degree(t), foliage(t))):
            w, d = self._weight_degree(t)
            lab = self.format_tree(t)
            self.label_of_tree[t] = lab
            self.tree_of_label[lab] = t
            basis.setdefault(d, []).append(lab)
            self.weight_of_label[lab] = w
        self.space = GradedVectorSpace(basis)

    def format_tree(self, tree) -> str:
        if isinstance(tree, int):
            return self.gen_names[tree]
        return "[%s,%s]" % (self.format_tree(tree[0]), self.format_tree(tree[1]))

    def generator(self, name: str) -> GradedElement:
        i = self.gen_index[name]
        return GradedElement({(self.gen_degrees[i], self.gen_names[i]): ONE})

    def element_of_tree(self, tree) -> GradedElement:
        return GradedElement({(self.tree_degree(tree), self.label_of_tree[tree]): ONE})

    def dims(self) -> dict[tuple[int, int], int]:
        """Per-(weight, degree) basis dimensions."""
        return dict(sorted(Counter((self.weight_of_label[lab], d)
                                   for d in self.space.degrees()
                                   for lab in self.space.labels(d)).items()))

    # -- tensor algebra expansion and rewriting ---------------------------

    def tensor_expand(self, tree) -> dict[Word, int]:
        """Expansion in the tensor algebra, [a,b] = ab - (-1)^{|a||b|} ba,
        with int coefficients."""
        cached = self._expand_cache.get(tree)
        if cached is not None:
            return cached
        if isinstance(tree, int):
            out = {(tree,): 1}
        else:
            t1, t2 = tree
            comm = _commutator(self.tensor_expand(t1), self.tensor_expand(t2),
                               (self.tree_degree(t1) * self.tree_degree(t2)) % 2)
            out = {w: c for w, c in comm.items() if c}
        self._expand_cache[tree] = out
        return out

    def rewrite_tensor(self, tensor: Mapping[Word, int | Fraction]) -> GradedElement:
        """Rewrite a Lie element of the tensor algebra into the basis.

        Greedy triangular elimination on the lexicographically smallest
        word; raises NotLieElement if the input is not in the span.  Int
        coefficients stay ints except where a square halves an odd one.
        """
        work = {w: c for w, c in tensor.items() if c}
        out: dict[tuple[int, str], int | Fraction] = {}
        while work:
            s = min(work)
            c = work[s]
            if s in self._lyndon_set:
                tree = self.tree_of_word[s]
                coeff = c
            else:
                half = len(s) // 2
                if len(s) % 2 == 0 and s[:half] == s[half:] and s in self._square_words:
                    tree = self._square_words[s]
                    coeff = c // 2 if type(c) is int and c % 2 == 0 else Fraction(c, 2)
                else:
                    raise NotLieElement("smallest word %r is not super-Lyndon" % (s,))
            key = (self.tree_degree(tree), self.label_of_tree[tree])
            out[key] = out.get(key, 0) + coeff
            for w, cc in self.tensor_expand(tree).items():
                v = work.get(w, 0) - coeff * cc
                if v:
                    work[w] = v
                else:
                    work.pop(w, None)
        return GradedElement(out)

    def tensor_of_element(self, elt: GradedElement) -> dict[Word, Fraction]:
        out: dict[Word, Fraction] = {}
        for (d, lab), c in elt.coeffs.items():
            for w, cc in self.tensor_expand(self.tree_of_label[lab]).items():
                v = out.get(w, ZERO) + c * cc
                if v:
                    out[w] = v
                else:
                    out.pop(w, None)
        return out

    # -- bracket -----------------------------------------------------------

    def bracket_labels(self, lab1: str, lab2: str) -> GradedElement:
        key = (lab1, lab2)
        cached = self._bracket_cache.get(key)
        if cached is not None:
            return cached
        t1 = self.tree_of_label[lab1]
        t2 = self.tree_of_label[lab2]
        w1, d1 = self._weight_degree(t1)
        w2, d2 = self._weight_degree(t2)
        if w1 + w2 > self.m:
            res = GradedElement()
        else:
            res = self.rewrite_tensor(_commutator(
                self.tensor_expand(t1), self.tensor_expand(t2), (d1 * d2) % 2))
        self._bracket_cache[key] = res
        # antisymmetry gives the mirrored pair for free
        msign = -ONE if (d1 * d2) % 2 == 0 else ONE
        self._bracket_cache.setdefault((lab2, lab1), res.scale(msign))
        return res

    def bracket(self, u: GradedElement, v: GradedElement) -> GradedElement:
        out: dict = {}
        for (d1, l1), c1 in u.coeffs.items():
            for (d2, l2), c2 in v.coeffs.items():
                _add_scaled(out, self.bracket_labels(l1, l2), c1 * c2)
        return _element_of(out)


# ---------------------------------------------------------------------------
# presentations and truncated quotients
# ---------------------------------------------------------------------------

class LiePresentation:
    """Finitely presented dgla: free generators, homogeneous relation
    elements (coordinates in the super-Lyndon basis, valid in any
    sufficiently deep truncation), and generator differentials."""

    def __init__(self, generators: Sequence[tuple],
                 relations: Sequence[GradedElement] = (),
                 dgens: Optional[Mapping[str, GradedElement]] = None):
        self.generators = [tuple(g) if len(g) == 3 else (g[0], g[1], 1)
                           for g in generators]
        self.relations = list(relations)
        self.dgens = dict(dgens or {})
        for r in self.relations:
            r.degree()  # homogeneity check

    def materialize(self, m: int) -> "QuotientLie":
        return QuotientLie(self, m)

    def relation_weights(self) -> list[Optional[int]]:
        """The weight of each relation, read off the generators in its
        terms' labels: 0 for a zero relation, None for one whose terms
        differ in weight or have a label that does not parse."""
        gen_weight = {name: w for name, _, w in self.generators}
        out = []
        for r in self.relations:
            ws = {_label_weight(lab, gen_weight) for _, lab in r.coeffs}
            out.append(ws.pop() if len(ws) == 1 else (0 if not ws else None))
        return out


def _label_weight(label: str, gen_weight: Mapping[str, int]) -> Optional[int]:
    """Weight of a label as FreeLieTruncation.format_tree writes it: a
    generator's own weight, else the sum over the two halves of "[u,v]"
    split at its top-level comma; None when the label does not parse."""
    w = gen_weight.get(label)
    if w is not None or not (label.startswith("[") and label.endswith("]")):
        return w
    depth = 0
    for i in range(1, len(label) - 1):
        if label[i] == "[":
            depth += 1
        elif label[i] == "]":
            depth -= 1
        elif label[i] == "," and depth == 0:
            left = _label_weight(label[1:i], gen_weight)
            right = _label_weight(label[i + 1:-1], gen_weight)
            return None if left is None or right is None else left + right
    return None


class QuotientLie:
    """Weight-m truncation of a presented dgla: the quotient of the
    truncated free algebra by the saturated ideal of the relations.

    The quotient basis consists of the non-pivot free basis labels under a
    deterministic weight-then-label elimination order, so each basis label
    carries a weight witness and brackets remain weight-filtered.  The
    differential is the presentation's, extended from the generators to
    the free algebra by the graded Leibniz rule and projected.
    """

    def __init__(self, presentation: LiePresentation, m: int):
        self.presentation = presentation
        self.m = m
        self.free = FreeLieTruncation(presentation.generators, m)
        lie = self.free

        # column order per degree: (weight, label)
        self._columns: dict[int, list[str]] = {}
        self._colindex: dict[int, dict[str, int]] = {}
        for deg in lie.space.degrees():
            labs = sorted(lie.space.labels(deg),
                          key=lambda l: (lie.weight_of_label[l], l))
            self._columns[deg] = labs
            self._colindex[deg] = {l: i for i, l in enumerate(labs)}

        self._ideal: dict[int, RowSpace] = {
            deg: RowSpace(len(cols)) for deg, cols in self._columns.items()}
        self._saturate()

        basis: dict[int, list[str]] = {}
        self.weight_of_label: dict[str, int] = {}
        for deg in sorted(self._columns):
            cols = self._columns[deg]
            pivot_set = set(self._ideal[deg].pivots)
            keep = [lab for i, lab in enumerate(cols) if i not in pivot_set]
            if keep:
                basis[deg] = keep
                for lab in keep:
                    self.weight_of_label[lab] = lie.weight_of_label[lab]
        self.space = GradedVectorSpace(basis)

        self._dgens = {name: presentation.dgens.get(name, GradedElement())
                       for name in lie.gen_names}
        self._d_cache: dict[str, GradedElement] = {}
        self._check_differential()

    # free-side vectors ----------------------------------------------------

    def _to_vecs(self, elt: GradedElement) -> dict[int, dict[int, Fraction]]:
        """elt as one sparse {column: coefficient} vector per degree."""
        vecs: dict[int, dict[int, Fraction]] = {}
        for (d, lab), c in elt.coeffs.items():
            vecs.setdefault(d, {})[self._colindex[d][lab]] = c
        return vecs

    def _from_vec(self, v: Mapping[int, Fraction], deg: int) -> dict:
        """The terms of a sparse vector of degree deg, in column order."""
        cols = self._columns[deg]
        return {(deg, cols[i]): v[i] for i in sorted(v)}

    def _saturate(self):
        lie = self.free
        for r in self.presentation.relations:
            for _, lab in r.coeffs:
                if lab not in lie.weight_of_label:
                    raise InvalidPresentation(
                        "a relation has the term %s, beyond the weight-%d truncation"
                        % (lab, self.m))
        # relations and brackets of homogeneous elements are homogeneous
        queue = [r for r in self.presentation.relations
                 if any(self._ideal[d]._add(v) for d, v in self._to_vecs(r).items())]
        # closing under ad of the generators closes under the whole algebra
        gens = [lie.generator(n) for n in lie.gen_names]
        while queue:
            elt = queue.pop()
            for g in gens:
                nxt = lie.bracket(g, elt)
                if any(self._ideal[d]._add(v) for d, v in self._to_vecs(nxt).items()):
                    queue.append(nxt)

    def project(self, elt: GradedElement) -> GradedElement:
        """Image in the quotient, coordinates on the surviving labels."""
        out: dict = {}
        vecs = self._to_vecs(elt)
        for deg in sorted(vecs):
            # one block of keys per degree: the keys never collide
            out.update(self._from_vec(self._ideal[deg]._reduce(vecs[deg]), deg))
        return _element_of(out)

    # the free differential: given on generators, extended by the graded
    # Leibniz rule ------------------------------------------------------------

    def _free_d_label(self, lab: str) -> GradedElement:
        cached = self._d_cache.get(lab)
        if cached is not None:
            return cached
        lie = self.free
        tree = lie.tree_of_label[lab]
        if isinstance(tree, int):
            res = self._dgens[lie.gen_names[tree]]
        else:
            t1, t2 = tree
            e1, e2 = lie.element_of_tree(t1), lie.element_of_tree(t2)
            sgn = -ONE if lie.tree_degree(t1) % 2 else ONE
            res = lie.bracket(self._free_d_label(lie.label_of_tree[t1]), e2) + \
                lie.bracket(e1, self._free_d_label(lie.label_of_tree[t2])).scale(sgn)
        self._d_cache[lab] = res
        return res

    def _free_d(self, elt: GradedElement) -> GradedElement:
        out: dict = {}
        for (deg, lab), c in elt.coeffs.items():
            _add_scaled(out, self._free_d_label(lab), c)
        return _element_of(out)

    def _check_differential(self):
        """d descends to the truncated quotient: on each generator it has
        degree one less, stays within the truncation and does not lower
        weight; d*d vanishes on generators, so by the Leibniz rule
        everywhere; and d keeps the relation ideal."""
        lie = self.free
        for i, name in enumerate(lie.gen_names):
            deg = lie.gen_degrees[i]
            for (d, lab), _ in self._dgens[name].coeffs.items():
                if d != deg - 1:
                    raise InvalidDifferential("d(%s) must be homogeneous of degree %d"
                                              % (name, deg - 1))
                if lab not in lie.weight_of_label:
                    raise InvalidDifferential(
                        "d(%s) has the term %s, beyond the weight-%d truncation"
                        % (name, lab, lie.m))
                if lie.weight_of_label[lab] < lie.gen_weights[i]:
                    raise InvalidDifferential(
                        "d(%s) lowers weight; truncation would not be a dg quotient" % name)
        for name in lie.gen_names:
            dd = self._free_d(self._dgens[name])
            if not dd.is_zero():
                raise InvalidDifferential("d(d(%s)) = %r is nonzero" % (name, dd))
        for deg, rs in self._ideal.items():
            for row in rs._rows.values():
                img = self._free_d(_element_of(self._from_vec(row, deg)))
                if not self.project(img).is_zero():
                    raise InvalidPresentation(
                        "differential does not preserve the relation ideal")

    # quotient operations, uncached: the Dgla built on a quotient caches its
    # brackets and builds its differential once -----------------------------

    def bracket_labels(self, lab1: str, lab2: str) -> GradedElement:
        return self.project(self.free.bracket_labels(lab1, lab2))

    def d_label(self, lab: str) -> GradedElement:
        return self.project(self._free_d_label(lab))


# ---------------------------------------------------------------------------
# truncated tensor-algebra exponentials (gauge and BCH checks)
# ---------------------------------------------------------------------------

def tensor_product(a: Mapping[Word, Fraction], b: Mapping[Word, Fraction],
                   lie: FreeLieTruncation, max_weight: int) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            if lie.word_weight(w) > max_weight:
                continue
            v = out.get(w, ZERO) + c1 * c2
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def tensor_exp(a: Mapping[Word, Fraction], lie: FreeLieTruncation,
               max_weight: int) -> dict[Word, Fraction]:
    """exp of a weight >= 1 element in the truncated tensor algebra."""
    out: dict[Word, Fraction] = {(): ONE}
    term: dict[Word, Fraction] = {(): ONE}
    k = 0
    while term:
        k += 1
        term = tensor_product(term, a, lie, max_weight)
        term = {w: c / k for w, c in term.items()}
        for w, c in term.items():
            v = out.get(w, ZERO) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        if k > max_weight:
            break
    return out


def tensor_log(a: Mapping[Word, Fraction], lie: FreeLieTruncation,
               max_weight: int) -> dict[Word, Fraction]:
    """log of 1 + nilpotent in the truncated tensor algebra."""
    n = dict(a)
    if n.get((), ZERO) != ONE:
        raise ValueError("log requires constant term 1")
    n.pop(())
    out: dict[Word, Fraction] = {}
    term: dict[Word, Fraction] = {(): ONE}
    k = 0
    while True:
        k += 1
        term = tensor_product(term, n, lie, max_weight)
        if not term or k > max_weight:
            break
        sign = ONE if k % 2 == 1 else -ONE
        for w, c in term.items():
            v = out.get(w, ZERO) + sign * c / k
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def bch(lie: FreeLieTruncation, a: GradedElement, b: GradedElement) -> GradedElement:
    """Baker-Campbell-Hausdorff product log(exp a * exp b) within the
    truncation, rewritten into the basis."""
    ta = lie.tensor_of_element(a)
    tb = lie.tensor_of_element(b)
    prod = tensor_product(tensor_exp(ta, lie, lie.m), tensor_exp(tb, lie, lie.m),
                          lie, lie.m)
    return lie.rewrite_tensor(tensor_log(prod, lie, lie.m))


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------

def build_basis(generators: Sequence[tuple], m: int) -> FreeLieTruncation:
    """Truncated free graded Lie algebra on the given generators."""
    return FreeLieTruncation(generators, m)


def truncated_basis_estimate(generators: Sequence[tuple], m: int,
                             cap: int) -> Optional[int]:
    """Number of Lyndon words of weight <= m over the generators, or None
    once the count exceeds cap; cheap (no trees or expansions built)."""
    weights = [g[2] if len(g) == 3 else 1 for g in generators]
    count = 0
    for w in lyndon_words(len(weights), m):
        if sum(weights[i] for i in w) <= m:
            count += 1
            if count > cap:
                return None
    return count


def free_product_presentation(first: LiePresentation,
                              second: LiePresentation) -> LiePresentation:
    """Presentation of the free product: disjoint generators, the union of
    the relations, no cross relations."""
    names = {g[0] for g in first.generators}
    for g in second.generators:
        if g[0] in names:
            raise ValueError("generator name clash in free product: %r" % (g[0],))
    return LiePresentation(first.generators + second.generators,
                           first.relations + second.relations,
                           {**first.dgens, **second.dgens})
