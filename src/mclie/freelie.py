"""Free graded Lie algebras on finite generator sets, truncated at bracket
weight, with a canonical super-Lyndon basis.

Basis elements are standard bracketings of Lyndon words on the generator
alphabet (ordered by declaration), together with squares [u,u] of basis
brackets u of odd total degree.  Lyndon words with their standard
factorization form a Hall set (Reutenauer, Free Lie Algebras, 1993,
ch. 4-5), so the bracket of two basis trees rewrites into the basis by
antisymmetry and the Jacobi identity alone, on Python ints: the Lyndon
basis is a Z-basis of the free Lie ring, and a coefficient becomes a
Fraction once, when its GradedElement is built.  A basis tree is an int
id, with tables of its children, weight, degree and label, so the
rewriting and its memo run on ints.  Everything above the weight bound is
truncated away, realizing the quotient by the corresponding term of the
lower central series.

A presented quotient (QuotientLie) holds a free element in one form,
{tree id: coefficient}, and works on it through the same Hall brackets:
it saturates the relation ideal, bracketing with the generators what the
ideal leaves of each element that enlarges it; it projects onto the
quotient; and it extends its free differential by the Leibniz rule,
checked on construction to descend to the truncation and to the quotient,
into the dgla's sparse int columns over one denominator.

The expansion of a basis bracket in the tensor algebra is triangular with
smallest word its Lyndon word, so a greedy elimination rewrites a Lie
element of the tensor algebra into the basis.  tensor_expand and
rewrite_tensor do that on ints, off the bracket path; the tests'
tensor-algebra oracles (BCH, the embedding of a Lie element) run on them.

This module alone writes and reads a label, a generator's name or "[u,v]"
for the bracket of the trees labelled u and v (_tree_label, _label_tree,
on trees of nested pairs of generator indices), and a generator list of
(name, degree[, weight]) tuples (_read_generators).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .linalg import (
    ONE,
    GradedElement,
    GradedLinearMap,
    GradedVectorSpace,
    McLieError,
    RowSpace,
    _accumulate,
    _element_of,
)

Word = tuple  # tuple of generator indices


# the most basis elements a truncated free Lie algebra or a truncated free
# cdga may have; one more raises TruncationTooLarge, a resource cap (exit 3)
BASIS_SIZE_CAP = 20000


class TruncationTooLarge(McLieError):
    """The requested truncated basis exceeds BASIS_SIZE_CAP."""

    exit_code = 3
    prefix = "resource cap"


class NotLieElement(McLieError):
    """A tensor-algebra element failed to rewrite into the Lyndon basis."""


class InvalidDifferential(McLieError):
    """Generator differentials are off degree, incompatible with the weight
    truncation, or fail d*d = 0."""

    exit_code = 2


class InvalidPresentation(McLieError):
    """Generators, weight bound, relations or differentials of a
    presentation are malformed or inconsistent."""

    exit_code = 2


def lyndon_words(weights: Sequence[int], m: int):
    """The Lyndon words on {0..k-1}, k = len(weights), of weight at most m,
    in lexicographic order: Duval's walk (Theoret. Comput. Sci. 60, 1988),
    pruned.  A word over m is not extended: every word the walk reaches
    before the next one of no greater length extends it."""
    if not weights:
        return
    k, maxlen = len(weights), m // min(weights)
    w, wt = [0], weights[0]
    while True:
        if wt <= m:
            yield tuple(w)
            n = len(w)
            while len(w) < maxlen:
                w.append(w[len(w) - n])
                wt += weights[w[-1]]
        while w and w[-1] == k - 1:
            wt -= weights[w.pop()]
        if not w:
            return
        w[-1] += 1
        wt += weights[w[-1]] - weights[w[-1] - 1]


def _read_generators(generators: Sequence[tuple]) -> list[tuple[str, int, int]]:
    """(name, degree, weight) triples; the weight defaults to 1."""
    return [(str(g[0]), int(g[1]), int(g[2]) if len(g) == 3 else 1)
            for g in generators]


def _bracket_label(lab1: str, lab2: str) -> str:
    return "[%s,%s]" % (lab1, lab2)


def _tree_label(tree, names: Sequence[str]) -> str:
    if isinstance(tree, int):
        return names[tree]
    return _bracket_label(_tree_label(tree[0], names), _tree_label(tree[1], names))


def _label_tree(label: str, names: Sequence[str]):
    """The tree of generator indices a label reads as, None when there is
    none: a generator's name, else "[u,v]" split at the first comma where
    both halves read.  Every split is tried, as names may hold commas."""
    index = {name: i for i, name in enumerate(names)}

    @functools.cache
    def read(lo: int, hi: int):
        tree = index.get(label[lo:hi])
        if tree is None and hi - lo > 2 and label[lo] + label[hi - 1] == "[]":
            for i in range(lo + 1, hi - 1):
                if label[i] == "," and read(lo + 1, i) is not None and \
                        read(i + 1, hi - 1) is not None:
                    return read(lo + 1, i), read(i + 1, hi - 1)
        return tree

    return read(0, len(label))


def _fresh(name: str, taken) -> str:
    """name, primed until it is not in taken."""
    while name in taken:
        name += "'"
    return name


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

    Each basis tree is an int id, numbered in the lexicographic order of
    the words, so trees compare by their words as ids.  Tree t is a letter
    when left[t] is -1, and right[t] is then its generator's index; else
    it is the bracket of left[t] and right[t], an odd square when the two
    are equal.  weight, degree and label_of_tree are tables on the ids as
    well, _pair maps (left, right) to the id of a bracket, and letters
    lists the generators' ids in order (a generator heavier than m has
    none).
    """

    def __init__(self, generators: Sequence[tuple], m: int):
        if m < 1:
            raise InvalidPresentation("weight bound must be >= 1")
        self.m = m
        self.gen_names: list[str] = []
        self.gen_degrees: list[int] = []
        self.gen_weights: list[int] = []
        self.gen_index: dict[str, int] = {}
        for name, degree, weight in _read_generators(generators):
            if name in self.gen_index:
                raise InvalidPresentation("duplicate generator %r" % name)
            if weight < 1:
                raise InvalidPresentation("generator weights must be >= 1")
            self.gen_index[name] = len(self.gen_names)
            self.gen_names.append(name)
            self.gen_degrees.append(degree)
            self.gen_weights.append(weight)

        self._build_basis()
        self._expand_cache: dict = {}
        self._hall_cache: dict = {}

    # -- basis ------------------------------------------------------------

    def _build_basis(self):
        words = list(itertools.islice(lyndon_words(self.gen_weights, self.m),
                                      BASIS_SIZE_CAP + 1))
        if len(words) > BASIS_SIZE_CAP:
            raise TruncationTooLarge("basis exceeds the size cap %d" % BASIS_SIZE_CAP)
        # odd squares [u,u], of weight at most m
        squares = [w + w for w in lyndon_words(self.gen_weights, self.m // 2)
                   if sum(self.gen_degrees[i] for i in w) % 2]
        size = len(words) + len(squares)
        if size > BASIS_SIZE_CAP:
            raise TruncationTooLarge(
                "basis would have %d elements (cap %d)" % (size, BASIS_SIZE_CAP))
        # the walk is in word order, so the sort only merges the squares in
        order = sorted(words + squares)
        self._id_of_word = ids = {w: t for t, w in enumerate(order)}
        lyndon = set(words)
        self.left, self.right = [-1] * size, [0] * size
        self.weight, self.degree = [0] * size, [0] * size
        self.label_of_tree: list[str] = [""] * size
        self.tree_of_label: dict[str, int] = {}
        self._pair: dict[tuple[int, int], int] = {}
        # by length, squares last, so a tree's children come before it: the
        # standard factorization of a Lyndon word splits off its longest
        # proper Lyndon suffix, and a square splits in half
        for w in sorted(words, key=len) + sorted(squares, key=len):
            t = ids[w]
            if len(w) == 1:
                i = self.right[t] = w[0]
                self.weight[t], self.degree[t] = self.gen_weights[i], self.gen_degrees[i]
                lab = self.gen_names[i]
            else:
                start = next(i for i in range(1, len(w)) if w[i:] in lyndon) \
                    if w in lyndon else len(w) // 2
                a, b = self.left[t], self.right[t] = ids[w[:start]], ids[w[start:]]
                self._pair[(a, b)] = t
                self.weight[t] = self.weight[a] + self.weight[b]
                self.degree[t] = self.degree[a] + self.degree[b]
                lab = _bracket_label(self.label_of_tree[a], self.label_of_tree[b])
            if lab in self.tree_of_label:
                raise InvalidPresentation(
                    "two basis elements have the label %s: generator names "
                    "must not look like brackets" % lab)
            self.label_of_tree[t] = lab
            self.tree_of_label[lab] = t
        self.letters = [ids[(i,)] for i in range(len(self.gen_names)) if (i,) in ids]
        basis: dict[int, list[str]] = {}
        self.weight_of_label: dict[str, int] = {}
        # a stable sort: word order within each (weight, degree)
        for t in sorted(range(size), key=lambda t: (self.weight[t], self.degree[t])):
            lab = self.label_of_tree[t]
            basis.setdefault(self.degree[t], []).append(lab)
            self.weight_of_label[lab] = self.weight[t]
        self.space = GradedVectorSpace(basis)

    def generator(self, name: str) -> GradedElement:
        i = self.gen_index[name]
        return GradedElement({(self.gen_degrees[i], self.gen_names[i]): ONE})

    def dims(self) -> dict[tuple[int, int], int]:
        """Per-(weight, degree) basis dimensions."""
        return dict(sorted(Counter(zip(self.weight, self.degree)).items()))

    # -- tensor algebra expansion and rewriting ---------------------------

    def tensor_expand(self, tree: int) -> dict[Word, int]:
        """Expansion in the tensor algebra, [a,b] = ab - (-1)^{|a||b|} ba,
        with int coefficients."""
        cached = self._expand_cache.get(tree)
        if cached is not None:
            return cached
        a, b = self.left[tree], self.right[tree]
        if a < 0:
            out = {(b,): 1}
        else:
            comm = _commutator(self.tensor_expand(a), self.tensor_expand(b),
                               (self.degree[a] * self.degree[b]) % 2)
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
            tree = self._id_of_word.get(s)
            if tree is None:
                raise NotLieElement("smallest word %r is not super-Lyndon" % (s,))
            coeff = c if self.left[tree] != self.right[tree] else \
                c // 2 if type(c) is int and c % 2 == 0 else Fraction(c, 2)
            key = (self.degree[tree], self.label_of_tree[tree])
            out[key] = out.get(key, 0) + coeff
            for w, cc in self.tensor_expand(tree).items():
                v = work.get(w, 0) - coeff * cc
                if v:
                    work[w] = v
                else:
                    work.pop(w, None)
        return GradedElement(out)

    # -- bracket -----------------------------------------------------------

    def _hall(self, h: int, k: int) -> dict[int, int]:
        """[h, k] for basis trees h and k whose weights add up to at most
        m, as {tree: int}, memoized per pair.  Every bracket the rules call
        for has the same weight."""
        key = (h, k)
        out = self._hall_cache.get(key)
        if out is not None:
            return out
        left, right, degree = self.left, self.right, self.degree
        out = {}
        if left[h] == right[h]:
            # [[t,t],k] = 2 [t,[t,k]], and [[t,t],t] = 0
            if left[h] != k:
                self._hall_nested(out, 2, left[h], left[h], k)
        elif left[k] == right[k]:
            out = {t: -c for t, c in self._hall(k, h).items()}
        elif h > k:
            sign = 1 if degree[h] * degree[k] % 2 else -1
            out = {t: sign * c for t, c in self._hall(k, h).items()}
        elif h == k:
            if degree[h] % 2:
                out = {self._pair[(h, h)]: 1}
        elif left[h] < 0 or right[h] >= k:
            # h < k, and h a letter or its right factor >= k: a Hall tree
            out = {self._pair[(h, k)]: 1}
        else:
            # [[a,b],k] = [a,[b,k]] - (-1)^{|a||b|} [b,[a,k]]
            a, b = left[h], right[h]
            self._hall_nested(out, 1, a, b, k)
            self._hall_nested(out, 1 if degree[a] * degree[b] % 2 else -1, b, a, k)
        self._hall_cache[key] = out
        return out

    def _hall_nested(self, out: dict, c: int, x: int, y: int, k: int) -> None:
        """out += c [x,[y,k]] for basis trees x, y and k."""
        for s, c1 in self._hall(y, k).items():
            _accumulate(out, self._hall(x, s), c * c1)

    def bracket_labels(self, lab1: str, lab2: str) -> GradedElement:
        t1 = self.tree_of_label[lab1]
        t2 = self.tree_of_label[lab2]
        if self.weight[t1] + self.weight[t2] > self.m:
            return GradedElement()
        terms = self._hall(t1, t2)
        # one weight and degree: word order is basis order
        d = self.degree[t1] + self.degree[t2]
        return GradedElement({(d, self.label_of_tree[t]): terms[t] for t in sorted(terms)})

    def bracket(self, u: GradedElement, v: GradedElement) -> GradedElement:
        out: dict = {}
        for (d1, l1), c1 in u.coeffs.items():
            for (d2, l2), c2 in v.coeffs.items():
                _accumulate(out, self.bracket_labels(l1, l2).coeffs, c1 * c2)
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
        self.generators = _read_generators(generators)
        self.relations = list(relations)
        self.dgens = dict(dgens or {})
        for r in self.relations:
            r.degree()  # homogeneity check

    def materialize(self, m: int) -> "QuotientLie":
        return QuotientLie(self, m)

    def relation_weights(self) -> list[Optional[int]]:
        """The weight of each relation, summed over the tree of each term's
        label: 0 for a zero relation, None for one whose terms differ in
        weight or have a label that reads as no tree."""
        names = [name for name, _, _ in self.generators]

        def weight(tree) -> int:
            if isinstance(tree, int):
                return self.generators[tree][2]
            return weight(tree[0]) + weight(tree[1])

        out = []
        for r in self.relations:
            trees = [_label_tree(lab, names) for _, lab in r.coeffs]
            ws = {None if t is None else weight(t) for t in trees}
            out.append(ws.pop() if len(ws) == 1 else (0 if not ws else None))
        return out

    def primed(self, taken: set[str]) -> tuple["LiePresentation", dict[str, str]]:
        """The presentation with its generator names primed away from taken,
        which gains them, and the old -> new map; self when none changes.
        Each label is read into its tree and written with the new names."""
        old, new = [name for name, _, _ in self.generators], []
        for name in old:
            new.append(_fresh(name, taken))
            taken.add(new[-1])
        mapping = dict(zip(old, new))
        if old == new:
            return self, mapping

        def relabel(e: GradedElement) -> GradedElement:
            out = {}
            for (d, lab), c in e.coeffs.items():
                tree = _label_tree(lab, old)
                if tree is None:
                    raise InvalidPresentation(
                        "the label %s is no bracket of the generators" % lab)
                out[(d, _tree_label(tree, new))] = c
            return GradedElement(out)

        return LiePresentation([(mapping[n], d, w) for n, d, w in self.generators],
                               [relabel(r) for r in self.relations],
                               {mapping[n]: relabel(v) for n, v in self.dgens.items()}), mapping


class QuotientLie:
    """Weight-m truncation of a presented dgla: the quotient of the
    truncated free algebra by the saturated ideal of the relations.

    A free element is {tree id: coefficient}, bracketed by the Hall
    rewriting (FreeLieTruncation._hall).  The ideal is a RowSpace per
    degree on its basis trees in (weight, label) order, saturated by
    bracketing with the generators what it leaves of each element that
    enlarges it.  Saturation, projection and d_map hand it ints and read
    back ints over one denominator (RowSpace._scaled), so the reducer
    builds no Fraction for them.  The quotient basis is the non-pivot
    labels, so each carries a weight witness and brackets remain
    weight-filtered.  The differential is the presentation's, extended to
    the free algebra by the graded Leibniz rule on ints as den d(tree),
    where den is the lcm of the denominators of d on the generators.
    d_map hands the quotient's d to its GradedLinearMap as those ints over
    den, one block per degree: as they are where the ideal one degree below
    has no rows (a free presentation), else reduced against them first,
    with the reductions' denominators cleared into the block's.
    """

    def __init__(self, presentation: LiePresentation, m: int):
        self.presentation = presentation
        self.m = m
        self.free = FreeLieTruncation(presentation.generators, m)
        lie = self.free

        # each degree's columns: its basis trees by (weight, label); _pos
        # maps a tree to its column in its degree
        self._columns: dict[int, list[int]] = {
            deg: sorted((lie.tree_of_label[l] for l in lie.space.labels(deg)),
                        key=lambda t: (lie.weight[t], lie.label_of_tree[t]))
            for deg in lie.space.degrees()}
        self._pos = {t: i for cols in self._columns.values() for i, t in enumerate(cols)}
        self._ideal: dict[int, RowSpace] = {
            deg: RowSpace(len(cols)) for deg, cols in self._columns.items()}
        self._saturate()

        # each degree's surviving columns, mapped to their quotient positions
        self._kept = {deg: {i: p for p, i in enumerate(
            sorted(set(range(len(cols))) - set(self._ideal[deg].pivots)))}
            for deg, cols in self._columns.items()}
        self.space = GradedVectorSpace({
            deg: [lie.label_of_tree[self._columns[deg][i]] for i in keep]
            for deg, keep in sorted(self._kept.items()) if keep})
        self.weight_of_label = {lab: lie.weight_of_label[lab] for n in self.space.degrees()
                                for lab in self.space.labels(n)}

        self._dgens = {name: presentation.dgens.get(name, GradedElement())
                       for name in lie.gen_names}
        # by the Leibniz rule every coefficient of d lies in (1/den)Z
        self._den = math.lcm(*(c.denominator for e in self._dgens.values()
                               for c in e.coeffs.values()))
        self._d_cache: list = [None] * len(lie.weight)
        self._check_differential()

    # free elements, {tree id: c} ---------------------------------------------

    def _vecs(self, terms: Mapping[int, int]) -> dict[int, dict]:
        """A free element as one sparse {column: c} vector per degree."""
        vecs: dict = {}
        degree, pos = self.free.degree, self._pos
        for t, c in terms.items():
            vecs.setdefault(degree[t], {})[pos[t]] = c
        return vecs

    def _saturate(self):
        lie = self.free
        queue: list[dict] = []

        def enlarge(terms):
            # queue what the ideal leaves of an element, once added: the
            # rest of the element is a sum of elements queued before.  The
            # rest is queued as ints, a multiple of it: the span is the same
            for deg, vec in self._vecs(terms).items():
                rest = self._ideal[deg]._scaled(vec)[0]
                if rest:
                    # copied before _insert, which may keep rest as a row
                    # that later inserts rewrite in place
                    queue.append({self._columns[deg][i]: c for i, c in rest.items()})
                    self._ideal[deg]._insert(rest)

        for r in self.presentation.relations:
            for _, lab in r.coeffs:
                if lab not in lie.weight_of_label:
                    raise InvalidPresentation(
                        "a relation has the term %s, beyond the weight-%d truncation"
                        % (lab, self.m))
            enlarge({lie.tree_of_label[lab]: c for (_, lab), c in r.coeffs.items()})
        # closing under ad of the generators closes under the whole algebra
        while queue:
            elt = queue.pop()
            for g in lie.letters:
                nxt: dict = {}
                for t, c in elt.items():
                    if lie.weight[g] + lie.weight[t] <= self.m:
                        _accumulate(nxt, lie._hall(g, t), c)
                enlarge(nxt)

    def _project(self, terms: Mapping[int, int], den: int = 1) -> GradedElement:
        """The image of sum (c / den) t over {tree t: c} in the quotient,
        coordinates on the surviving labels in column order."""
        out: dict = {}
        vecs = self._vecs(terms)
        for deg in sorted(vecs):
            cols, ideal = self._columns[deg], self._ideal[deg]
            # an ideal with no rows leaves the element as it is, uncopied:
            # every bracket of a free presentation comes this way
            v, vden = ideal._scaled(vecs[deg]) if ideal.dim() else (vecs[deg], 1)
            # one block of keys per degree: the keys never collide
            out.update({(deg, self.free.label_of_tree[cols[i]]): Fraction(v[i], den * vden)
                        for i in sorted(v)})
        return _element_of(out)

    def project(self, elt: GradedElement) -> GradedElement:
        """Image in the quotient, coordinates on the surviving labels."""
        tree = self.free.tree_of_label
        return self._project({tree[lab]: c for (_, lab), c in elt.coeffs.items()})

    # the free differential: given on generators, extended by the graded
    # Leibniz rule ------------------------------------------------------------

    def _free_d_tree(self, tree: int) -> dict[int, int]:
        """den d(tree) as {tree: int}, memoized per tree:
        d[t1,t2] = [d t1, t2] + (-1)^{|t1|} [t1, d t2] on the Hall brackets,
        each pair over the weight bound dropped."""
        out = self._d_cache[tree]
        if out is not None:
            return out
        lie = self.free
        t1, t2 = lie.left[tree], lie.right[tree]
        if t1 < 0:
            out = {lie.tree_of_label[lab]: c.numerator * (self._den // c.denominator)
                   for (_, lab), c in self._dgens[lie.gen_names[t2]].coeffs.items()}
        else:
            weight, hall, m = lie.weight, lie._hall, self.m
            w1, w2 = weight[t1], weight[t2]
            out = {}
            for s, c in self._free_d_tree(t1).items():
                if weight[s] + w2 <= m:
                    _accumulate(out, hall(s, t2), c)
            sign = -1 if lie.degree[t1] % 2 else 1
            for s, c in self._free_d_tree(t2).items():
                if w1 + weight[s] <= m:
                    _accumulate(out, hall(t1, s), sign * c)
        self._d_cache[tree] = out
        return out

    def _free_d_sum(self, terms) -> dict[int, int]:
        """den d(sum c t) over (tree t, c) pairs, as {tree: c}."""
        out: dict = {}
        for t, c in terms:
            _accumulate(out, self._free_d_tree(t), c)
        return out

    def _free_element(self, terms: Mapping[int, int], den: int = 1) -> GradedElement:
        """The free element sum (c / den) t over {tree t: c}."""
        lie = self.free
        return _element_of({(lie.degree[t], lie.label_of_tree[t]): Fraction(c, den)
                            for t, c in terms.items()})

    def _check_differential(self):
        """d descends to the truncated quotient: on each generator it has
        degree one less, stays within the truncation and does not lower
        weight; d*d lies in the relation ideal on generators, so by the
        Leibniz rule everywhere; and d keeps the relation ideal."""
        lie = self.free
        for name, deg, weight in zip(lie.gen_names, lie.gen_degrees, lie.gen_weights):
            for (d, lab), _ in self._dgens[name].coeffs.items():
                if d != deg - 1:
                    raise InvalidDifferential("d(%s) must be homogeneous of degree %d"
                                              % (name, deg - 1))
                if lab not in lie.weight_of_label:
                    raise InvalidDifferential(
                        "d(%s) has the term %s, beyond the weight-%d truncation"
                        % (name, lab, lie.m))
                if lie.weight_of_label[lab] < weight:
                    raise InvalidDifferential(
                        "d(%s) lowers weight; truncation would not be a dg quotient" % name)
        # a generator heavier than m has no letter, and d = 0 on it
        for g in lie.letters:
            dd = self._free_d_sum(self._free_d_tree(g).items())
            if not self._project(dd).is_zero():
                raise InvalidDifferential("d(d(%s)) = %r is nonzero" % (
                    lie.label_of_tree[g], self._free_element(dd, self._den ** 2)))
        for deg, rs in self._ideal.items():
            cols = self._columns[deg]
            for row in rs.rows():
                if not self._project(self._free_d_sum((cols[j], x) for j, x in row.items())).is_zero():
                    raise InvalidPresentation(
                        "differential does not preserve the relation ideal")

    # quotient operations, uncached: the Dgla built on a quotient caches its
    # brackets and holds d_map -------------------------------------------------

    def bracket_labels(self, lab1: str, lab2: str) -> GradedElement:
        lie = self.free
        t1, t2 = lie.tree_of_label[lab1], lie.tree_of_label[lab2]
        if lie.weight[t1] + lie.weight[t2] > self.m:
            return GradedElement()
        return self._project(lie._hall(t1, t2))

    def d_map(self) -> GradedLinearMap:
        """d on the quotient as int blocks over den: den d of each surviving
        column at the quotient positions, reduced against the ideal one
        degree below when that has rows (and its denominators cleared)."""
        blocks = {}
        for deg, keep in self._kept.items():
            below, rank = self._ideal.get(deg - 1), self._kept.get(deg - 1)
            cols, pos, out = self._columns[deg], self._pos, []
            if below is None or not below.dim():
                # nothing to reduce: every column below survives in place
                for i in keep:
                    out.append(sorted((pos[s], c) for s, c in self._free_d_tree(cols[i]).items()))
                blocks[deg] = (out, self._den)
                continue
            for i in keep:
                v, vden = below._scaled({pos[s]: c for s, c in self._free_d_tree(cols[i]).items()})
                out.append(([(rank[j], v[j]) for j in sorted(v)], vden))
            # every column over the lcm of the reductions' denominators
            m = math.lcm(*(vden for _, vden in out))
            blocks[deg] = ([[(j, x * (m // vden)) for j, x in col] for col, vden in out],
                           self._den * m)
        return GradedLinearMap._from_blocks(self.space, self.space, -1, blocks)


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------

def build_basis(generators: Sequence[tuple], m: int) -> FreeLieTruncation:
    """Truncated free graded Lie algebra on the given generators."""
    return FreeLieTruncation(generators, m)


def truncated_basis_estimate(generators: Sequence[tuple], m: int,
                             cap: int) -> Optional[int]:
    """Number of Lyndon words of weight <= m over the generators, or None
    once the count exceeds cap; counted, not listed.  With f_k generators of
    weight k, the words factor uniquely into Lyndon words, so 1/(1 - F) =
    prod_n (1 - t^n)^(-L_n) for F = sum f_k t^k, and the coefficients p_n
    of tF'/(1 - F) are sum over d | n of d L_d: the weighted necklace
    count, solved for L_n weight by weight."""
    f = Counter(w for _, _, w in _read_generators(generators))
    p = [0] * (m + 1)
    below = [0] * (m + 1)  # below[n]: d L_d summed over the divisors d < n
    count = 0
    for n in range(1, m + 1):
        p[n] = n * f[n] + sum(c * p[n - k] for k, c in f.items() if k < n)
        lyndon = (p[n] - below[n]) // n
        if lyndon:
            count += lyndon
            if count > cap:
                return None
            for j in range(2 * n, m + 1, n):
                below[j] += n * lyndon
    return count if count <= cap else None


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
