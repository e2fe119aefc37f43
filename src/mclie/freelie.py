"""Free graded Lie algebras on finite generator sets, truncated at bracket
weight, with a canonical super-Lyndon basis.

Basis elements are standard bracketings of Lyndon words on the generator
alphabet (ordered by declaration), together with squares [u,u] of basis
brackets u of odd total degree.  Lyndon words with their standard
factorization form a Hall set (Reutenauer, Free Lie Algebras, 1993,
ch. 4-5), so the bracket of two basis trees rewrites into the basis by
antisymmetry and the Jacobi identity alone, on Python ints: the Lyndon
basis is a Z-basis of the free Lie ring, and a coefficient becomes a
Fraction once, when its GradedElement is built.  Everything above the
weight bound is truncated away, realizing the quotient by the
corresponding term of the lower central series.  A presented quotient
(QuotientLie) carries its own free differential, checked on construction
to descend to the truncation and to the quotient.

The expansion of a basis bracket in the tensor algebra is triangular with
smallest word its Lyndon word, so a greedy elimination rewrites a Lie
element of the tensor algebra into the basis.  tensor_expand and
rewrite_tensor do that on ints, off the bracket path; the tests'
tensor-algebra oracles (BCH, the embedding of a Lie element) run on them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .linalg import (
    ONE,
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


def _is_square(tree) -> bool:
    """Whether a basis tree is an odd square (u, u)."""
    return not isinstance(tree, int) and tree[0] == tree[1]


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
        self._hall_cache: dict = {}
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

    def _build_basis(self):
        k = len(self.gen_names)
        words = []
        for w in lyndon_words(k, self.m):
            if self.word_weight(w) <= self.m:
                words.append(w)
                if len(words) > BASIS_SIZE_CAP:
                    raise TruncationTooLarge(
                        "basis exceeds the size cap %d" % BASIS_SIZE_CAP)
        # the standard factorization of a Lyndon word (its longest proper
        # Lyndon suffix and the rest) has two shorter Lyndon words, so
        # walking by length finds both factors' trees built
        self.tree_of_word: dict[Word, object] = {}
        for w in sorted(words, key=len):
            if len(w) == 1:
                self.tree_of_word[w] = w[0]
                continue
            start = next(i for i in range(1, len(w)) if w[i:] in self.tree_of_word)
            self.tree_of_word[w] = (self.tree_of_word[w[:start]],
                                    self.tree_of_word[w[start:]])
        # odd squares [u,u]
        self._square_words = {
            w + w: (t, t) for w, t in self.tree_of_word.items()
            if self.tree_degree(t) % 2 == 1 and 2 * self.word_weight(w) <= self.m}
        size = len(words) + len(self._square_words)
        if size > BASIS_SIZE_CAP:
            raise TruncationTooLarge(
                "basis would have %d elements (cap %d)" % (size, BASIS_SIZE_CAP))
        # labels in the same by-length order, each from its children's
        self._word: dict = {}
        self.label_of_tree: dict = {}
        self.tree_of_label: dict[str, object] = {}
        for w, t in [*self.tree_of_word.items(), *self._square_words.items()]:
            if isinstance(t, int):
                lab = self.gen_names[t]
            else:
                lab = "[%s,%s]" % (self.label_of_tree[t[0]], self.label_of_tree[t[1]])
            if lab in self.tree_of_label:
                raise InvalidPresentation(
                    "two basis elements have the label %s: generator names "
                    "must not look like brackets" % lab)
            self._word[t] = w
            self.label_of_tree[t] = lab
            self.tree_of_label[lab] = t
        basis: dict[int, list[str]] = {}
        self.weight_of_label: dict[str, int] = {}
        for t in sorted(self._word, key=lambda t: (self._weight_degree(t), self._word[t])):
            w, d = self._weight_degree(t)
            lab = self.label_of_tree[t]
            basis.setdefault(d, []).append(lab)
            self.weight_of_label[lab] = w
        self.space = GradedVectorSpace(basis)

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
            if s in self.tree_of_word:
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

    # -- bracket -----------------------------------------------------------

    def _hall(self, h, k) -> dict:
        """[h, k] for basis trees h and k whose weights add up to at most
        m, as {basis tree: int}, memoized per pair.  Trees compare by their
        words; every bracket the rules call for has the same weight."""
        key = (h, k)
        out = self._hall_cache.get(key)
        if out is not None:
            return out
        dh, dk = self._weight_degree(h)[1], self._weight_degree(k)[1]
        word = self._word
        out = {}
        if _is_square(h):
            # [[t,t],k] = 2 [t,[t,k]], and [[t,t],t] = 0
            if h[0] != k:
                self._hall_nested(out, 2, h[0], h[0], k)
        elif _is_square(k):
            out = {t: -c for t, c in self._hall(k, h).items()}
        elif word[h] > word[k]:
            sign = 1 if dh * dk % 2 else -1
            out = {t: sign * c for t, c in self._hall(k, h).items()}
        elif h == k:
            if dh % 2:
                out = {(h, h): 1}
        elif isinstance(h, int) or word[h[1]] >= word[k]:
            # h < k, and h a letter or its right factor >= k: a Hall tree
            out = {(h, k): 1}
        else:
            # [[a,b],k] = [a,[b,k]] - (-1)^{|a||b|} [b,[a,k]]
            a, b = h
            self._hall_nested(out, 1, a, b, k)
            odd = self._weight_degree(a)[1] * self._weight_degree(b)[1] % 2
            self._hall_nested(out, 1 if odd else -1, b, a, k)
        self._hall_cache[key] = out
        return out

    def _hall_nested(self, out: dict, c: int, x, y, k) -> None:
        """out += c [x,[y,k]] for basis trees x, y and k."""
        for s, c1 in self._hall(y, k).items():
            for t, c2 in self._hall(x, s).items():
                v = out.get(t, 0) + c * c1 * c2
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)

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
            terms = self._hall(t1, t2)
            # one weight and degree: word order is basis order
            res = GradedElement({(d1 + d2, self.label_of_tree[t]): terms[t]
                                 for t in sorted(terms, key=self._word.__getitem__)})
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
    """Weight of a label as FreeLieTruncation writes it: a generator's own
    weight, else the sum over the two halves of "[u,v]" split at its
    top-level comma; None when the label does not parse."""
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
