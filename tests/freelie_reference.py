"""References that the tests compare mclie's free-Lie layer against.

The tensor algebra: a Fraction kernel that brackets two basis elements by
expanding both trees into words, multiplying the expansions and eliminating
the product greedily (the bracket as it was before the integer kernel and
the Hall-set rewriting), the embedding of a Lie element into the tensor
algebra, and the Baker-Campbell-Hausdorff product through truncated tensor
exponentials.  The Lyndon words of bounded weight: Duval's walk over
every word up to the bound in length, filtered by weight afterwards.  And
the free differential of a presented quotient, extended from the
generators by the graded Leibniz rule on Fraction elements through the
bracket (as QuotientLie extended it before its kernel ran on trees and
ints), and the quotient's d with one Fraction per entry (as d_map built it
before its int blocks).  Each reads a basis element's tree off its label (_label_tree),
not from the truncation's tree ids."""

from fractions import Fraction

from mclie.freelie import FreeLieTruncation, _label_tree, _tree_label
from mclie.linalg import ONE, QQ, ZERO, GradedElement, GradedLinearMap


def filtered_lyndon_words(weights, m):
    """The Lyndon words on {0..k-1}, k = len(weights), of weight at most m:
    Duval's walk over every word of length <= m, in lexicographic order,
    each word kept when its weight is at most m."""
    k, out = len(weights), []
    if k == 0 or m < 1:
        return out
    w = [-1]
    while w:
        w[-1] += 1
        if sum(weights[i] for i in w) <= m:
            out.append(tuple(w))
        n = len(w)
        while len(w) < m:
            w.append(w[len(w) - n])
        while w and w[-1] == k - 1:
            w.pop()
    return out


def foliage(tree):
    """The word of a tree: its leaves, left to right."""
    if isinstance(tree, int):
        return (tree,)
    return foliage(tree[0]) + foliage(tree[1])


def word_weight(lie, word):
    """The weight of a word: its letters' generator weights, summed."""
    return sum(lie.gen_weights[i] for i in word)


def tree_degree(lie, tree):
    """The degree of a tree of nested pairs: its leaves' degrees, summed."""
    return sum(lie.gen_degrees[i] for i in foliage(tree))


class FractionKernel:
    """Reference free-Lie kernel on Fraction coefficients: tensor expansion,
    commutator and greedy elimination.  A basis element's tree is read off
    its label (_label_tree, nested pairs of generator indices), never taken
    from the truncation's own tree ids, and weights and degrees are
    recomputed through foliage on every call."""

    def __init__(self, lie):
        self.lie = lie
        self.expand_cache = {}
        self.bracket_cache = {}
        self.tree_of_label = {lab: _label_tree(lab, lie.gen_names)
                              for n in lie.space.degrees() for lab in lie.space.labels(n)}
        # a basis element's word is the foliage of its tree
        self.label_of_word = {foliage(t): lab for lab, t in self.tree_of_label.items()}

    def degree(self, tree):
        return tree_degree(self.lie, tree)

    def weight(self, tree):
        return word_weight(self.lie, foliage(tree))

    def commutator(self, a, b, sign):
        out = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                w = w1 + w2
                out[w] = out.get(w, QQ(0)) + c1 * c2
                wr = w2 + w1
                out[wr] = out.get(wr, QQ(0)) - sign * c1 * c2
        return out

    def tensor_expand(self, tree):
        cached = self.expand_cache.get(tree)
        if cached is not None:
            return cached
        if isinstance(tree, int):
            out = {(tree,): QQ(1)}
        else:
            t1, t2 = tree
            sign = QQ(-1) if (self.degree(t1) * self.degree(t2)) % 2 else QQ(1)
            out = self.commutator(self.tensor_expand(t1), self.tensor_expand(t2), sign)
            out = {w: c for w, c in out.items() if c}
        self.expand_cache[tree] = out
        return out

    def rewrite_tensor(self, tensor):
        work = {w: c for w, c in tensor.items() if c}
        out = {}
        while work:
            s = min(work)
            c = work[s]
            lab = self.label_of_word.get(s)
            if lab is None:
                raise ValueError("the smallest word %r is neither a Lyndon "
                                 "word nor the square of one" % (s,))
            tree = self.tree_of_label[lab]
            # no Lyndon word is a square uu
            half = len(s) // 2
            coeff = c / 2 if len(s) % 2 == 0 and s[:half] == s[half:] else c
            key = (self.degree(tree), lab)
            out[key] = out.get(key, QQ(0)) + coeff
            for w, cc in self.tensor_expand(tree).items():
                v = work.get(w, QQ(0)) - coeff * cc
                if v:
                    work[w] = v
                else:
                    work.pop(w, None)
        return GradedElement(out)

    def bracket_labels(self, lab1, lab2):
        key = (lab1, lab2)
        cached = self.bracket_cache.get(key)
        if cached is not None:
            return cached
        t1 = self.tree_of_label[lab1]
        t2 = self.tree_of_label[lab2]
        if self.weight(t1) + self.weight(t2) > self.lie.m:
            res = GradedElement()
        else:
            sign = QQ(-1) if (self.degree(t1) * self.degree(t2)) % 2 else QQ(1)
            res = self.rewrite_tensor(self.commutator(
                self.tensor_expand(t1), self.tensor_expand(t2), sign))
        self.bracket_cache[key] = res
        msign = QQ(-1) if (self.degree(t1) * self.degree(t2)) % 2 == 0 else QQ(1)
        self.bracket_cache.setdefault((lab2, lab1), res.scale(msign))
        return res


# --- truncated tensor-algebra exponentials ---------------------------------


def tensor_of_element(lie: FreeLieTruncation, elt: GradedElement) -> dict:
    """A Lie element in the tensor algebra, {word: Fraction}."""
    out = {}
    for (d, lab), c in elt.coeffs.items():
        for w, cc in lie.tensor_expand(lie.tree_of_label[lab]).items():
            v = out.get(w, ZERO) + c * cc
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def _add_into(out: dict, w, c: Fraction) -> None:
    v = out.get(w, ZERO) + c
    if v:
        out[w] = v
    else:
        out.pop(w, None)


def tensor_product(a: dict, b: dict, lie: FreeLieTruncation, max_weight: int) -> dict:
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            if word_weight(lie, w) <= max_weight:
                _add_into(out, w, c1 * c2)
    return out


def tensor_exp(a: dict, lie: FreeLieTruncation, max_weight: int) -> dict:
    """exp of a weight >= 1 element in the truncated tensor algebra."""
    out = {(): ONE}
    term = {(): ONE}
    k = 0
    while term:
        k += 1
        term = tensor_product(term, a, lie, max_weight)
        term = {w: c / k for w, c in term.items()}
        for w, c in term.items():
            _add_into(out, w, c)
        if k > max_weight:
            break
    return out


def tensor_log(a: dict, lie: FreeLieTruncation, max_weight: int) -> dict:
    """log of 1 + nilpotent in the truncated tensor algebra."""
    n = dict(a)
    if n.get((), ZERO) != ONE:
        raise ValueError("log requires constant term 1")
    n.pop(())
    out = {}
    term = {(): ONE}
    k = 0
    while True:
        k += 1
        term = tensor_product(term, n, lie, max_weight)
        if not term or k > max_weight:
            break
        sign = ONE if k % 2 == 1 else -ONE
        for w, c in term.items():
            _add_into(out, w, sign * c / k)
    return out


def bch(lie: FreeLieTruncation, a: GradedElement, b: GradedElement) -> GradedElement:
    """Baker-Campbell-Hausdorff product log(exp a * exp b) within the
    truncation, rewritten into the basis."""
    ta = tensor_of_element(lie, a)
    tb = tensor_of_element(lie, b)
    prod = tensor_product(tensor_exp(ta, lie, lie.m), tensor_exp(tb, lie, lie.m),
                          lie, lie.m)
    return lie.rewrite_tensor(tensor_log(prod, lie, lie.m))


# --- the free differential by the Leibniz rule, on Fractions ---------------


def leibniz_reference(q, label: str) -> GradedElement:
    """d(label) in the free truncation of the QuotientLie q, before the
    projection: d of a generator as presented, and
    d[t1,t2] = [d t1, t2] + (-1)^{|t1|} [t1, d t2] on GradedElements, each
    tree read off its label."""
    lie, names = q.free, q.free.gen_names
    tree = _label_tree(label, names)
    if isinstance(tree, int):
        return q.presentation.dgens.get(names[tree], GradedElement())
    l1, l2 = (_tree_label(t, names) for t in tree)
    e1, e2 = (GradedElement({(tree_degree(lie, t), lab): ONE})
              for t, lab in zip(tree, (l1, l2)))
    sgn = -ONE if tree_degree(lie, tree[0]) % 2 else ONE
    return lie.bracket(leibniz_reference(q, l1), e2) + \
        lie.bracket(e1, leibniz_reference(q, l2)).scale(sgn)


# --- the quotient's d, one Fraction per entry -------------------------------


def d_map_reference(q):
    """d on the quotient q as QuotientLie.d_map built it before its int
    blocks: den d of each surviving column, reduced against the ideal one
    degree below (rows or none), at the quotient positions, each entry
    divided by den as its own Fraction, read through from_function."""
    lie = q.free

    def image(n, lab):
        dt = q._free_d_tree(lie.tree_of_label[lab])
        if not dt:
            return GradedElement()
        v = q._ideal[n - 1]._reduce({q._pos[s]: c for s, c in dt.items()})
        labels, rank = q.space.labels(n - 1), q._kept[n - 1]
        return GradedElement({(n - 1, labels[rank[j]]): Fraction(v[j], q._den) for j in v})

    return GradedLinearMap.from_function(q.space, q.space, -1, image)
