"""References that the tests compare mclie's free-Lie layer against.

The tensor algebra: a Fraction kernel that brackets two basis elements by
expanding both trees into words, multiplying the expansions and eliminating
the product greedily (the bracket as it was before the integer kernel and
the Hall-set rewriting), the embedding of a Lie element into the tensor
algebra, and the Baker-Campbell-Hausdorff product through truncated tensor
exponentials."""

from fractions import Fraction

from mclie.freelie import FreeLieTruncation
from mclie.linalg import ONE, QQ, ZERO, GradedElement


def foliage(tree):
    """The word of a tree: its leaves, left to right."""
    if isinstance(tree, int):
        return (tree,)
    return foliage(tree[0]) + foliage(tree[1])


class FractionKernel:
    """Reference free-Lie kernel on Fraction coefficients: tensor expansion,
    commutator and greedy elimination, with weights and degrees recomputed
    through foliage on every call."""

    def __init__(self, lie):
        self.lie = lie
        self.expand_cache = {}
        self.bracket_cache = {}

    def degree(self, tree):
        return self.lie.word_degree(foliage(tree))

    def weight(self, tree):
        return self.lie.word_weight(foliage(tree))

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
        lie = self.lie
        work = {w: c for w, c in tensor.items() if c}
        out = {}
        while work:
            s = min(work)
            c = work[s]
            if s in lie.tree_of_word:
                tree = lie.tree_of_word[s]
                coeff = c
            else:
                half = len(s) // 2
                assert len(s) % 2 == 0 and s[:half] == s[half:]
                tree = lie._square_words[s]
                coeff = c / 2
            key = (self.degree(tree), lie.label_of_tree[tree])
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
        t1 = self.lie.tree_of_label[lab1]
        t2 = self.lie.tree_of_label[lab2]
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
            if lie.word_weight(w) <= max_weight:
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
