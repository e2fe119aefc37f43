"""Textual definitions of dglas and cdgas for the command line, plus the
built-in algebras; coefficients are exact rationals written p/q.

Definition files are line-oriented:

    kind free-dgla            # dgla | free-dgla | cdga
    weight 4                  # truncation (required for free-dgla)
    generator a 0             # name, degree, optional weight
    generator x -1
    d x = -1/2 [x,x]
    relation [a,x]

    kind dgla                 # finite structure-constant table
    basis x -1
    basis w -2
    bracket x x = 1 w
    d x = -1/2 w

    kind cdga                 # cohomological degrees
    basis 1 0
    basis e 0
    unit 1
    mul e e = 1 e
    augment 1 = 1
    augment e = 0

Builtins are referenced as name or name:arg:...; see BUILTIN_HELP.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .linalg import QQ, GradedElement, linear_combination
from .freelie import LiePresentation
from .dgla import (
    Dgla,
    DglaPresentation,
    abelian_dgla,
    dgla_from_table,
    f_xa_dgla,
    g_s_dgla,
    heisenberg_dgla,
    sphere_dgla,
    zero_dgla,
)
from .cdga import Cdga, FiniteTableCdga, omega_simplex


class DefinitionError(Exception):
    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = "line %d" % line
            if column is not None:
                where += ", column %d" % column
            where = " (%s)" % where
        super().__init__(message + where)


def parse_rational(tok: str, line: Optional[int] = None) -> Fraction:
    try:
        return QQ(tok)
    except (ValueError, ZeroDivisionError):
        raise DefinitionError("expected a rational number, got %r" % tok, line)


def parse_element(text: str, degree_of: dict[str, int],
                  line: Optional[int] = None) -> GradedElement:
    """Linear combinations like '-1/2 [x,x] + 2 w'; labels contain no
    whitespace and coefficients are separated from labels by whitespace.
    A numeric token names a basis label (such as the unit "1") when there
    is one and no label follows it: "2 1" is twice the label "1", "1 e" is e."""
    tokens = (" " + text).replace("+", " + ").replace(" -", " - ").split()
    terms = []
    sign = QQ(1)
    coeff = None
    for idx, tok in enumerate(tokens, start=1):
        if tok in ("+", "-"):
            if coeff is not None:
                raise DefinitionError("dangling coefficient", line, idx - 1)
            sign = QQ(1) if tok == "+" else QQ(-1)
            continue
        try:
            val = QQ(tok)
        except (ValueError, ZeroDivisionError):
            val = None
        ends_term = idx == len(tokens) or tokens[idx] in ("+", "-")
        if val is not None and not (ends_term and tok in degree_of):
            if coeff is not None:
                raise DefinitionError("two coefficients in a row", line, idx)
            if not val and ends_term:
                continue
            coeff = val
            continue
        if tok not in degree_of:
            raise DefinitionError("unknown basis label %r" % tok, line, idx)
        terms.append((sign * (coeff if coeff is not None else QQ(1)),
                      GradedElement({(degree_of[tok], tok): QQ(1)})))
        sign, coeff = QQ(1), None
    if coeff is not None:
        raise DefinitionError("dangling coefficient", line)
    return linear_combination(terms)


class AlgebraDefinition:
    """Parsed definition: either a dgla (finite table or free presentation)
    or a cdga finite table."""

    def __init__(self, kind: str):
        self.kind = kind
        self.weight: Optional[int] = None
        self.generators: list[tuple] = []
        self.basis: list[tuple[str, int]] = []
        self.brackets: dict = {}
        self.mults: dict = {}
        self.differentials: dict = {}
        self.relations_text: list[tuple[str, int]] = []
        self.d_text: dict[str, tuple[str, int]] = {}
        self.unit: Optional[str] = None
        self.augment: dict[str, Fraction] = {}

    def build(self):
        if self.kind == "cdga":
            return self._build_cdga()
        if self.kind == "dgla":
            return self._build_dgla_table()
        if self.kind == "free-dgla":
            return self._build_free()
        raise DefinitionError("unknown kind %r" % self.kind)

    def _build_cdga(self) -> Cdga:
        if self.unit is None:
            raise DefinitionError("cdga definitions need a 'unit' line")
        degree_of = {lab: -deg for lab, deg in self.basis}  # homological
        basis: dict[int, list[str]] = {}
        for lab, deg in self.basis:
            basis.setdefault(deg, []).append(lab)
        table = {}
        for (l1, l2), (text, line) in self.mults.items():
            table[(l1, l2)] = parse_element(text, degree_of, line)
        diffs = {}
        for lab, (text, line) in self.d_text.items():
            diffs[lab] = parse_element(text, degree_of, line)
        aug = self.augment if self.augment else None
        return FiniteTableCdga(basis, table, self.unit, diffs, aug)

    def _degree_map_free(self, m: int) -> dict[str, int]:
        from .freelie import FreeLieTruncation
        free = FreeLieTruncation(self.generators, m)
        return {lab: d for d in free.space.degrees()
                for lab in free.space.labels(d)}

    def _build_free(self) -> Dgla:
        if self.weight is None:
            raise DefinitionError(
                "free-dgla definitions must state the truncation 'weight'")
        degree_of = self._degree_map_free(self.weight)
        dgens = {}
        for name, (text, line) in self.d_text.items():
            dgens[name] = parse_element(text, degree_of, line)
        rels = [parse_element(text, degree_of, line)
                for text, line in self.relations_text]
        pres = LiePresentation(self.generators, rels, dgens)
        return DglaPresentation(pres).materialize(self.weight)

    def _build_dgla_table(self) -> Dgla:
        degree_of = {lab: deg for lab, deg in self.basis}
        basis: dict[int, list[str]] = {}
        for lab, deg in self.basis:
            basis.setdefault(deg, []).append(lab)
        brackets = {}
        for (l1, l2), (text, line) in self.brackets.items():
            brackets[(l1, l2)] = parse_element(text, degree_of, line)
        diffs = {}
        for lab, (text, line) in self.d_text.items():
            diffs[lab] = parse_element(text, degree_of, line)
        return dgla_from_table(basis, brackets, diffs)


def parse_definition(text: str, name: str = "<definition>") -> AlgebraDefinition:
    defn: Optional[AlgebraDefinition] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "kind":
            if len(parts) != 2:
                raise DefinitionError("kind takes one argument", lineno)
            defn = AlgebraDefinition(parts[1])
            continue
        if defn is None:
            raise DefinitionError("the first directive must be 'kind'", lineno)
        if head == "weight":
            defn.weight = int(parts[1])
        elif head == "generator":
            if defn.kind != "free-dgla":
                raise DefinitionError("'generator' only in free-dgla", lineno)
            if len(parts) not in (3, 4):
                raise DefinitionError("generator NAME DEGREE [WEIGHT]", lineno)
            w = int(parts[3]) if len(parts) == 4 else 1
            defn.generators.append((parts[1], int(parts[2]), w))
        elif head == "basis":
            if len(parts) != 3:
                raise DefinitionError("basis LABEL DEGREE", lineno)
            defn.basis.append((parts[1], int(parts[2])))
        elif head == "bracket":
            if len(parts) < 5 or parts[3] != "=":
                raise DefinitionError("bracket L1 L2 = ELEMENT", lineno)
            defn.brackets[(parts[1], parts[2])] = (" ".join(parts[4:]), lineno)
        elif head == "mul":
            if len(parts) < 5 or parts[3] != "=":
                raise DefinitionError("mul L1 L2 = ELEMENT", lineno)
            defn.mults[(parts[1], parts[2])] = (" ".join(parts[4:]), lineno)
        elif head == "d":
            if len(parts) < 4 or parts[2] != "=":
                raise DefinitionError("d LABEL = ELEMENT", lineno)
            defn.d_text[parts[1]] = (" ".join(parts[3:]), lineno)
        elif head == "relation":
            defn.relations_text.append((" ".join(parts[1:]), lineno))
        elif head == "unit":
            defn.unit = parts[1]
        elif head == "augment":
            if len(parts) != 4 or parts[2] != "=":
                raise DefinitionError("augment LABEL = RATIONAL", lineno)
            defn.augment[parts[1]] = parse_rational(parts[3], lineno)
        else:
            raise DefinitionError("unknown directive %r" % head, lineno)
    if defn is None:
        raise DefinitionError("empty definition in %s" % name)
    return defn


BUILTIN_HELP = {
    "sphere": "the model of S^0: x with |x| = -1, d(x) = -1/2 [x,x]",
    "zero": "the zero dgla",
    "g_S:k": "free dgla on k degree -1 generators with d(x_s) = -1/2 [x_s,x_s]",
    "f_xa:m": "free dgla on a (degree 0) and x (degree -1), weight <= m",
    "heisenberg": "3-dimensional Heisenberg algebra in degree 0",
    "abelian:k:n": "abelian dgla of dimension k in degree n",
    "q": "the ground field as a cdga",
    "qxq": "Q x Q with coordinatewise product",
    "qk:k": "product of k copies of Q",
    "q_eps": "the dual numbers Q[eps]/(eps^2)",
    "q_deg2": "Q plus a square-zero class in cohomological degree 2",
    "omega:n:D": "polynomial forms on the n-simplex, degree <= D",
}


def build_builtin(ref: str, size: Optional[int] = None,
                  weight: Optional[int] = None):
    """Builtins by name with colon-separated arguments; --size/--weight
    flags override positional arguments."""
    parts = ref.split(":")
    name, args = parts[0], parts[1:]

    def arg(i, default=None):
        if i < len(args):
            try:
                return int(args[i])
            except ValueError:
                raise DefinitionError("builtin %r: argument %r is not an "
                                      "integer" % (name, args[i]))
        return default

    def size_arg(least, default=None):
        k = size if size is not None else arg(0, default)
        if k is None:
            raise DefinitionError("%s needs a size (%s:k or --size)" % (name, name))
        if k < least:
            raise DefinitionError("%s needs a size >= %d, got %d" % (name, least, k))
        return k

    if name == "sphere":
        return sphere_dgla(weight or 2)
    if name == "zero":
        return zero_dgla()
    if name in ("g_S", "g_s"):
        return g_s_dgla(size_arg(0), weight or 2)
    if name == "f_xa":
        m = weight if weight is not None else arg(0)
        if m is None:
            raise DefinitionError("f_xa needs a weight (f_xa:m or --weight)")
        if m < 1:
            raise DefinitionError("f_xa needs a weight >= 1, got %d" % m)
        return f_xa_dgla(m)
    if name == "heisenberg":
        return heisenberg_dgla()
    if name == "abelian":
        k = size_arg(0, 1)
        deg = arg(1, 0)
        labels = ["a%d" % (i + 1) for i in range(k)]
        return abelian_dgla({deg: labels})
    if name == "q":
        return FiniteTableCdga({0: ["1"]}, {}, "1", augmentation={"1": QQ(1)})
    if name == "qxq":
        e = GradedElement({(0, "e"): QQ(1)})
        return FiniteTableCdga({0: ["1", "e"]}, {("e", "e"): e}, "1",
                               augmentation={"1": QQ(1), "e": QQ(0)})
    if name == "qk":
        k = size_arg(1)
        labels = ["1"] + ["e%d" % i for i in range(1, k)]
        table = {}
        for i in range(1, k):
            for j in range(1, k):
                table[("e%d" % i, "e%d" % j)] = (
                    GradedElement({(0, "e%d" % i): QQ(1)}) if i == j
                    else GradedElement())
        aug = {"1": QQ(1)}
        return FiniteTableCdga({0: labels}, table, "1", augmentation=aug)
    if name == "q_eps":
        return FiniteTableCdga(
            {0: ["1", "eps"]}, {("eps", "eps"): GradedElement()}, "1",
            augmentation={"1": QQ(1), "eps": QQ(0)})
    if name == "q_deg2":
        return FiniteTableCdga(
            {0: ["1"], 2: ["w"]}, {("w", "w"): GradedElement()}, "1",
            augmentation={"1": QQ(1), "w": QQ(0)})
    if name == "omega":
        n = arg(0)
        dd = arg(1)
        if n is None or dd is None:
            raise DefinitionError("omega needs omega:n:D")
        if n < 0 or dd < 1:
            raise DefinitionError("omega:n:D needs n >= 0 and D >= 1")
        return omega_simplex(n, dd)
    raise DefinitionError("unknown builtin %r (known: %s)"
                          % (name, ", ".join(sorted(BUILTIN_HELP))))


def load_algebra(ref: str, size: Optional[int] = None,
                 weight: Optional[int] = None):
    """A definition reference: a file path, or builtin:NAME[:args], or a
    bare builtin name."""
    if ref.startswith("builtin:"):
        return build_builtin(ref[len("builtin:"):], size, weight)
    import os
    if os.path.exists(ref):
        with open(ref) as f:
            text = f.read()
        return parse_definition(text, ref).build()
    if ref.split(":")[0] in {s.split(":")[0] for s in BUILTIN_HELP}:
        return build_builtin(ref, size, weight)
    raise DefinitionError("no such definition file or builtin: %r" % ref)


def element_degrees(alg) -> dict[str, int]:
    return {lab: n for n in alg.space.degrees() for lab in alg.space.labels(n)}
