"""Maurer-Cartan spaces: symbolic component constraint systems for MC
elements of g (x) Omega(Delta^n), a rule-based exact solver, simplicial MC
sets, gauge-orbit moduli, and the homology-level consistency checks.

The solver implements exactly the rules that decide such systems by hand:
  R1  d(alpha) = 0 for a 0-form forces alpha constant (H^0 = Q);
  R2  a single-variable quadratic over the domain of 0-forms branches on
      its rational roots (alpha(1 - alpha) = 0 gives {0, 1});
  R3  orthogonality products branch over vanishing factors (valid when at
      most one factor is a higher form, since forms are torsion-free over
      0-forms);
plus linear isolation.  Every other shape is reported as an incomplete
solve, never guessed.

A node of the search is (equations, assigned, constants, constraints).
Besides moving an equation of pure differentials to the constraints, it
changes only through two transitions: assigning a symbol, which rewrites
the equations it may occur in, and closing one, d(sym) = 0.  Values and
constraints are not rewritten on the way down; each leaf resolves its
family once, in reverse assignment order.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .linalg import (
    ONE,
    QQ,
    ZERO,
    GradedElement,
    InvalidArgument,
    McLieError,
    RowSpace,
    linear_combination,
    _accumulate,
    _element_of,
    _rational_roots,
    _value,
)
from .dgla import (
    Dgla,
    NotMaurerCartan,
    _gauge_series,
    disjoint_product,
    connected_cover,
    homology_stability,
    is_mc,
    twist,
    zero_dgla,
)
from .cdga import _tensor_label, tensor_dgla_forms


class IncompleteSolve(McLieError):
    """The structured solver could not certify a complete solution list."""


class SolveBudgetExhausted(IncompleteSolve):
    """The structured solver ran out of steps: a resource cap, not a shape
    the rules cannot decide."""

    exit_code = 3
    prefix = "resource cap"


# states the structured solver may pop before it gives up
MAX_SOLVE_STEPS = 4000


# ---------------------------------------------------------------------------
# symbolic polynomials in unknown coefficient forms
# ---------------------------------------------------------------------------
# A factor is (symbol, differentiated); a monomial is a sorted tuple of
# factors; a polynomial maps monomials to rationals.  Parity of a factor is
# its form degree (plus one when differentiated) mod 2.


class SymbolTable:
    def __init__(self):
        self.form_degree: dict[str, int] = {}
        self.constant: set[str] = set()

    def add(self, symbol: str, form_degree: int):
        self.form_degree[symbol] = form_degree

    def factor_parity(self, factor) -> int:
        sym, diff = factor
        return (self.form_degree[sym] + (1 if diff else 0)) % 2

    def factor_form_degree(self, factor) -> int:
        sym, diff = factor
        return self.form_degree[sym] + (1 if diff else 0)


def _sort_factors(factors, table: SymbolTable):
    """Canonical order with Koszul sign; None when an odd factor repeats."""
    factors = list(factors)
    sign = 1
    # insertion sort counting transpositions of odd pairs
    for i in range(1, len(factors)):
        j = i
        while j > 0 and factors[j] < factors[j - 1]:
            if table.factor_parity(factors[j]) and table.factor_parity(factors[j - 1]):
                sign = -sign
            factors[j], factors[j - 1] = factors[j - 1], factors[j]
            j -= 1
    for a, b in zip(factors, factors[1:]):
        if a == b and table.factor_parity(a):
            return None, 0
    return tuple(factors), sign


def _add_term(out, mono, c) -> None:
    """out[mono] += c, dropping the monomial when it cancels (a monomial
    that cancels and comes back goes to the end of the dict); a fresh
    monomial stores c as it is."""
    v = out.get(mono)
    if v is None:
        if c:
            out[mono] = c
    else:
        v += c
        if v:
            out[mono] = v
        else:
            del out[mono]


def poly_zero():
    return {}


def poly_const(c: Fraction):
    return {(): c} if c else {}


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        _add_term(out, m, c)
    return out


def poly_scale(p, c: Fraction):
    if not c:
        return {}
    return {m: v * c for m, v in p.items()}


def poly_mul(p, q, table: SymbolTable):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            merged, sign = _sort_factors(m1 + m2, table)
            if merged is None:
                continue
            _add_term(out, merged, sign * c1 * c2)
    return out


def poly_d(p, table: SymbolTable):
    """Formal de Rham differential: alpha -> d(alpha), d(alpha) -> 0, with
    Koszul prefix signs; constants differentiate to zero."""
    out = {}
    for mono, c in p.items():
        prefix_parity = 0
        for i, (sym, diff) in enumerate(mono):
            if not diff and sym not in table.constant:
                new = mono[:i] + ((sym, True),) + mono[i + 1:]
                sorted_m, sign = _sort_factors(new, table)
                if sorted_m is not None:
                    s = (-1 if prefix_parity % 2 else 1) * sign
                    _add_term(out, sorted_m, s * c)
            prefix_parity += table.factor_parity((sym, diff))
    return out


def poly_substitute(p, sym: str, value, table: SymbolTable):
    """Replace sym by value (a polynomial) and d(sym) by d(value).

    Returns p itself when sym does not occur in it (polynomials are never
    mutated in place); monomials without sym keep their coefficient, and
    the sums keep the dict order of a term-by-term `poly_add`.

    A constant value, 0 or k (every value R1, R2 and c alpha = 0 assign),
    substitutes by filtering, with no product: a monomial with d(sym)
    vanishes, sym^e becomes k^e, and the other factors stay sorted, with
    sign +1, as a constant is even.  Only a value from linear isolation
    with a symbol in it takes the general path through poly_mul."""
    plain, diffed = (sym, False), (sym, True)
    out = {}
    if not value or (len(value) == 1 and () in value):
        k, hit = value.get(()), False
        for mono, c in p.items():
            if plain in mono or diffed in mono:
                hit = True
                if k is None or diffed in mono:
                    continue
                rest = tuple([f for f in mono if f != plain])
                e = len(mono) - len(rest)
                c = c * (k if e == 1 else k ** e)
                mono = rest
            _add_term(out, mono, c)
        return out if hit else p
    if not any(plain in mono or diffed in mono for mono in p):
        return p
    dvalue = None
    for mono, c in p.items():
        if plain in mono or diffed in mono:
            term = poly_const(c)
            for factor in mono:
                if factor == plain:
                    piece = value
                elif factor == diffed:
                    if dvalue is None:
                        dvalue = poly_d(value, table)
                    piece = dvalue
                else:
                    piece = {(factor,): ONE}
                term = poly_mul(term, piece, table)
        else:
            term = {mono: c}
        for m, v in term.items():
            _add_term(out, m, v)
    return out


def poly_mark_constant(p, sym: str):
    """Drop monomials containing d(sym) after sym is marked constant; p
    itself when none does."""
    out = {m: c for m, c in p.items() if (sym, True) not in m}
    return out if len(out) < len(p) else p


def poly_symbols(p):
    return {f[0] for m in p for f in m}


# ---------------------------------------------------------------------------
# constraint systems
# ---------------------------------------------------------------------------

class MCConstraintSystem:
    """Component-wise constraints on the unknown coefficient forms of a
    degree -1 element of g (x) Omega(Delta^n)."""

    def __init__(self, g: Dgla, n: int, table: SymbolTable,
                 unknowns: dict[str, str], equations: dict[str, dict],
                 support_weight: Optional[int] = None):
        self.g = g
        self.simplex_dim = n
        self.table = table
        self.unknowns = unknowns  # symbol -> g-basis label
        self.equations = equations  # g-basis label -> polynomial
        self.support_weight = support_weight

    def equation_items(self):
        return sorted(self.equations.items())

    def pretty(self) -> list[str]:
        lines = []
        for lab, poly in self.equation_items():
            lines.append("%s: %s = 0" % (lab, pretty_poly(poly)))
        return lines


def pretty_poly(p) -> str:
    if not p:
        return "0"
    parts = []
    for mono in sorted(p, key=lambda m: (len(m), m)):
        c = p[mono]
        factors = []
        for sym, diff in mono:
            factors.append(("d%s" % sym) if diff else sym)
        body = "*".join(factors) if factors else "1"
        if c == ONE and factors:
            parts.append("+ %s" % body)
        elif c == -ONE and factors:
            parts.append("- %s" % body)
        elif c > 0:
            parts.append("+ %s %s" % (c, body))
        else:
            parts.append("- %s %s" % (-c, body))
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else s


def unknown_symbol(glabel: str) -> str:
    return "a[%s]" % glabel


def derive_constraints(g: Dgla, n: int, support_weight: Optional[int] = None
                       ) -> MCConstraintSystem:
    """Expand d(xi) + 1/2 [xi, xi] for the generic degree -1 element
    xi = sum b (x) alpha_b and collect coefficients per basis component.

    alpha_b is an unknown (|b|+1)-form; basis elements above the support
    weight (when given) are excluded from the ansatz, so their components
    become pure constraint equations.
    """
    table = SymbolTable()
    unknowns: dict[str, str] = {}
    terms: list[tuple[str, int, str]] = []  # (symbol, degree, label)
    for deg in g.space.degrees():
        p = deg + 1
        if p < 0 or p > n:
            continue
        for lab in g.space.labels(deg):
            if support_weight is not None and g.weights is not None and \
                    g.weights.get(lab, 1) > support_weight:
                continue
            sym = unknown_symbol(lab)
            table.add(sym, p)
            if n == 0:
                table.constant.add(sym)
            unknowns[sym] = lab
            terms.append((sym, deg, lab))

    equations: dict[str, dict] = {}

    def accumulate(target: GradedElement, mono, scale):
        # every label target touches gets its equation, even when the
        # monomial vanishes (mono None), so the dict keeps its label order
        for (_, lab2), c in target.coeffs.items():
            eq = equations.setdefault(lab2, {})
            if mono is not None:
                _add_term(eq, mono, scale * c)

    # d xi = sum (d b) alpha_b + (-1)^{|b|} b d(alpha_b)
    for sym, deg, lab in terms:
        b = g.space.basis_element(deg, lab)
        accumulate(g.d(b), ((sym, False),), ONE)
        accumulate(b, ((sym, True),), -ONE if deg % 2 else ONE)
    # 1/2 [xi, xi]: [b a, c b'] = (-1)^{p_a |c|} [b, c] a b', and a b'
    # sorts with its Koszul sign
    half = {1: QQ(1, 2), -1: QQ(-1, 2)}
    for (s1, d1, l1), (s2, d2, l2) in itertools.product(terms, repeat=2):
        br = g.bracket_labels(d1, l1, d2, l2)
        if br.is_zero():
            continue
        mono, sign = _sort_factors(((s1, False), (s2, False)), table)
        if ((d1 + 1) * d2) % 2:
            sign = -sign
        accumulate(br, mono, half.get(sign))

    equations = {lab: p for lab, p in equations.items() if p}
    return MCConstraintSystem(g, n, table, unknowns, equations,
                              support_weight=support_weight)


# ---------------------------------------------------------------------------
# the structured solver
# ---------------------------------------------------------------------------

class SolutionFamily:
    """One leaf of the solve tree: explicit values for solved unknowns,
    free form symbols subject to linear constraints (closedness of some
    combinations of them), and a completeness marker for the branch."""

    def __init__(self, assignments: dict[str, dict], free: list[str],
                 constraints: list[dict], complete: bool, constants: set[str]):
        self.assignments = assignments
        self.free = free
        self.constraints = constraints
        self.complete = complete
        self.constants = constants

    def is_discrete(self) -> bool:
        return not self.free

    def vertex_element(self, system: MCConstraintSystem) -> GradedElement:
        """The solution as an element of g in the discrete constant case."""
        if not self.is_discrete():
            raise IncompleteSolve("vertex of a family with free symbols")
        terms = []
        for sym, glab in system.unknowns.items():
            val = self.assignments.get(sym, poly_zero())
            if any(m != () for m in val):
                raise IncompleteSolve("vertex has non-constant coefficients")
            terms.append((val.get((), ZERO), GradedElement({(-1, glab): ONE})))
        return linear_combination(terms)

    def describe(self, system: MCConstraintSystem) -> str:
        parts = []
        for sym in sorted(system.unknowns):
            val = self.assignments.get(sym)
            if val is None:
                parts.append("%s free" % sym)
            elif val:
                parts.append("%s = %s" % (sym, pretty_poly(val)))
        for cons in self.constraints:
            parts.append("%s = 0" % pretty_poly(cons))
        return "; ".join(parts) if parts else "0"


class SolveResult:
    """Solution families with the solver's counters: `steps` states popped,
    `branches` states split by a branching rule, `leaves` states resolved
    as leaves and `skipped` states dropped as equal to one already
    expanded."""

    def __init__(self, families: list[SolutionFamily], complete: bool,
                 steps: int, branches: int, leaves: int, skipped: int):
        self.families = families
        self.complete = complete
        self.steps = steps
        self.branches = branches
        self.leaves = leaves
        self.skipped = skipped

    def discrete_vertices(self, system: MCConstraintSystem) -> list[GradedElement]:
        if not self.complete:
            raise IncompleteSolve("solution list is not certified complete")
        out = []
        for fam in self.families:
            if not fam.is_discrete():
                raise IncompleteSolve("solution set contains free families")
            out.append(fam.vertex_element(system))
        return list(dict.fromkeys(out))


def _substitute_state(equations, sym, value, table, occurs):
    """The equations occurs[sym] names that sym := value changes, as
    {label: new polynomial}; their labels join occurs[s] for each symbol s
    of value."""
    changed = {}
    introduced = poly_symbols(value)
    for lab in occurs.get(sym, ()):
        p = equations.get(lab)
        if p is None:
            continue
        q = poly_substitute(p, sym, value, table)
        if q is not p:
            changed[lab] = q
            for s in introduced:
                occurs.setdefault(s, set()).add(lab)
    return changed


class _State:
    """A node of the solve tree.  Its equations mention only free symbols;
    `assigned` maps each solved symbol, in solving order, to a value in the
    symbols free at that moment.  `assigned_keys` and `constraint_keys`
    hold the `_poly_key` of each value and constraint, computed once.
    `table` and `occurs` (symbol -> labels of the equations it may occur
    in, in any node; it only grows) belong to the whole search.
    `equations` stays in label order: sorted once, then rewritten in place
    or copied in order, and no label is ever added.  `keys` holds each
    equation's `_poly_key` in the same order, computed when the equation
    changes.  A child shares `equations` and `keys` with its parent
    (`shared`) until its first rewrite copies them; after that it rewrites
    its own copies in place, so a parent never changes under its children.
    Every value R1, R2 and c alpha = 0 assign is a constant, which
    `poly_substitute` puts in by filtering the monomials.

    `queue` is a heap of the labels whose equations changed since the
    forced rules last looked at them.  The worklist invariant: an equation
    whose label is not queued fits no forced rule.  The root queues every
    label; a child queues only those its branch assignment or closure
    changed, as its parent fit no rule.

    `key()` identifies a state up to the order of assignment: a value
    mentions only symbols free when it was assigned, so the map alone fixes
    the order in which the leaf resolves the values, and the search reads
    only the equations, constants and constraints."""

    def __init__(self, equations, keys, queue, table, occurs):
        self.equations = equations
        self.keys = keys
        self.shared = False
        self.queue = queue
        self.assigned: dict[str, dict] = {}
        self.assigned_keys: dict[str, tuple] = {}
        self.constants = set(table.constant)
        self.constraints: list[dict] = []
        self.constraint_keys: list[tuple] = []
        self.table = table
        self.occurs = occurs

    def child(self) -> "_State":
        node = object.__new__(_State)
        node.__dict__.update(self.__dict__)
        node.shared, node.queue = True, []
        node.assigned = dict(self.assigned)
        node.assigned_keys = dict(self.assigned_keys)
        node.constants = set(self.constants)
        node.constraints = list(self.constraints)
        node.constraint_keys = list(self.constraint_keys)
        return node

    def key(self) -> tuple:
        """Exact key; the constraints keep their multiplicity."""
        return (tuple(self.keys.items()),
                tuple(sorted(self.assigned_keys.items())),
                tuple(sorted(self.constants)),
                tuple(sorted(self.constraint_keys)))


def _poly_key(p) -> tuple:
    """p's terms in monomial order, each coefficient as its (numerator,
    denominator) ints, which hash without Fraction.__hash__."""
    return tuple(sorted([(m, (c.numerator, c.denominator)) for m, c in p.items()]))


def _rewrite(state: _State, changed) -> None:
    """Replace the equations changed names ({label: polynomial}): a zero
    one is dropped, any other is re-keyed and queued."""
    if not changed:
        return
    if state.shared:
        state.equations, state.keys = dict(state.equations), dict(state.keys)
        state.shared = False
    equations, keys = state.equations, state.keys
    for lab, q in changed.items():
        if q:
            equations[lab] = q
            keys[lab] = _poly_key(q)
            heapq.heappush(state.queue, lab)
        else:
            del equations[lab], keys[lab]


def _assign(state: _State, sym: str, value) -> None:
    """sym := value in the equations; the values assigned before and the
    constraints take it at the leaf."""
    _rewrite(state, _substitute_state(state.equations, sym, value,
                                      state.table, state.occurs))
    state.assigned[sym] = value
    state.assigned_keys[sym] = _poly_key(value)


def _constrain(state: _State, p) -> None:
    state.constraints.append(p)
    state.constraint_keys.append(_poly_key(p))


def _close(state: _State, sym: str) -> None:
    """d(sym) = 0 in the equations: a 0-form not yet constant becomes
    constant, any other symbol gets the constraint d(sym) = 0."""
    if state.table.form_degree[sym] == 0 and sym not in state.constants:
        state.constants.add(sym)
    else:
        _constrain(state, {((sym, True),): ONE})
    changed = {}
    for lab in state.occurs.get(sym, ()):
        p = state.equations.get(lab)
        if p is not None:
            q = poly_mark_constant(p, sym)
            if q is not p:
                changed[lab] = q
    _rewrite(state, changed)


def _isolated(p):
    """(sym, value) solving p = 0 for a monomial that is a lone symbol
    occurring in no other monomial, or None."""
    for mono, c in p.items():
        if len(mono) == 1 and not mono[0][1]:
            sym = mono[0][0]
            if all(f[0] != sym for m in p if m != mono for f in m):
                return sym, poly_scale({m: v for m, v in p.items() if m != mono},
                                       -ONE / c)
    return None


def _propagate(state: _State) -> Optional[_State]:
    """Apply the forced rules, each time to the first equation in label
    order that one fits, until none fits: c d(alpha) = 0 closes alpha,
    c alpha = 0 assigns 0, a combination of pure differentials becomes a
    closedness constraint, and a linearly isolated symbol is solved for.
    None on a nonzero constant.

    Only queued labels are checked, least first.  Whether a rule fits reads
    only the polynomial, and an equation left out of the queue was checked,
    fit none, and has not changed since (the worklist invariant of
    `_State`); so the least queued label that fits is the first in label
    order that fits.  A rule re-queues only the equations it changed."""
    queue = state.queue
    while queue:
        lab = heapq.heappop(queue)
        p = state.equations.get(lab)
        if p is None or (queue and queue[0] == lab):
            continue  # dropped, or checked when its last copy is popped
        if len(p) == 1:
            (mono, _c), = p.items()
            if not mono:
                return None
            if len(mono) == 1:
                sym, diff = mono[0]
                if diff:
                    _close(state, sym)
                else:
                    _assign(state, sym, poly_zero())
                continue
        if all(len(m) == 1 and m[0][1] for m in p):
            _constrain(state, p)
            _rewrite(state, {lab: poly_zero()})
            continue
        iso = _isolated(p)
        if iso is not None:
            _assign(state, *iso)
    return state


def _branch(state: _State) -> Optional[list[_State]]:
    """The children, in push order, of the first equation in label order
    that R2 or R3 fits, or None."""
    table = state.table

    def child(sym, value):
        # value None closes sym, anything else is assigned to it
        node = state.child()
        if value is None:
            _close(node, sym)
        else:
            _assign(node, sym, value)
        return node

    for lab, p in state.equations.items():
        syms = poly_symbols(p)
        # R2: a single-variable quadratic in a 0-form unknown
        if len(syms) == 1:
            sym, = syms
            if table.form_degree[sym] == 0 and \
                    all(not f[1] for m in p for f in m) and \
                    {len(m) for m in p} <= {1, 2}:
                c1 = p.get(((sym, False),), ZERO)
                c2 = p.get(((sym, False), (sym, False)), ZERO)
                return [child(sym, poly_const(root))
                        for root in ([ZERO, -c1 / c2] if c2 else [ZERO])]
        # R3: a monomial with at most one higher-form factor vanishes when
        # one of its factors does
        if len(p) == 1:
            (mono, _c), = p.items()
            if mono and sum(table.factor_form_degree(f) >= 1 for f in mono) <= 1:
                return [child(sym, None if diff else poly_zero())
                        for sym, diff in dict.fromkeys(mono)]
    return None


def _leaf_family(state: _State, system: MCConstraintSystem,
                 complete: bool) -> Optional[SolutionFamily]:
    """Resolve a leaf once.  In reverse solving order, each value takes the
    resolved values of the symbols solved after it, the only assigned ones
    it can mention; the constraints take them all.  Then d(c) = 0 for every
    constant c.  None when a constraint is a nonzero constant."""
    table, constants = state.table, state.constants
    order = {sym: i for i, sym in enumerate(state.assigned)}

    def resolve(p, resolved):
        syms = poly_symbols(p)
        if not syms:
            return p
        for sym in sorted(syms & resolved.keys(), key=order.get):
            p = poly_substitute(p, sym, resolved[sym], table)
        return {m: c for m, c in p.items()
                if not any(f[1] and f[0] in constants for f in m)}

    resolved: dict[str, dict] = {}
    for sym in reversed(state.assigned):
        resolved[sym] = resolve(state.assigned[sym], resolved)
    constraints = [c for c in (resolve(c, resolved) for c in state.constraints) if c]
    if any(list(c) == [()] for c in constraints):
        return None
    assignments = {sym: resolved[sym] for sym in state.assigned}
    free = [s for s in system.unknowns if s not in assignments]
    return SolutionFamily(assignments, free, constraints, complete, constants)


def solve_structured(system: MCConstraintSystem,
                     max_steps: Optional[int] = None) -> SolveResult:
    """Solve the system by the rules R1-R3, depth first; raises
    SolveBudgetExhausted after max_steps (default MAX_SOLVE_STEPS) popped
    states.  A propagated state equal to one already expanded, up to the
    order of assignment, is skipped: its descendants strictly grow it, so
    the first copy's subtree is done and gave the same families."""
    if max_steps is None:
        max_steps = MAX_SOLVE_STEPS
    table = system.table
    occurs: dict[str, set] = {}
    for lab, p in system.equations.items():
        for sym in poly_symbols(p):
            occurs.setdefault(sym, set()).add(lab)
    equations = {lab: p for lab, p in sorted(system.equations.items()) if p}
    keys = {lab: _poly_key(p) for lab, p in equations.items()}
    stack = [_State(equations, keys, list(equations), table, occurs)]
    families: dict[tuple, SolutionFamily] = {}
    complete = True
    steps = branches = leaves = skipped = 0
    seen: set[tuple] = set()
    while stack:
        steps += 1
        if steps > max_steps:
            raise SolveBudgetExhausted(
                "structured MC solve used its budget of %d steps on %d "
                "unknowns and %d equations" % (
                    max_steps, len(system.unknowns), len(system.equations)))
        state = _propagate(stack.pop())
        if state is None:
            continue
        key = state.key()
        if key in seen:
            skipped += 1
            continue
        seen.add(key)
        children = _branch(state)
        if children is not None:
            branches += 1
            stack.extend(children)
            continue
        leaves += 1
        leaf_complete = not state.equations
        complete = complete and leaf_complete
        fam = _leaf_family(state, system, leaf_complete)
        if fam is not None:
            # discrete families repeat across branches: keep the first
            key = (tuple(sorted((s, _poly_key(v)) for s, v in fam.assignments.items())),
                   tuple(sorted(fam.free)),
                   tuple(sorted(_poly_key(c) for c in fam.constraints)))
            families.setdefault(key, fam)
    return SolveResult(list(families.values()), complete, steps, branches,
                       leaves, skipped)


# ---------------------------------------------------------------------------
# vertices and instantiation
# ---------------------------------------------------------------------------

WINDOW_BASIS_CAP = 4000


def _ambient_for_windows(g: Dgla, support: Optional[int]):
    """The algebra in which vertex equations are evaluated: for presented
    truncations, re-materialize deep enough (twice the support) that every
    MC component of a weight <= support element is present.

    Presented truncations default to the window at their own weight bound,
    shrunk until the free cover of the doubled window stays desk-sized
    (explicitly requested supports are honored as given); plain finite
    dglas are taken as they are.
    """
    if g.presentation is None or g.weight_bound is None:
        return g, support
    if support is None:
        from .freelie import truncated_basis_estimate
        support = g.weight_bound
        gens = g.presentation.pres.generators
        while support > 1 and truncated_basis_estimate(
                gens, max(g.weight_bound, 2 * support), WINDOW_BASIS_CAP) is None:
            support -= 1
    window = max(g.weight_bound, 2 * support)
    if window == g.weight_bound:
        return g, support
    return g.presentation.materialize(window, check="skip"), support


def mc_vertices(g: Dgla, support: Optional[int] = None):
    """Certified MC vertex list of g with coefficient support restricted to
    basis elements of weight <= support (all of g when None); equations are
    evaluated in a 2*support ambient so the component equations of the
    ansatz are complete.

    Returns (system, SolveResult, vertex elements)."""
    ambient, support = _ambient_for_windows(g, support)
    system = derive_constraints(ambient, 0, support_weight=support)
    result = solve_structured(system)
    vertices = result.discrete_vertices(system)
    for v in vertices:
        ok, res = is_mc(ambient, v)
        if not ok:
            raise NotMaurerCartan("solver emitted a non-MC vertex: %r" % res)
        if ambient is not g:
            ok, res = is_mc(g, v)
            if not ok:
                raise NotMaurerCartan(
                    "solver vertex is not MC in g: %r" % res)
    return system, result, vertices


# ---------------------------------------------------------------------------
# gauge orbits and pi_0
# ---------------------------------------------------------------------------

def _gauge_connection(g: Dgla, b: GradedElement, xi: GradedElement,
                      eta: GradedElement) -> Optional[Fraction]:
    """The least rational t with gauge(t*b, xi) = eta, or None.  Each
    coordinate of gauge(t*b, xi) - eta is a polynomial in t; the candidates
    are the rational roots of the first nonzero one, and each is checked
    exactly on every coordinate."""
    series = _gauge_series(g, b, xi)
    top = max(series, default=0)
    keys = set(eta.coeffs).union(*(c.coeffs for c in series.values()))
    polys = []
    for key in sorted(keys):
        p = [series[k].coeffs.get(key, ZERO) if k in series else ZERO
             for k in range(top, -1, -1)]
        p[-1] -= eta.coeffs.get(key, ZERO)
        if any(p):
            polys.append(p)
    if not polys:
        return ZERO  # identical elements
    for t in _rational_roots(polys[0]):
        if not any(_value(p, t) for p in polys):
            return t
    return None


class MCModuli:
    """Gauge-orbit representatives of the MC vertex set, with the witnesses
    connecting each vertex to its representative."""

    def __init__(self, representatives: list[GradedElement],
                 orbits: list[list[GradedElement]],
                 witnesses: dict, kind: str, dims: Optional[dict] = None,
                 support: Optional[int] = None):
        self.representatives = representatives
        self.orbits = orbits
        self.witnesses = witnesses
        self.kind = kind
        self.dims = dims or {}
        self.support = support

    def count(self) -> int:
        return len(self.representatives)


def partition_by_gauge(g: Dgla, vertices: Sequence[GradedElement]):
    """Partition a finite vertex list into gauge orbits by single-generator
    moves gauge(t*b, -) with exact rational t, closed transitively.

    Each pair i < j is tried in one direction: the gauge action is a group
    action, so gauge(t*b, v_j) = v_i exactly when gauge(-t*b, v_i) = v_j.

    Returns (representatives, orbits, witnesses); a witness (i, j) ->
    (label, t) records gauge(t * basis[label], v_i) = v_j, for i < j.
    """
    n = len(vertices)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    witnesses = {}
    g0 = [g.space.basis_element(0, lab) for lab in g.space.labels(0)]
    for i, j in itertools.combinations(range(n), 2):
        if find(i) == find(j):
            continue
        for bidx, b in enumerate(g0):
            t = _gauge_connection(g, b, vertices[i], vertices[j])
            if t is not None:
                witnesses[(i, j)] = (g.space.labels(0)[bidx], t)
                union(i, j)
                break
    orbit_map: dict[int, list[GradedElement]] = {}
    for i, v in enumerate(vertices):
        orbit_map.setdefault(find(i), []).append(v)
    reps = [vertices[r] for r in sorted(orbit_map)]
    orbits = [orbit_map[r] for r in sorted(orbit_map)]
    return reps, orbits, witnesses


def pi0_moduli(g: Dgla, support: Optional[int] = None) -> MCModuli:
    """MC moduli set pi_0: for abelian g the cosets of cycles modulo
    boundaries in degree -1 (a linear computation); otherwise the certified
    vertex list partitioned into gauge orbits by iterated single-generator
    gauge moves with exact rational connection solving."""
    if g.is_abelian():
        h = g.homology()
        reps = h.representatives(-1)
        return MCModuli(reps if reps else [GradedElement()],
                        [[r] for r in reps] if reps else [[GradedElement()]],
                        {}, "abelian-linear",
                        dims={"H_-1": h.dim(-1)})
    system, result, vertices = mc_vertices(g, support)
    reps, orbits, witnesses = partition_by_gauge(g, vertices)
    return MCModuli(reps, orbits, witnesses, "gauge-orbits",
                    support=system.support_weight)


# ---------------------------------------------------------------------------
# simplicial MC sets
# ---------------------------------------------------------------------------

def instantiate_solution(system: MCConstraintSystem, family: SolutionFamily,
                         tensor, free_values: Optional[Mapping[str, GradedElement]]
                         = None) -> GradedElement:
    """The MC element of g (x) Omega determined by a solution family and
    concrete values for its free form symbols; coordinates in the labels of
    the tensor dgla."""
    omega = tensor.form_algebra
    free_values = dict(free_values or {})
    table = system.table

    def eval_poly(p) -> GradedElement:
        terms = []
        for mono, c in p.items():
            term = omega.unit
            for sym, diff in mono:
                if sym in free_values:
                    val = free_values[sym]
                elif sym in family.assignments:
                    raise ValueError("assignments must be fully substituted")
                else:
                    raise ValueError("missing value for free symbol %s" % sym)
                if diff:
                    val = omega.d(val)
                term = omega.multiply(term, val)
            terms.append((c, term))
        return linear_combination(terms)

    xi: dict = {}
    for sym, glab in system.unknowns.items():
        if sym in family.assignments:
            val_poly = family.assignments[sym]
            const = val_poly.get((), ZERO)
            rest = {m: v for m, v in val_poly.items() if m != ()}
            omega_val = omega.unit.scale(const) + eval_poly(rest)
        elif sym in free_values:
            omega_val = free_values[sym]
        else:
            raise ValueError("free symbol %s has no value" % sym)
        # the coefficient of an element b is a (|b| + 1)-form
        gdeg = table.form_degree[sym] - 1
        _accumulate(xi, {(gdeg + nw, _tensor_label(glab, wlab)): c
                         for (nw, wlab), c in omega_val.coeffs.items()}, ONE)
    return _element_of(xi)


def family_samples(system: MCConstraintSystem, family: SolutionFamily,
                   tensor) -> list[GradedElement]:
    """Instantiations of a solution family: the free symbols range over the
    joint kernel of the family's linear constraints inside the form
    algebra, sampled at the kernel basis plus zero."""
    if family.is_discrete():
        return [instantiate_solution(system, family, tensor)]
    omega = tensor.form_algebra
    frees = sorted(family.free)
    coords: list[tuple[str, GradedElement]] = []
    for sym in frees:
        p = system.table.form_degree[sym]
        if sym in family.constants and p == 0:
            monos = [omega.unit]
        else:
            monos = [omega.space.basis_element(-p, lab)
                     for lab in omega.space.labels(-p)]
        coords.extend((sym, m) for m in monos)
    rows = []
    for cons in family.constraints:
        cells: dict = {}
        for j, (sym, mono_elt) in enumerate(coords):
            terms = []
            for m, c in cons.items():
                (csym, cdiff), = m
                if csym == sym:
                    terms.append((c, omega.d(mono_elt) if cdiff else mono_elt))
            for key, c in linear_combination(terms).coeffs.items():
                cells.setdefault(key, {})[j] = c
        rows.extend(cells.values())
    out = []
    for vec in RowSpace(len(coords), rows).kernel() + [{}]:
        free_values: dict = {sym: {} for sym in frees}
        for j, c in sorted(vec.items()):
            sym, mono_elt = coords[j]
            _accumulate(free_values[sym], mono_elt.coeffs, c)
        out.append(instantiate_solution(
            system, family, tensor,
            {sym: _element_of(acc) for sym, acc in free_values.items()}))
    return out


def mc_simplices(g: Dgla, n: int, max_degree: int,
                 support: Optional[int] = None) -> dict:
    """MC elements of g (x) Omega(Delta^n): the constraint system, its
    solution families, sample instantiated simplices (each re-verified
    against the exact MC residual), and the face/degeneracy behaviour."""
    ambient, support = _ambient_for_windows(g, support)
    system = derive_constraints(ambient, n, support_weight=support)
    result = solve_structured(system)
    tensor = tensor_dgla_forms(ambient, n, max_degree, check="skip")
    simplices: list[GradedElement] = []
    descriptions: list[str] = []
    for fam in result.families:
        descriptions.append(fam.describe(system))
        if not fam.complete:
            continue  # partial description, not a solution set
        for elt in family_samples(system, fam, tensor):
            ok, res = is_mc(tensor, elt)
            if not ok:
                raise NotMaurerCartan("emitted simplex fails MC: %r" % res)
            if elt not in simplices:
                simplices.append(elt)
    out = {"system": system, "result": result, "complete": result.complete,
           "families": descriptions, "samples": simplices, "tensor": tensor}
    return out


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------

def verify_theorem_f(dglas: Sequence[Dgla], m: int,
                     vertex_support: int = 2) -> dict:
    """pi_0 of the iterated disjoint product against the disjoint union of
    the factor moduli, plus the acyclicity of each g u 0 in stabilized
    cells (the homology-level consequence)."""
    if not dglas:
        raise InvalidArgument("verify_theorem_f needs at least one factor")
    product = dglas[0]
    for h in dglas[1:]:
        product = disjoint_product(product, h, m, check="skip")
    if len(dglas) == 1:
        left = pi0_moduli(product, support=product.weight_bound)
    else:
        left = pi0_moduli(product, support=vertex_support)
    factor_counts = []
    for gi in dglas:
        if gi.total_dim() == 0:
            factor_counts.append(1)
        else:
            factor_counts.append(pi0_moduli(gi).count())
    expected = sum(factor_counts)
    acyclicity = {}
    all_acyclic = True
    for idx, gi in enumerate(dglas):
        gu0 = disjoint_product(gi, zero_dgla(), m, check="skip")
        flags = homology_stability(gu0)
        stable_zero = all(v["dim"] == 0 for v in flags.values() if v["stable"])
        has_stable = any(v["stable"] for v in flags.values())
        acyclicity[idx] = {"flags": flags,
                           "pass": stable_zero and has_stable}
        all_acyclic = all_acyclic and stable_zero and has_stable
    return {
        "moduli_product": left.count(),
        "moduli_factors": factor_counts,
        "bijection": left.count() == expected,
        "acyclicity": acyclicity,
        "pass": (left.count() == expected) and all_acyclic,
        "representatives": [repr(r) for r in left.representatives],
    }


def induced_homology_iso(incl, src: Dgla, dst: Dgla, degree: int) -> bool:
    """Whether the inclusion induces an isomorphism H_degree(src) ->
    H_degree(dst)."""
    hs = src.homology()
    hd = dst.homology()
    if hs.dim(degree) != hd.dim(degree):
        return False
    if hs.dim(degree) == 0:
        return True
    images = [hd.class_of(incl.apply(r), degree) for r in hs.representatives(degree)]
    return None not in images and RowSpace(hd.dim(degree), images).dim() == hd.dim(degree)


COMPONENT_N_MAX = 4


def verify_component_decomposition(g: Dgla, support: Optional[int] = None) -> dict:
    """For each pi_0 representative xi: H_{n-1} of the connected cover of
    g^xi agrees with H_{n-1}(g^xi) for 1 <= n <= COMPONENT_N_MAX, via the
    inclusion.  `vacuous` lists the n where neither has a basis element in
    degree n - 1, so that the comparison reads 0 against 0."""
    moduli = pi0_moduli(g, support=support)
    per_rep = {}
    ok = True
    for idx, xi in enumerate(moduli.representatives):
        twisted = twist(g, xi, check="skip")
        cover, incl = connected_cover(twisted)
        degrees = {}
        for n in range(1, COMPONENT_N_MAX + 1):
            k = n - 1
            iso = induced_homology_iso(incl, cover, twisted, k)
            degrees[n] = iso
            ok = ok and iso
        vacuous = [n for n in degrees if not cover.space.labels(n - 1)
                   and not twisted.space.labels(n - 1)]
        per_rep[idx] = {"xi": repr(xi), "H_iso": degrees, "vacuous": vacuous}
    return {"pass": ok, "representatives": per_rep,
            "moduli_count": moduli.count()}
