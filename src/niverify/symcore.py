"""Symbolic values, expressions, paths and stores shared by every engine.

A symbolic store maps program variables to expressions over *symbolic
values* (opaque integer unknowns); a symbolic path is the conjunction of
branch conditions collected along one execution path.  Valuations close the
loop back to concrete integers: a precise store ``(rho, path)`` describes
exactly the pairs ``(store, valuation)`` where every variable evaluates to
its concrete value and the path holds.

Expressions are constant-folded on construction and nothing else; stronger
rewriting would change which expressions compare syntactically equal (a
precision knob, not a soundness one), so we keep terms predictable.

Paths grow one conjunct at a time and can get long (one conjunct per loop
iteration), so every path node carries what walks over it would need:
its hash, size and DNF clause counts from construction, and, on first
use, an index of its conjuncts and its normal form, the linear rows the
solver reads (the tightest row per coefficient vector).  The last two are
built from the nearest prefix that has them, so asking them of a path one
conjunct longer costs about one conjunct; a second extension of a prefix
layers its index over the prefix's instead of copying it.  A comparison
leaf likewise keeps its negation (linked back) and its rows once asked
for them, and the relational engine hands a fork the leaves it
built for the same guard from the same pairs (``relational.RelEngine``'s
per-run guard memo), so a guard's rows are built once per run.  All of it
hangs off the nodes of one run, or off its engine; no table outlives it.

Value types.  The records an exploration builds for every state (terms,
paths, stores, interval states, commands, relational and product states)
are ``@dataclass(slots=True)``, not frozen: nothing mutates them, slots
stop stray attributes, and a frozen ``__init__`` costs about four times as
much.  They must still hash exactly as frozen dataclasses did, because set
and dict iteration order picks the solver's elimination order, and with it
Unsat strength, blowups and models.  So a record hashes as the hash of its
field tuple (``unsafe_hash=True``, or a hash cached at construction with
that same formula, as the terms and path nodes do), and a symbol hashes as
its uid.  A ``PreciseStore`` holds its store dict as given, so it and the
states around it are not hashable.  Stores keep sorted variable order, and
havoc mints fresh symbols in that order.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from niverify import lang
from niverify.lang import BExpr, Expr, NEGATED_CMP, Store, apply_cmp, apply_op


class MissingSymbol(KeyError):
    """A valuation was asked for a symbol it does not define."""


class SymValue(int):
    """An opaque integer unknown.

    The integer value is ``uid``, unique within one analysis run and the
    identity: a symbol hashes, compares and sorts as its uid, all in C.
    ``name`` is a human-readable label (``x`` for the canonical initial
    value of ``x``, ``x#3`` for fresh symbols minted later), and ``str``
    gives it.
    """

    def __new__(cls, uid: int, name: str) -> SymValue:
        sym = super().__new__(cls, uid)
        sym.name = name
        return sym

    @property
    def uid(self) -> int:
        return int(self)

    def __getnewargs__(self) -> tuple[int, str]:
        return (int(self), self.name)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"SymValue(uid={int(self)}, name={self.name!r})"


class SymbolFactory:
    """Mints run-unique symbols with deterministic, collision-free names.

    The bare variable name is used at most once (for the single-trace
    initial value); every other symbol for the same variable gets a ``#n``
    suffix.  Program identifiers cannot contain ``#``, so names never
    collide across variables either.
    """

    def __init__(self) -> None:
        self._uids = itertools.count()
        self._per_hint: dict[str, itertools.count] = {}
        self._initials: dict[str, SymValue] = {}

    def initial(self, var: str) -> SymValue:
        """The canonical symbol for the initial value of ``var`` (one per run)."""
        if var not in self._initials:
            self._initials[var] = SymValue(next(self._uids), var)
        return self._initials[var]

    def fresh(self, hint: str) -> SymValue:
        counter = self._per_hint.setdefault(hint, itertools.count())
        return SymValue(next(self._uids), f"{hint}#{next(counter)}")


# ---------------------------------------------------------------------------
# Symbolic expressions
# ---------------------------------------------------------------------------


# A term computes its hash once, with the formula a frozen dataclass uses.
# Equality tries identity, then the hash, then the fields.


@dataclass(slots=True)
class SConst:
    value: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._hash = hash((self.value,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not SConst:
            return NotImplemented
        return self._hash == other._hash and self.value == other.value

    def __str__(self) -> str:
        return str(self.value)


@dataclass(slots=True)
class SVal:
    sym: SymValue
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._hash = hash((self.sym,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not SVal:
            return NotImplemented
        return self._hash == other._hash and self.sym == other.sym

    def __str__(self) -> str:
        return str(self.sym)


@dataclass(slots=True)
class SBinOp:
    op: str
    left: SymExpr
    right: SymExpr
    _hash: int = field(init=False, repr=False, compare=False)
    # The term's polynomial and symbols, kept by ``_expr_poly`` and
    # ``symbols_of_expr`` if an operand is an operation.
    _poly: Poly | None = field(init=False, repr=False, compare=False)
    _symbols: frozenset[SymValue] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._hash = hash((self.op, self.left, self.right))
        self._poly = None
        self._symbols = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not SBinOp:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            if a.__class__ is not SBinOp:
                if a != b:
                    return False
            elif a.op != b.op:
                return False
            else:
                pairs.append((a.right, b.right))
                pairs.append((a.left, b.left))
        return True

    def __str__(self) -> str:
        return fold(self, str, lambda op, left, right: f"({left} {op} {right})")


SymExpr = SConst | SVal | SBinOp


def sbinop(op: str, left: SymExpr, right: SymExpr) -> SymExpr:
    """Smart constructor: constant folding plus constant-chain collapsing.

    Semantics-preserving only: two constants fold, a constant tail of an
    additive chain merges (``(e + 1) + 1`` becomes ``e + 2``), and additive
    and multiplicative units and the zero annihilator simplify.
    """
    if isinstance(left, SConst) and isinstance(right, SConst):
        return SConst(apply_op(op, left.value, right.value))
    if op in ("+", "-") and isinstance(right, SConst):
        shift = right.value if op == "+" else -right.value
        if isinstance(left, SBinOp) and left.op in ("+", "-") and isinstance(left.right, SConst):
            inner = left.right.value if left.op == "+" else -left.right.value
            return _shifted(left.left, inner + shift)
        return _shifted(left, shift)
    if op == "+" and isinstance(left, SConst) and left.value == 0:
        return right
    if op == "*" and isinstance(left, SConst):
        if left.value == 0:
            return SConst(0)
        if left.value == 1:
            return right
    if op == "*" and isinstance(right, SConst):
        if right.value == 0:
            return SConst(0)
        if right.value == 1:
            return left
    return SBinOp(op, left, right)


def _shifted(expr: SymExpr, shift: int) -> SymExpr:
    if shift == 0:
        return expr
    if shift > 0:
        return SBinOp("+", expr, SConst(shift))
    return SBinOp("-", expr, SConst(-shift))


# Terms can nest thousands deep (``x := x * 2`` in a long loop), so no walk
# over a term recurses on its depth.


def fold(expr: SymExpr, leaf: Callable, node: Callable):
    """``leaf(t)`` at each constant or symbol term, ``node(op, l, r)`` at each
    operation over its operands' results, bottom up and without recursion."""
    out: list = []
    stack: list = [expr]
    while stack:
        item = stack.pop()
        if item.__class__ is SBinOp:
            stack += (item.op, item.right, item.left)
        elif item.__class__ is str:
            right = out.pop()
            out[-1] = node(item, out[-1], right)
        else:
            out.append(leaf(item))
    return out[0]


# ---------------------------------------------------------------------------
# Linear rows: what the solver reads a comparison as
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of symbols; () is the constant term.  The
# solver relaxes degree >= 2 monomials to opaque unknowns, which only ever
# weakens a clause, so Unsat answers remain sound for the nonlinear original.
Monomial = tuple[SymValue, ...]
Poly = dict[Monomial, int]

# A row is (coeffs over monomial keys, constant) encoding  sum + const <= 0.
Row = tuple[dict[Monomial, int], int]
Clause = list[Row]

# Past this many DNF clauses a path is not normalized ("normalization blowup").
MAX_CLAUSES = 128


class Blowup(Exception):
    """A normal form grew past its budget."""


def _poly_const(n: int) -> Poly:
    return {(): n} if n else {}


def _poly_add(a: Poly, b: Poly, sign: int = 1) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, 0) + sign * coeff
        if out[mono] == 0:
            del out[mono]
    return out


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(sorted(m1 + m2))
            out[mono] = out.get(mono, 0) + c1 * c2
            if out[mono] == 0:
                del out[mono]
    return out


def _leaf_poly(term: SymExpr) -> Poly:
    if term.__class__ is SVal:
        return {(term.sym,): 1}
    if term.__class__ is SConst:
        return _poly_const(term.value)
    raise ValueError(f"unknown symbolic expression {term!r}")


def _node_poly(op: str, lp: Poly, rp: Poly) -> Poly:
    if op == "+":
        return _poly_add(lp, rp)
    if op == "-":
        return _poly_add(lp, rp, sign=-1)
    return _poly_mul(lp, rp)


def _expr_poly(expr: SymExpr) -> Poly:
    """The polynomial of a term, which callers must not mutate (see ``_kept``)."""
    if expr.__class__ is not SBinOp:
        return _leaf_poly(expr)
    if not _nested(expr):
        return _node_poly(expr.op, _leaf_poly(expr.left), _leaf_poly(expr.right))
    return _kept(expr, "_poly", _expr_poly, _node_poly)


def _nested(term: SBinOp) -> bool:
    return term.left.__class__ is SBinOp or term.right.__class__ is SBinOp


def _kept(expr: SBinOp, slot: str, value: Callable[[SymExpr], object], node: Callable) -> object:
    """A value of a nested operation, kept in its ``slot`` once built.

    ``node(op, l, r)`` builds it from its operands' ``value``s.  An
    operation with an operation operand keeps it, so a term one node
    deeper than one already asked about costs one step; an operation over
    two leaves is cheap to redo and keeps nothing, so shallow terms hold
    no extra object.  The walk stops at kept values, and nothing recurses
    on the term's depth.
    """
    stack = [expr]
    while stack:
        term = stack[-1]
        if getattr(term, slot) is not None:
            stack.pop()
            continue
        pending = [
            t for t in (term.right, term.left) if t.__class__ is SBinOp and getattr(t, slot) is None and _nested(t)
        ]
        if pending:
            stack += pending
            continue
        stack.pop()
        setattr(term, slot, node(term.op, value(term.left), value(term.right)))
    return getattr(expr, slot)


def rows_of_cmp(op: str, left: SymExpr, right: SymExpr) -> list[Clause]:
    """Translate one comparison into DNF over rows (only != disjoins)."""
    diff = _poly_add(_expr_poly(left), _expr_poly(right), sign=-1)
    const = diff.pop((), 0)
    coeffs = diff

    def row(scale: int, shift: int) -> Row:
        return ({m: scale * c for m, c in coeffs.items()}, scale * const + shift)

    if op == "<":
        return [[row(1, 1)]]
    if op == "<=":
        return [[row(1, 0)]]
    if op == ">":
        return [[row(-1, 1)]]
    if op == ">=":
        return [[row(-1, 0)]]
    if op == "==":
        return [[row(1, 0), row(-1, 0)]]
    if op == "!=":
        return [[row(1, 1)], [row(-1, 1)]]
    raise ValueError(f"unknown comparison {op!r}")


def normalize_row(row: Row) -> Row | None:
    """Divide by the gcd and tighten the constant.

    Tightening (``sum a_i x_i <= c`` becomes ``sum (a_i/g) x_i <=
    floor(c/g)``) is sound for integer solutions only, which is exactly the
    domain we decide.  Returns None for rows that hold trivially.
    """
    coeffs, const = row
    coeffs = {m: c for m, c in coeffs.items() if c != 0}
    if not coeffs:
        return None if const <= 0 else ({}, 1)
    g = math.gcd(*coeffs.values())
    if g == 1:
        return (coeffs, const)
    # sum + const <= 0  <=>  sum/g + ceil(const/g) <= 0, as sum/g is integral
    return ({m: c // g for m, c in coeffs.items()}, -(-const // g))


def _normalized(clauses: list[Clause]) -> list[Clause]:
    """Clauses of normalized rows; trivial rows and false clauses dropped."""
    out = []
    for clause in clauses:
        rows = [norm for norm in map(normalize_row, clause) if norm is not None]
        if all(coeffs for coeffs, _ in rows):
            out.append(rows)
    return out


# ---------------------------------------------------------------------------
# Symbolic paths
# ---------------------------------------------------------------------------
#
# Every node knows its number of leaves (``size``), its ``symbols`` and its
# DNF clause counts, positive and negated (``clause_counts``, None past
# ``MAX_CLAUSES``).  A conjunction computes its size, clause counts and hash
# from its children, in O(1); its symbols take a walk, which only questions
# about the whole path make.  No walk over a path recurses on its length.


def _times(a: int | None, b: int | None) -> int | None:
    if a is None or b is None or a * b > MAX_CLAUSES:
        return None
    return a * b


def _plus(a: int | None, b: int | None) -> int | None:
    if a is None or b is None or a + b > MAX_CLAUSES:
        return None
    return a + b


@dataclass(slots=True, unsafe_hash=True)
class PTrue:
    size = 1
    symbols = frozenset()
    clause_counts = (1, 0)

    def __str__(self) -> str:
        return "true"


@dataclass(slots=True)
class PCmp:
    op: str
    left: SymExpr
    right: SymExpr
    _hash: int = field(init=False, repr=False, compare=False)
    # Kept once computed: the negation (``pnot``, linked back) and the
    # rows (``cmp_rows``), so a leaf the relational engine reuses for a
    # guard pays for each once per run.
    _negation: PCmp | None = field(init=False, repr=False, compare=False)
    _rows: list[Clause] | None = field(init=False, repr=False, compare=False)

    size = 1

    def __post_init__(self) -> None:
        self._hash = hash((self.op, self.left, self.right))
        self._negation = None
        self._rows = None

    def __hash__(self) -> int:
        return self._hash

    @property
    def clause_counts(self) -> tuple[int, int]:
        return (2 if self.op == "!=" else 1, 2 if self.op == "==" else 1)

    @property
    def symbols(self) -> frozenset[SymValue]:
        return symbols_of_expr(self.left) | symbols_of_expr(self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(slots=True, eq=False)
class PAnd:
    left: SymPath
    right: SymPath
    size: int = field(init=False, repr=False)
    _positive: int | None = field(init=False, repr=False)
    _negated: int | None = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)
    _index: _ConjunctIndex | None = field(init=False, repr=False)
    _normal: NormalForm | None = field(init=False, repr=False)
    # What ``redsoundse.reduction`` asserted on this node, if it returned it.
    _reduced: tuple | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        left, right = self.left, self.right
        (lpos, lneg), (rpos, rneg) = left.clause_counts, right.clause_counts
        self.size = left.size + right.size
        self._positive = _times(lpos, rpos)
        self._negated = _plus(lneg, rneg)
        self._hash = hash((left, right))
        self._index = None
        self._normal = None
        self._reduced = None

    @property
    def clause_counts(self) -> tuple[int | None, int | None]:
        return (self._positive, self._negated)

    @property
    def symbols(self) -> frozenset[SymValue]:
        return frozenset().union(*(leaf.symbols for leaf in conjuncts(self)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PAnd):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if isinstance(a, PAnd) and isinstance(b, PAnd):
                if a._hash != b._hash or a.size != b.size:
                    return False
                pairs.append((a.right, b.right))
                pairs.append((a.left, b.left))
            elif a != b:
                return False
        return True

    def __str__(self) -> str:
        return render(self)


@dataclass(slots=True, unsafe_hash=True)
class PNot:
    operand: SymPath

    size = 1

    @property
    def clause_counts(self) -> tuple[int | None, int | None]:
        positive, negated = self.operand.clause_counts
        return (negated, positive)

    @property
    def symbols(self) -> frozenset[SymValue]:
        return self.operand.symbols

    def __str__(self) -> str:
        return render(self)


SymPath = PTrue | PCmp | PAnd | PNot

TRUE = PTrue()
FALSE = PNot(TRUE)


def pcmp(op: str, left: SymExpr, right: SymExpr) -> SymPath:
    if isinstance(left, SConst) and isinstance(right, SConst):
        return TRUE if apply_cmp(op, left.value, right.value) else FALSE
    return PCmp(op, left, right)


def pand(left: SymPath, right: SymPath) -> SymPath:
    if left.__class__ is PAnd and right.__class__ is PCmp:
        # Neither is true or false, and a comparison is not the negation
        # of a conjunction: the common case of a growing path, decided
        # without building either negation.
        return PAnd(left, right)
    if left == TRUE:
        return right
    if right == TRUE:
        return left
    if left == FALSE or right == FALSE:
        return FALSE
    # A guard conjoined with its own negation cannot hold; catching the
    # syntactic case avoids pointless solver calls on lockstep branches.
    if pnot(left) == right or left == pnot(right):
        return FALSE
    return PAnd(left, right)


def pnot(path: SymPath) -> SymPath:
    if path.__class__ is PCmp:
        # Built once: the negation's negation is this comparison.
        if path._negation is None:
            path._negation = PCmp(NEGATED_CMP[path.op], path.left, path.right)
            path._negation._negation = path
        return path._negation
    match path:
        case PTrue():
            return FALSE
        case PNot(operand):
            return operand
    return PNot(path)


def cmp_rows(leaf: PCmp) -> list[Clause]:
    """``rows_of_cmp`` of a comparison, kept on it; callers must not mutate it."""
    if leaf._rows is None:
        leaf._rows = rows_of_cmp(leaf.op, leaf.left, leaf.right)
    return leaf._rows


def conjuncts(path: SymPath) -> Iterator[SymPath]:
    """The leaves of a path's conjunction tree, left to right."""
    stack = [path]
    while stack:
        node = stack.pop()
        if isinstance(node, PAnd):
            stack.append(node.right)
            stack.append(node.left)
        else:
            yield node


def render(
    path: SymPath,
    leaf: Callable[[SymPath], str] = str,
    conj: tuple[str, str, str] = ("(", " && ", ")"),
    neg: tuple[str, str] = ("!(", ")"),
) -> str:
    """The text of a path: ``conj`` around and between the two sides of a
    conjunction, ``neg`` around a negated operand, ``leaf`` for the rest."""
    out: list[str] = []
    stack: list[SymPath | str] = [path]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, PAnd):
            stack += (conj[2], item.right, conj[1], item.left, conj[0])
        elif isinstance(item, PNot):
            stack += (neg[1], item.operand, neg[0])
        else:
            out.append(leaf(item))
    return "".join(out)


# How many layers an index stacks before an extension flattens them.
MAX_INDEX_LAYERS = 8


class _ConjunctIndex:
    """First positions of the conjuncts along one chain of left-nested conjunctions.

    Every node of the chain is a prefix of the last one to extend it
    (``tip``), so one index answers for all of them: a node holds the
    conjuncts whose first position is at most its size.  Only the tip
    extends the index in place.  Extending an earlier node starts a layer
    over its index: ``first`` holds the positions past ``base_size``, the
    size of the node extended, and ``base`` answers for the rest, so a
    branch copies nothing.  An extension that would stack more than
    ``MAX_INDEX_LAYERS`` layers copies the node's conjuncts into one dict
    instead, so a lookup reads at most that many.
    """

    __slots__ = ("first", "tip", "base", "base_size", "layers")

    def __init__(self, first: dict[SymPath, int], base: _ConjunctIndex | None, base_size: int) -> None:
        self.first = first
        self.tip: SymPath | None = None
        self.base = base
        self.base_size = base_size
        self.layers = 1 if base is None else base.layers + 1


def _flattened(node: PAnd) -> dict[SymPath, int]:
    """The first positions of ``node``'s conjuncts, from its layered index."""
    layers = []
    index, size = node._index, node.size
    while index is not None:
        layers.append((index, size))
        index, size = index.base, index.base_size
    first: dict[SymPath, int] = {}
    for index, size in reversed(layers):
        for conjunct, position in index.first.items():
            if position <= size:
                first.setdefault(conjunct, position)
    return first


def _conjunct_index(path: PAnd) -> _ConjunctIndex:
    if path._index is not None:
        return path._index
    pending: list[PAnd] = []
    node: SymPath = path
    while isinstance(node, PAnd) and node._index is None:
        pending.append(node)
        node = node.left
    if not isinstance(node, PAnd):
        index = _ConjunctIndex({node: 1}, None, 0)
    elif node._index.tip is node:
        index = node._index
    elif node._index.layers < MAX_INDEX_LAYERS:
        index = _ConjunctIndex({}, node._index, node.size)
    else:
        index = _ConjunctIndex(_flattened(node), None, 0)
    for link in reversed(pending):
        position = link.left.size
        for leaf in conjuncts(link.right):
            position += 1
            index.first.setdefault(leaf, position)
        link._index = index
    index.tip = path
    return index


def has_conjunct(path: SymPath, conjunct: SymPath) -> bool:
    """Whether ``conjunct`` is one of the leaves of ``path``."""
    if not isinstance(path, PAnd):
        return path == conjunct
    index, size = _conjunct_index(path), path.size
    while True:
        position = index.first.get(conjunct)
        if position is not None and position <= size:
            return True
        if index.base is None:
            return False
        index, size = index.base, index.base_size


def _leaf_dnf(leaf: SymPath, positive: bool) -> list[Clause]:
    match leaf:
        case PTrue():
            return [[]] if positive else []
        case PNot(operand):
            return dnf(operand, not positive)
        case PCmp():
            return cmp_rows(leaf if positive else pnot(leaf))
    raise ValueError(f"unknown path {leaf!r}")


def dnf(path: SymPath, positive: bool = True) -> list[Clause]:
    """Clauses of rows; an empty clause list means the formula is false.

    Raises ``Blowup`` when some conjunction of the path, or of a negated
    operand, expands to more than ``MAX_CLAUSES`` clauses.
    """
    if path.clause_counts[0 if positive else 1] is None:
        raise Blowup
    if not positive:
        return [clause for leaf in conjuncts(path) for clause in _leaf_dnf(leaf, False)]
    options = [_leaf_dnf(leaf, True) for leaf in conjuncts(path)]
    return [[row for clause in choice for row in clause] for choice in itertools.product(*options)]


class NormalForm:
    """A path as the solver reads it.

    ``rows`` holds the rows of the conjuncts with one DNF clause, keeping
    the tightest constant per coefficient vector, which implies the others.
    ``disjuncts`` holds each conjunct with several clauses next to its
    clauses, and ``false`` marks a path with a conjunct that has none.
    """

    __slots__ = ("rows", "disjuncts", "false")

    def __init__(self) -> None:
        self.rows: dict[frozenset, Row] = {}
        self.disjuncts: list[tuple[SymPath, list[Clause]]] = []
        self.false = False

    def copy(self) -> NormalForm:
        out = NormalForm()
        out.rows, out.disjuncts, out.false = dict(self.rows), list(self.disjuncts), self.false
        return out

    def add(self, leaf: SymPath) -> None:
        if self.false:
            return
        clauses = _normalized(_leaf_dnf(leaf, True))
        if not clauses:
            self.false = True
        elif len(clauses) == 1:
            for row in clauses[0]:
                key = frozenset(row[0].items())
                kept = self.rows.get(key)
                if kept is None or kept[1] < row[1]:
                    self.rows[key] = row
        elif all(clauses):  # a clause without rows makes the conjunct true
            self.disjuncts.append((leaf, clauses))


def normal_form(path: SymPath) -> NormalForm:
    """The path's normal form, built on from the nearest prefix that has one.

    Only the conjunction asked about keeps it, so a chain holds one per
    node the solver needed it for.  Raises ``Blowup`` like ``dnf``.
    """
    if isinstance(path, PAnd) and path._normal is not None:
        return path._normal
    pending: list[SymPath] = []
    node = path
    while isinstance(node, PAnd) and node._normal is None:
        pending.append(node.right)
        node = node.left
    if isinstance(node, PAnd):
        normal = node._normal.copy()
    else:
        normal = NormalForm()
        pending.append(node)
    for sub in reversed(pending):
        for leaf in conjuncts(sub):
            normal.add(leaf)
    if isinstance(path, PAnd):
        path._normal = normal
    return normal


# ---------------------------------------------------------------------------
# Stores, precise stores, valuations
# ---------------------------------------------------------------------------

SymStore = dict[str, SymExpr]


@dataclass(slots=True)
class PreciseStore:
    """A symbolic store plus the path that contextualizes it.

    The store is held as given, neither copied nor sorted: whoever changes
    a store copies it first.
    """

    rho: SymStore
    path: SymPath

    @staticmethod
    def of(rho: SymStore, path: SymPath) -> PreciseStore:
        return PreciseStore(rho, path)

    def store(self) -> SymStore:
        return self.rho

    def __str__(self) -> str:
        bindings = ", ".join(f"{x} -> {self.rho[x]}" for x in sorted(self.rho))
        return f"[{bindings}] | {self.path}"


Valuation = dict[SymValue, int]


def initial_sym_store(program: lang.Program, factory: SymbolFactory) -> SymStore:
    """Every variable bound to the symbol for its own initial value."""
    return {x: SVal(factory.initial(x)) for x in sorted(program.all_vars)}


def sym_eval_expr(expr: Expr, rho: SymStore) -> SymExpr:
    """Substitute variables by their store image, folding constants."""
    match expr:
        case lang.Const(value):
            return SConst(value)
        case lang.Var(name):
            return rho[name]
        case lang.BinOp(op, left, right):
            return sbinop(op, sym_eval_expr(left, rho), sym_eval_expr(right, rho))
    raise lang.LangError(f"unknown expression {expr!r}")


def sym_eval_bool(bexpr: BExpr, rho: SymStore) -> SymPath:
    return pcmp(bexpr.op, sym_eval_expr(bexpr.left, rho), sym_eval_expr(bexpr.right, rho))


def eval_sym(expr: SymExpr, valuation: Valuation) -> int:
    """The term's value; ``fold`` written out, as every model check runs it."""
    values: list[int] = []
    stack: list = [expr]
    while stack:
        item = stack.pop()
        cls = item.__class__
        if cls is SBinOp:
            stack += (item.op, item.right, item.left)
        elif cls is SVal:
            try:
                values.append(valuation[item.sym])
            except KeyError:
                raise MissingSymbol(item.sym) from None
        elif cls is SConst:
            values.append(item.value)
        elif cls is str:
            right = values.pop()
            values[-1] = apply_op(item, values[-1], right)
        else:
            raise lang.LangError(f"unknown symbolic expression {item!r}")
    return values[0]


def eval_path(path: SymPath, valuation: Valuation) -> bool:
    for leaf in conjuncts(path):
        match leaf:
            case PTrue():
                continue
            case PCmp(op, left, right):
                if not apply_cmp(op, eval_sym(left, valuation), eval_sym(right, valuation)):
                    return False
            case PNot(operand):
                if eval_path(operand, valuation):
                    return False
            case _:
                raise lang.LangError(f"unknown path {leaf!r}")
    return True


def symbols_of_expr(expr: SymExpr) -> frozenset[SymValue]:
    """The symbols of a term; a nested operation keeps its set (see ``_kept``)."""
    if expr.__class__ is not SBinOp:
        return _leaf_symbols(expr)
    if not _nested(expr):
        return _union(expr.op, _leaf_symbols(expr.left), _leaf_symbols(expr.right))
    return _kept(expr, "_symbols", symbols_of_expr, _union)


def _leaf_symbols(term: SymExpr) -> frozenset[SymValue]:
    if term.__class__ is SVal:
        return frozenset((term.sym,))
    if term.__class__ is SConst:
        return frozenset()
    raise lang.LangError(f"unknown symbolic expression {term!r}")


def _union(op: str, left: frozenset[SymValue], right: frozenset[SymValue]) -> frozenset[SymValue]:
    return left | right


def in_gamma_m(rho: SymStore, store: Store, valuation: Valuation) -> bool:
    """Membership in the symbolic-store concretization."""
    return all(store[x] == eval_sym(e, valuation) for x, e in rho.items())


def in_gamma_k(kappa: PreciseStore, store: Store, valuation: Valuation) -> bool:
    """Membership in the precise-store concretization (store match and path)."""
    return in_gamma_m(kappa.store(), store, valuation) and eval_path(kappa.path, valuation)
