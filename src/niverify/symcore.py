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
leaf likewise keeps its rows once asked for them, and the relational
engine hash-conses guard leaves in one table per run
(``relational.RelEngine.leaves``), so every equal guard leaf of a run is
one object and its rows are built once per run.  A negation is built
fresh each time.  All of it hangs off the nodes of one run, or off its
engine; no table outlives it.  A node caches only values of the path
itself; what a reduction asserted on it rides on its ``PreciseStore``.

Value types.  The records an exploration builds for every state (terms,
paths, stores, interval states, commands, relational and product states)
are ``@dataclass(slots=True)``, not frozen: nothing changes their values,
slots stop stray attributes, and a frozen ``__init__`` costs about four
times as much.  So a term holds the program's own ``Const`` for each
program constant it reads, shared with the program and every other term
evaluated from it; only a term's operation nodes are new, and only they
keep values (see ``_kept``).  A record hashes as a frozen dataclass
would, as the hash of its field tuple (``unsafe_hash=True``, or a hash
cached at construction with that same formula, as the terms and path
nodes do), and a symbol hashes as its uid.  Commands, and the
``relational.Diverged`` control, compare and hash by identity.  The sets
the code iterates hold symbols, monomials or variable names, so set
order, which picks the solver's elimination order, never depends on a
term's or a path's hash: terms and paths are only looked up.  A ``PreciseStore`` holds its store
dict as given, so it and the states around it are not hashable.  Stores
keep sorted variable order, and havoc mints fresh symbols in that order.
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

    The integer value is the uid, unique within one analysis run and the
    identity: a symbol hashes, compares and sorts as its uid, all in C.
    ``name`` is a human-readable label (``x`` for the canonical initial
    value of ``x``, ``x#3`` for fresh symbols minted later), and ``str``
    gives it.
    """

    def __new__(cls, uid: int, name: str) -> SymValue:
        sym = super().__new__(cls, uid)
        sym.name = name
        return sym

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


# A term is built from the program's expression nodes, ``SConst`` and
# ``SBinOp`` here, with a symbol leaf in place of each variable;
# ``lang.fold`` walks both kinds of tree.  A symbol leaf computes its hash
# once, with the formula a frozen dataclass uses, and its equality tries
# identity, then the hash, then the field.

SConst = lang.Const
SBinOp = lang.BinOp


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


def comparisons(path: SymPath) -> Iterator[PCmp]:
    """The comparisons under a path's conjunctions and negations, left to
    right, walked on a stack without recursion."""
    stack: list[SymPath] = [path]
    while stack:
        node = stack.pop()
        if node.__class__ is PAnd:
            stack += (node.right, node.left)
        elif node.__class__ is PNot:
            stack.append(node.operand)
        elif node.__class__ is PCmp:
            yield node


def _path_symbols(path: PAnd | PNot) -> frozenset[SymValue]:
    """The symbols of every comparison of the path, gathered into one set."""
    symbols: set[SymValue] = set()
    for leaf in comparisons(path):
        symbols |= leaf.symbols
    return frozenset(symbols)


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
    # The rows (``cmp_rows``), kept once computed, so a leaf the
    # relational engine reuses for a guard pays for them once per run.
    _rows: list[Clause] | None = field(init=False, repr=False, compare=False)

    size = 1

    def __post_init__(self) -> None:
        self._hash = hash((self.op, self.left, self.right))
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
    # The other slots cache values of the path itself, never engine state.
    size: int = field(init=False, repr=False)
    _positive: int | None = field(init=False, repr=False)
    _negated: int | None = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)
    _index: _ConjunctIndex | None = field(init=False, repr=False)
    _normal: NormalForm | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        left, right = self.left, self.right
        (lpos, lneg), (rpos, rneg) = left.clause_counts, right.clause_counts
        self.size = left.size + right.size
        self._positive = _times(lpos, rpos)
        self._negated = _plus(lneg, rneg)
        self._hash = hash((left, right))
        self._index = None
        self._normal = None

    @property
    def clause_counts(self) -> tuple[int | None, int | None]:
        return (self._positive, self._negated)

    symbols = property(_path_symbols)

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
            elif a.__class__ is PNot and b.__class__ is PNot:
                pairs.append((a.operand, b.operand))
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

    symbols = property(_path_symbols)

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
        return PCmp(NEGATED_CMP[path.op], path.left, path.right)
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
    ``MAX_INDEX_LAYERS`` layers lists the node's conjuncts into one dict
    instead, so a lookup reads at most that many.
    """

    __slots__ = ("first", "tip", "base", "base_size", "layers")

    def __init__(self, first: dict[SymPath, int], base: _ConjunctIndex | None, base_size: int) -> None:
        self.first = first
        self.tip: SymPath | None = None
        self.base = base
        self.base_size = base_size
        self.layers = 1 if base is None else base.layers + 1


def _conjunct_index(path: PAnd) -> _ConjunctIndex:
    if path._index is not None:
        return path._index
    pending: list[PAnd] = []
    node: SymPath = path
    while isinstance(node, PAnd) and node._index is None:
        pending.append(node)
        node = node.left
    if isinstance(node, PAnd) and node._index.tip is node:
        index = node._index
    elif isinstance(node, PAnd) and node._index.layers < MAX_INDEX_LAYERS:
        index = _ConjunctIndex({}, node._index, node.size)
    else:
        index = _ConjunctIndex({}, None, 0)
        for position, leaf in enumerate(conjuncts(node), 1):
            index.first.setdefault(leaf, position)
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
    a store copies it first.  ``reduced`` is the record of the reduction
    that built it (``redsoundse.reduction``), not part of its value.
    """

    rho: SymStore
    path: SymPath
    reduced: tuple | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def of(rho: SymStore, path: SymPath) -> PreciseStore:
        return PreciseStore(rho, path)

    def store(self) -> SymStore:
        return self.rho

    def __str__(self) -> str:
        bindings = ", ".join(f"{x} -> {self.rho[x]}" for x in sorted(self.rho))
        return f"[{bindings}] | {self.path}"


Valuation = dict[SymValue, int]


def sym_eval_expr(expr: Expr, rho: SymStore) -> SymExpr:
    """Substitute variables by their store image, folding constants; a
    program constant is its own term."""
    return lang.fold(expr, _itself, rho.__getitem__, sbinop)


def _itself(const: SConst) -> SConst:
    return const


def sym_eval_bool(bexpr: BExpr, rho: SymStore) -> SymPath:
    return pcmp(bexpr.op, sym_eval_expr(bexpr.left, rho), sym_eval_expr(bexpr.right, rho))


def eval_sym(expr: SymExpr, valuation: Valuation) -> int:
    """The term's value; the first symbol the valuation lacks raises
    ``MissingSymbol``.  ``lang.fold`` with the leaves read inline: every
    model check runs it, and a leaf callback costs a call per leaf."""
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
    """Whether the path holds, its conjuncts checked left to right up to the
    first that fails.  A negated operand opens a walk over its conjuncts on
    a stack, so nested negations cost no recursion."""
    walks = [conjuncts(path)]
    while True:
        holds = True
        for leaf in walks[-1]:
            cls = leaf.__class__
            if cls is PCmp:
                if not apply_cmp(leaf.op, eval_sym(leaf.left, valuation), eval_sym(leaf.right, valuation)):
                    holds = False
                    break
            elif cls is PNot:
                walks.append(conjuncts(leaf.operand))
                holds = None
                break
            elif cls is not PTrue:
                raise lang.LangError(f"unknown path {leaf!r}")
        if holds is None:
            continue
        # The innermost walk is done.  If its conjunction holds, the
        # negation around it fails, and so does the walk holding that.
        walks.pop()
        if holds and walks:
            walks.pop()
            holds = False
        if not walks:
            return holds


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


def in_gamma_k(kappa: PreciseStore, store: Store, valuation: Valuation) -> bool:
    """Membership in the precise-store concretization (store match and path)."""
    if any(store[x] != eval_sym(e, valuation) for x, e in kappa.store().items()):
        return False
    return eval_path(kappa.path, valuation)
