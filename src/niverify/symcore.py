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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from niverify import lang
from niverify.lang import BExpr, Expr, NEGATED_CMP, Store, apply_cmp, apply_op


class MissingSymbol(KeyError):
    """A valuation was asked for a symbol it does not define."""


@dataclass(frozen=True, eq=False)
class SymValue:
    """An opaque integer unknown.

    ``uid`` is unique within one analysis run and is the identity; ``name``
    is a human-readable label (``x`` for the canonical initial value of
    ``x``, ``x#3`` for fresh symbols minted later).
    """

    uid: int
    name: str

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymValue) and self.uid == other.uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __str__(self) -> str:
        return self.name


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


@dataclass(frozen=True)
class SConst:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SVal:
    sym: SymValue

    def __str__(self) -> str:
        return str(self.sym)


@dataclass(frozen=True)
class SBinOp:
    op: str
    left: SymExpr
    right: SymExpr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


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
# Symbolic paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PTrue:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class PCmp:
    op: str
    left: SymExpr
    right: SymExpr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class PAnd:
    left: SymPath
    right: SymPath

    def __str__(self) -> str:
        return f"({self.left} && {self.right})"


@dataclass(frozen=True)
class PNot:
    operand: SymPath

    def __str__(self) -> str:
        return f"!({self.operand})"


SymPath = PTrue | PCmp | PAnd | PNot

TRUE = PTrue()
FALSE = PNot(TRUE)


def pcmp(op: str, left: SymExpr, right: SymExpr) -> SymPath:
    if isinstance(left, SConst) and isinstance(right, SConst):
        return TRUE if apply_cmp(op, left.value, right.value) else FALSE
    return PCmp(op, left, right)


def pand(left: SymPath, right: SymPath) -> SymPath:
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
    match path:
        case PTrue():
            return FALSE
        case PCmp(op, left, right):
            return PCmp(NEGATED_CMP[op], left, right)
        case PNot(operand):
            return operand
    return PNot(path)


# ---------------------------------------------------------------------------
# Stores, precise stores, valuations
# ---------------------------------------------------------------------------

SymStore = dict[str, SymExpr]


@dataclass(frozen=True)
class PreciseStore:
    """A symbolic store plus the path that contextualizes it."""

    rho: tuple[tuple[str, SymExpr], ...]
    path: SymPath

    @staticmethod
    def of(rho: SymStore, path: SymPath) -> PreciseStore:
        return PreciseStore(tuple(sorted(rho.items())), path)

    def store(self) -> SymStore:
        return dict(self.rho)

    def __str__(self) -> str:
        bindings = ", ".join(f"{x} -> {e}" for x, e in self.rho)
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
    match expr:
        case SConst(value):
            return value
        case SVal(sym):
            try:
                return valuation[sym]
            except KeyError:
                raise MissingSymbol(sym) from None
        case SBinOp(op, left, right):
            return apply_op(op, eval_sym(left, valuation), eval_sym(right, valuation))
    raise lang.LangError(f"unknown symbolic expression {expr!r}")


def eval_path(path: SymPath, valuation: Valuation) -> bool:
    match path:
        case PTrue():
            return True
        case PCmp(op, left, right):
            return apply_cmp(op, eval_sym(left, valuation), eval_sym(right, valuation))
        case PAnd(left, right):
            return eval_path(left, valuation) and eval_path(right, valuation)
        case PNot(operand):
            return not eval_path(operand, valuation)
    raise lang.LangError(f"unknown path {path!r}")


def symbols_of_expr(expr: SymExpr) -> set[SymValue]:
    match expr:
        case SConst():
            return set()
        case SVal(sym):
            return {sym}
        case SBinOp(_, left, right):
            return symbols_of_expr(left) | symbols_of_expr(right)
    raise lang.LangError(f"unknown symbolic expression {expr!r}")


def symbols_of_path(path: SymPath) -> set[SymValue]:
    match path:
        case PTrue():
            return set()
        case PCmp(_, left, right):
            return symbols_of_expr(left) | symbols_of_expr(right)
        case PAnd(left, right):
            return symbols_of_path(left) | symbols_of_path(right)
        case PNot(operand):
            return symbols_of_path(operand)
    raise lang.LangError(f"unknown path {path!r}")


def in_gamma_m(rho: SymStore, store: Store, valuation: Valuation) -> bool:
    """Membership in the symbolic-store concretization."""
    return all(store[x] == eval_sym(e, valuation) for x, e in rho.items())


def in_gamma_k(kappa: PreciseStore, store: Store, valuation: Valuation) -> bool:
    """Membership in the precise-store concretization (store match and path)."""
    return in_gamma_m(kappa.store(), store, valuation) and eval_path(kappa.path, valuation)
