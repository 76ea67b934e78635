"""Interval abstract domain and the widening-based loop analyzer.

The domain maps every program variable to an integer interval with
optionally infinite endpoints; Bottom denotes unreachability.  Loops are
solved by one unrolled first iteration (so states that must enter the loop
are not polluted by the entry state at the exit guard), Kleene iteration
with widening after a short delay, and a single decreasing pass.

A transfer that changes nothing returns its input state itself, and the
state remembers the transfer's key (``a_guard``'s comparison, ``a_assign``'s
variable and expression), so the same transfer on the same state is then a
set lookup.  A long loop whose body leaves the intervals alone runs each
guard and assignment on one state object.  Only keys are kept, never
results: a state that held its successors would keep them all alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from niverify import lang
from niverify.lang import BExpr, Command, Const, Expr, Var, BinOp, Skip, Assign, If, While, Seq

WIDEN_DELAY = 2

_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _lo(bound: int | None) -> float | int:
    return _NEG_INF if bound is None else bound


def _hi(bound: int | None) -> float | int:
    return _POS_INF if bound is None else bound


def _as_bound(value: float | int) -> int | None:
    return None if value in (_NEG_INF, _POS_INF) else int(value)


@dataclass(slots=True, unsafe_hash=True)
class Interval:
    """``[lo, hi]`` with ``None`` for an infinite endpoint; never empty."""

    lo: int | None
    hi: int | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, value: int) -> bool:
        return _lo(self.lo) <= value <= _hi(self.hi)

    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def meet(self, other: Interval) -> Interval | None:
        lo = max(_lo(self.lo), _lo(other.lo))
        hi = min(_hi(self.hi), _hi(other.hi))
        if lo > hi:
            return None
        return Interval(_as_bound(lo), _as_bound(hi))

    def hull(self, other: Interval) -> Interval:
        return Interval(
            _as_bound(min(_lo(self.lo), _lo(other.lo))),
            _as_bound(max(_hi(self.hi), _hi(other.hi))),
        )

    def widen(self, other: Interval) -> Interval:
        lo = self.lo if (self.lo is not None and _lo(other.lo) >= self.lo) else None
        hi = self.hi if (self.hi is not None and _hi(other.hi) <= self.hi) else None
        return Interval(lo, hi)

    def leq(self, other: Interval) -> bool:
        return _lo(other.lo) <= _lo(self.lo) and _hi(self.hi) <= _hi(other.hi)

    def __str__(self) -> str:
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "+oo" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP_INTERVAL = Interval(None, None)


# Endpoint arithmetic never mixes an int with a float infinity: Python would
# convert the int to a float, which overflows from 2**1024 up.  So a sum is
# infinite when an operand end is, and a product with an infinity is one.


def _emul(a: float | int, b: float | int) -> float | int:
    # 0 * inf = 0: correct for interval corner products.
    if a == 0 or b == 0:
        return 0
    if isinstance(a, float) or isinstance(b, float):
        return _POS_INF if (a > 0) == (b > 0) else _NEG_INF
    return a * b


def interval_add(a: Interval, b: Interval) -> Interval:
    return Interval(
        None if a.lo is None or b.lo is None else a.lo + b.lo,
        None if a.hi is None or b.hi is None else a.hi + b.hi,
    )


def interval_sub(a: Interval, b: Interval) -> Interval:
    return Interval(
        None if a.lo is None or b.hi is None else a.lo - b.hi,
        None if a.hi is None or b.lo is None else a.hi - b.lo,
    )


def interval_mul(a: Interval, b: Interval) -> Interval:
    corners = [
        _emul(x, y)
        for x in (_lo(a.lo), _hi(a.hi))
        for y in (_lo(b.lo), _hi(b.hi))
    ]
    return Interval(_as_bound(min(corners)), _as_bound(max(corners)))


@dataclass(slots=True, unsafe_hash=True)
class AbstractState:
    """Bottom (``env is None``) or a total interval environment.

    ``noops`` holds the keys of the transfers known to leave the state
    unchanged; it is not part of the value.
    """

    env: tuple[tuple[str, Interval], ...] | None
    noops: set | None = field(default=None, compare=False, hash=False, repr=False)

    @staticmethod
    def top(variables) -> AbstractState:
        return AbstractState(tuple((x, TOP_INTERVAL) for x in sorted(variables)))

    @staticmethod
    def of(env: dict[str, Interval]) -> AbstractState:
        return AbstractState(tuple(sorted(env.items())))

    @property
    def is_bottom(self) -> bool:
        return self.env is None

    def as_dict(self) -> dict[str, Interval]:
        assert self.env is not None
        return dict(self.env)

    def get(self, var: str) -> Interval:
        assert self.env is not None
        return dict(self.env).get(var, TOP_INTERVAL)

    def __str__(self) -> str:
        if self.env is None:
            return "bottom"
        return "{" + ", ".join(f"{x} in {iv}" for x, iv in self.env) + "}"


BOTTOM = AbstractState(None)


def eval_interval(expr: Expr, env: dict[str, Interval]) -> Interval:
    match expr:
        case Const(value):
            return Interval(value, value)
        case Var(name):
            return env.get(name, TOP_INTERVAL)
        case BinOp(op, left, right):
            li, ri = eval_interval(left, env), eval_interval(right, env)
            if op == "+":
                return interval_add(li, ri)
            if op == "-":
                return interval_sub(li, ri)
            return interval_mul(li, ri)
    raise lang.LangError(f"unknown expression {expr!r}")


def _unchanged(a: AbstractState, key) -> AbstractState:
    """``a``, remembering that the transfer ``key`` leaves it as it is."""
    if a.noops is None:
        a.noops = set()
    a.noops.add(key)
    return a


def a_assign(var: str, expr: Expr, a: AbstractState) -> AbstractState:
    if a.is_bottom:
        return BOTTOM
    key = (var, expr)
    if a.noops is not None and key in a.noops:
        return a
    env = a.as_dict()
    value = eval_interval(expr, env)
    if env.get(var) == value:
        return _unchanged(a, key)
    env[var] = value
    return AbstractState.of(env)


def _cmp_targets(op: str, li: Interval, ri: Interval) -> tuple[Interval, Interval] | None:
    """Refined intervals for both operands assuming the comparison holds."""

    def shrink(iv: Interval, lo: float | int, hi: float | int) -> Interval | None:
        return iv.meet(Interval(_as_bound(max(lo, _NEG_INF)), _as_bound(min(hi, _POS_INF))))

    if op == "<":
        lt = shrink(li, _NEG_INF, _hi(ri.hi) - 1)
        rt = shrink(ri, _lo(li.lo) + 1, _POS_INF)
    elif op == "<=":
        lt = shrink(li, _NEG_INF, _hi(ri.hi))
        rt = shrink(ri, _lo(li.lo), _POS_INF)
    elif op == ">":
        lt = shrink(li, _lo(ri.lo) + 1, _POS_INF)
        rt = shrink(ri, _NEG_INF, _hi(li.hi) - 1)
    elif op == ">=":
        lt = shrink(li, _lo(ri.lo), _POS_INF)
        rt = shrink(ri, _NEG_INF, _hi(li.hi))
    elif op == "==":
        lt = li.meet(ri)
        rt = ri.meet(li)
    elif op == "!=":
        lt, rt = li, ri
        if ri.is_singleton():
            lt = _trim(li, ri.lo)
        if lt is not None and li.is_singleton():
            rt = _trim(ri, li.lo)
        if lt is not None and rt is not None and lt.is_singleton() and lt == rt:
            return None
    else:
        raise lang.LangError(f"unknown comparison {op!r}")
    if lt is None or rt is None:
        return None
    return lt, rt


def _trim(iv: Interval, value: int) -> Interval | None:
    """Remove a value from an interval when it sits on an endpoint."""
    if iv.is_singleton() and iv.lo == value:
        return None
    if iv.lo == value:
        return Interval(value + 1, iv.hi)
    if iv.hi == value:
        return Interval(iv.lo, value - 1)
    return iv


def _backward(expr: Expr, target: Interval, env: dict[str, Interval]) -> bool:
    """One downward refinement pass; mutates env, False means infeasible."""
    match expr:
        case Const(value):
            return target.contains(value)
        case Var(name):
            met = env.get(name, TOP_INTERVAL).meet(target)
            if met is None:
                return False
            env[name] = met
            return True
        case BinOp(op, left, right):
            li, ri = eval_interval(left, env), eval_interval(right, env)
            if op == "+":
                lt = interval_sub(target, ri).meet(li)
                rt = interval_sub(target, li).meet(ri)
            elif op == "-":
                lt = interval_add(target, ri).meet(li)
                rt = interval_sub(li, target).meet(ri)
            else:
                lt = _mul_refine(li, ri, target)
                rt = _mul_refine(ri, li, target)
            if lt is None or rt is None:
                return False
            return _backward(left, lt, env) and _backward(right, rt, env)
    raise lang.LangError(f"unknown expression {expr!r}")


def _mul_refine(side: Interval, other: Interval, target: Interval) -> Interval | None:
    """Refine one factor of a product; only exact when the other is constant."""
    if other.is_singleton():
        c = other.lo
        if c == 0:
            return side if target.contains(0) else None
        # Integer division: a float quotient rounds past 2**53.
        tl, th = _lo(target.lo), _hi(target.hi)
        if c > 0:
            lo = _NEG_INF if tl == _NEG_INF else -(-tl // c)
            hi = _POS_INF if th == _POS_INF else th // c
        else:
            lo = _NEG_INF if th == _POS_INF else -(-th // c)
            hi = _POS_INF if tl == _NEG_INF else tl // c
        if lo > hi:
            return None
        return side.meet(Interval(_as_bound(lo), _as_bound(hi)))
    return side


def a_guard(bexpr: BExpr, a: AbstractState) -> AbstractState:
    """Sound restriction of a state by a comparison (single backward pass)."""
    if a.is_bottom:
        return BOTTOM
    if a.noops is not None and bexpr in a.noops:
        return a
    env = a.as_dict()
    li, ri = eval_interval(bexpr.left, env), eval_interval(bexpr.right, env)
    targets = _cmp_targets(bexpr.op, li, ri)
    if targets is None:
        return BOTTOM
    lt, rt = targets
    if not _backward(bexpr.left, lt, env) or not _backward(bexpr.right, rt, env):
        return BOTTOM
    items = tuple(sorted(env.items()))
    if items == a.env:
        return _unchanged(a, bexpr)
    return AbstractState(items)


def _pointwise(op, a0: AbstractState, a1: AbstractState) -> AbstractState:
    """``op`` on each variable's two intervals; bottom is the unit."""
    if a0.is_bottom:
        return a1
    if a1.is_bottom:
        return a0
    e0, e1 = a0.as_dict(), a1.as_dict()
    return AbstractState.of(
        {x: op(e0.get(x, TOP_INTERVAL), e1.get(x, TOP_INTERVAL)) for x in set(e0) | set(e1)}
    )


def a_join(a0: AbstractState, a1: AbstractState) -> AbstractState:
    return _pointwise(Interval.hull, a0, a1)


def a_widen(a0: AbstractState, a1: AbstractState) -> AbstractState:
    return _pointwise(Interval.widen, a0, a1)


def a_leq(a0: AbstractState, a1: AbstractState) -> bool:
    if a0.is_bottom:
        return True
    if a1.is_bottom:
        return False
    e0, e1 = a0.as_dict(), a1.as_dict()
    return all(e0.get(x, TOP_INTERVAL).leq(iv) for x, iv in e1.items())


def analyze(cmd: Command, a: AbstractState) -> AbstractState:
    """Sound abstract post-state of running ``cmd`` to completion."""
    if a.is_bottom:
        return BOTTOM
    match cmd:
        case Skip():
            return a
        case Assign(var, expr):
            return a_assign(var, expr, a)
        case Seq(first, second):
            return analyze(second, analyze(first, a))
        case If(guard, then_branch, else_branch):
            return a_join(
                analyze(then_branch, a_guard(guard, a)),
                analyze(else_branch, a_guard(guard.negate(), a)),
            )
        case While(guard, body):
            return _analyze_loop(guard, body, a)
    raise lang.LangError(f"unknown command {cmd!r}")


def _analyze_loop(guard: BExpr, body: Command, a: AbstractState) -> AbstractState:
    # The first iteration is unrolled so the exit guard applies separately
    # to "never entered" and "iterated at least once" states.
    exit_now = a_guard(guard.negate(), a)
    head = analyze(body, a_guard(guard, a))
    if head.is_bottom:
        return exit_now
    inv = head
    rounds = 0
    while True:
        step = analyze(body, a_guard(guard, inv))
        nxt = a_join(inv, step)
        if a_leq(nxt, inv):
            break
        inv = nxt if rounds < WIDEN_DELAY else a_widen(inv, nxt)
        rounds += 1
    # One decreasing pass recovers bounds the widening overshot.
    inv = a_join(head, analyze(body, a_guard(guard, inv)))
    return a_join(exit_now, a_guard(guard.negate(), inv))


class BottomState(ValueError):
    """constr() was asked for the unreachable state."""


def constr(a: AbstractState) -> list[tuple[str, str, int]]:
    """The state as bounds ``(x, op, c)``, each meaning ``x op c`` (finite bounds only)."""
    if a.is_bottom:
        raise BottomState("no constraints for bottom")
    out: list[tuple[str, str, int]] = []
    for x, iv in a.env:
        if iv.is_singleton():
            out.append((x, "==", iv.lo))
            continue
        if iv.lo is not None:
            out.append((x, ">=", iv.lo))
        if iv.hi is not None:
            out.append((x, "<=", iv.hi))
    return out


def state_holds(a: AbstractState, store: lang.Store) -> bool:
    """Concrete membership in the concretization (test oracle)."""
    if a.is_bottom:
        return False
    return all(iv.contains(store[x]) for x, iv in a.env if x in store)
