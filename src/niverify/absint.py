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

A transfer that changes some variables replaces only their env entries,
in place in the sorted env, and every other entry stays the same
(name, interval) object; an interval operation whose result equals an
operand returns that operand.  So an unchanged interval keeps its
identity from step to step, which is what lets ``redsoundse.reduction``
assert again only the variables a step changed: it compares entries by
identity, and an identical entry is an identical interval.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from niverify import lang
from niverify.lang import BExpr, Command, Const, Expr, Var, BinOp, Skip, Assign, If, While, Seq

WIDEN_DELAY = 2


# Endpoints are ``int`` or ``None`` (infinite) and are computed on as such:
# an ``int`` never meets a float infinity, which would convert it to a
# float and overflow from 2**1024 up.


@dataclass(slots=True, unsafe_hash=True)
class Interval:
    """``[lo, hi]`` with ``None`` for an infinite endpoint; never empty."""

    lo: int | None
    hi: int | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, value: int) -> bool:
        return (self.lo is None or self.lo <= value) and (self.hi is None or value <= self.hi)

    def is_singleton(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def meet(self, other: Interval) -> Interval | None:
        if self is other:
            return self
        slo, shi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        lo = olo if slo is None else slo if olo is None or olo <= slo else olo
        hi = ohi if shi is None else shi if ohi is None or shi <= ohi else ohi
        if lo is not None and hi is not None and lo > hi:
            return None
        return _made(lo, hi, self, other)

    def hull(self, other: Interval) -> Interval:
        slo, shi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        lo = None if slo is None or olo is None else slo if slo <= olo else olo
        hi = None if shi is None or ohi is None else shi if shi >= ohi else ohi
        return _made(lo, hi, self, other)

    def widen(self, other: Interval) -> Interval:
        lo = self.lo if (self.lo is not None and other.lo is not None and other.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and other.hi is not None and other.hi <= self.hi) else None
        return _made(lo, hi, self, other)

    def leq(self, other: Interval) -> bool:
        olo, ohi = other.lo, other.hi
        return (olo is None or (self.lo is not None and olo <= self.lo)) and (
            ohi is None or (self.hi is not None and self.hi <= ohi)
        )

    def __str__(self) -> str:
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "+oo" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def _made(lo: int | None, hi: int | None, a: Interval, b: Interval) -> Interval:
    """``[lo, hi]``, as ``a`` or ``b`` itself where it is that interval."""
    if lo == a.lo and hi == a.hi:
        return a
    if lo == b.lo and hi == b.hi:
        return b
    return Interval(lo, hi)


def bounds(iv: Interval) -> tuple[tuple[str, int], ...]:
    """The finite bounds ``(op, c)`` of an interval, each meaning ``x op c``."""
    lo, hi = iv.lo, iv.hi
    if lo is not None and lo == hi:
        return (("==", lo),)
    if lo is None:
        return () if hi is None else (("<=", hi),)
    return ((">=", lo),) if hi is None else ((">=", lo), ("<=", hi))


TOP_INTERVAL = Interval(None, None)


def interval_add(a: Interval, b: Interval) -> Interval:
    return _made(
        None if a.lo is None or b.lo is None else a.lo + b.lo,
        None if a.hi is None or b.hi is None else a.hi + b.hi,
        a,
        b,
    )


def interval_sub(a: Interval, b: Interval) -> Interval:
    return _made(
        None if a.lo is None or b.hi is None else a.lo - b.hi,
        None if a.hi is None or b.lo is None else a.hi - b.lo,
        a,
        b,
    )


def interval_mul(a: Interval, b: Interval) -> Interval:
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if alo is not None and ahi is not None and blo is not None and bhi is not None:
        corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return _made(min(corners), max(corners), a, b)
    # A corner with an infinite factor is 0 if the other factor is 0, and
    # otherwise infinite with the sign of the product.
    finite: list[int] = []
    below = above = False
    for x, x_inf in ((alo, -1), (ahi, 1)):
        for y, y_inf in ((blo, -1), (bhi, 1)):
            if x == 0 or y == 0:
                finite.append(0)
            elif x is None or y is None:
                sign = (x_inf if x is None else 1 if x > 0 else -1) * (y_inf if y is None else 1 if y > 0 else -1)
                below, above = below or sign < 0, above or sign > 0
            else:
                finite.append(x * y)
    # Some corner is finite or of each sign: all four infinite with one
    # sign would need both ends of a factor infinite with one sign.
    return _made(None if below else min(finite), None if above else max(finite), a, b)


@dataclass(slots=True, unsafe_hash=True)
class AbstractState:
    """Bottom (``env is None``) or a total interval environment.

    ``noops`` holds the keys of the transfers known to leave the state
    unchanged, and ``_bounded`` the positions ``bounded`` computed; neither
    is part of the value.
    """

    env: tuple[tuple[str, Interval], ...] | None
    noops: set | None = field(default=None, compare=False, hash=False, repr=False)
    _bounded: tuple[int, ...] | None = field(default=None, compare=False, hash=False, repr=False)

    def bounded(self) -> tuple[int, ...]:
        """The positions in ``env`` of the variables with a finite bound."""
        if self._bounded is None:
            self._bounded = tuple(i for i, (_, iv) in enumerate(self.env) if iv.lo is not None or iv.hi is not None)
        return self._bounded

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
    return lang.fold(expr, _point, lambda name: env.get(name, TOP_INTERVAL), _interval_op)


def _point(const: lang.Const) -> Interval:
    return Interval(const.value, const.value)


def _interval_op(op: str, li: Interval, ri: Interval) -> Interval:
    if op == "+":
        return interval_add(li, ri)
    if op == "-":
        return interval_sub(li, ri)
    return interval_mul(li, ri)


def _unchanged(a: AbstractState, key) -> AbstractState:
    """``a``, remembering that the transfer ``key`` leaves it as it is."""
    if a.noops is None:
        a.noops = set()
    a.noops.add(key)
    return a


def _replaced(env: tuple[tuple[str, Interval], ...], changes: dict[str, Interval]) -> AbstractState:
    """``env`` with the entries of ``changes`` put in, in sorted place; the
    other entries are the same objects."""
    out = list(env)
    for x, iv in changes.items():
        i = bisect_left(out, (x,))
        if i < len(out) and out[i][0] == x:
            out[i] = (x, iv)
        else:
            out.insert(i, (x, iv))
    return AbstractState(tuple(out))


def a_assign(var: str, expr: Expr, a: AbstractState) -> AbstractState:
    if a.is_bottom:
        return BOTTOM
    key = (var, expr)
    if a.noops is not None and key in a.noops:
        return a
    env = a.as_dict()
    value = eval_interval(expr, env)
    old = env.get(var)
    if old is value or old == value:
        return _unchanged(a, key)
    return _replaced(a.env, {var: value})


def _cmp_targets(op: str, li: Interval, ri: Interval) -> tuple[Interval, Interval] | None:
    """Refined intervals for both operands assuming the comparison holds.

    The HC4 projection of an order: each side is met with the half-line
    that the other side's bound implies.  ``>`` and ``>=`` are ``<`` and
    ``<=`` with the operands swapped.
    """
    swapped = op == ">" or op == ">="
    if swapped:
        li, ri, op = ri, li, "<" if op == ">" else "<="
    if op == "<" or op == "<=":
        gap = 1 if op == "<" else 0
        lt = li.meet(TOP_INTERVAL if ri.hi is None else Interval(None, ri.hi - gap))
        rt = ri.meet(TOP_INTERVAL if li.lo is None else Interval(li.lo + gap, None))
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
    return (rt, lt) if swapped else (lt, rt)


def _trim(iv: Interval, value: int) -> Interval | None:
    """Remove a value from an interval when it sits on an endpoint."""
    if iv.is_singleton() and iv.lo == value:
        return None
    if iv.lo == value:
        return Interval(value + 1, iv.hi)
    if iv.hi == value:
        return Interval(iv.lo, value - 1)
    return iv


def _backward(expr: Expr, target: Interval, env: dict[str, Interval], changes: dict[str, Interval]) -> bool:
    """One downward refinement pass; False means infeasible.

    A variable whose interval narrows is written to both ``env`` and
    ``changes``; one that keeps its interval is written to neither.  An
    operation's two targets are computed before either operand is
    refined, and the left operand is refined first.
    """
    stack = [(expr, target)]
    while stack:
        expr, target = stack.pop()
        cls = expr.__class__
        if cls is Var:
            name = expr.name
            old = env.get(name)
            met = (TOP_INTERVAL if old is None else old).meet(target)
            if met is None:
                return False
            if met is not old:
                env[name] = changes[name] = met
        elif cls is Const:
            if not target.contains(expr.value):
                return False
        elif cls is BinOp:
            left, right = expr.left, expr.right
            li, ri = eval_interval(left, env), eval_interval(right, env)
            if expr.op == "+":
                lt = interval_sub(target, ri).meet(li)
                rt = interval_sub(target, li).meet(ri)
            elif expr.op == "-":
                lt = interval_add(target, ri).meet(li)
                rt = interval_sub(li, target).meet(ri)
            else:
                lt = _mul_refine(li, ri, target)
                rt = _mul_refine(ri, li, target)
            if lt is None or rt is None:
                return False
            stack += ((right, rt), (left, lt))
        else:
            raise lang.LangError(f"unknown expression {expr!r}")
    return True


def _mul_refine(side: Interval, other: Interval, target: Interval) -> Interval | None:
    """Refine one factor of a product; only exact when the other is constant."""
    if other.is_singleton():
        c = other.lo
        if c == 0:
            return side if target.contains(0) else None
        # Integer division: a float quotient rounds past 2**53.
        tl, th = target.lo, target.hi
        if c > 0:
            lo = None if tl is None else -(-tl // c)
            hi = None if th is None else th // c
        else:
            lo = None if th is None else -(-th // c)
            hi = None if tl is None else tl // c
        if lo is not None and hi is not None and lo > hi:
            return None
        return side.meet(Interval(lo, hi))
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
    changes: dict[str, Interval] = {}
    if not _backward(bexpr.left, lt, env, changes) or not _backward(bexpr.right, rt, env, changes):
        return BOTTOM
    if not changes:
        return _unchanged(a, bexpr)
    return _replaced(a.env, changes)


def _pointwise(op, a0: AbstractState, a1: AbstractState) -> AbstractState:
    """``op`` on each variable's two intervals; bottom is the unit.

    An entry of ``a0`` whose interval is the result is kept as it is.
    """
    if a0.is_bottom:
        return a1
    if a1.is_bottom:
        return a0
    pairs0, e1 = {entry[0]: entry for entry in a0.env}, a1.as_dict()
    out = []
    for x in sorted(pairs0.keys() | e1.keys()):
        entry = pairs0.get(x)
        i0 = TOP_INTERVAL if entry is None else entry[1]
        iv = op(i0, e1.get(x, TOP_INTERVAL))
        out.append(entry if entry is not None and iv is i0 else (x, iv))
    return AbstractState(tuple(out))


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
    # A sequence runs down its right spine in this loop, so a long
    # straight-line program costs no recursion depth.
    while cmd.__class__ is Seq:
        a = analyze(cmd.first, a)
        cmd = cmd.second
    if a.is_bottom:
        return BOTTOM
    match cmd:
        case Skip():
            return a
        case Assign(var, expr):
            return a_assign(var, expr, a)
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
    """The bounds of the unreachable state were asked for (``redsoundse.reduction``)."""


def state_holds(a: AbstractState, store: lang.Store) -> bool:
    """Concrete membership in the concretization (test oracle)."""
    if a.is_bottom:
        return False
    return all(iv.contains(store[x]) for x, iv in a.env if x in store)
