"""Two-level dependence analysis: which variables agree across both runs.

The abstract element is the set of variables the two executions are known
to agree on; its concretization is all pairs of stores equal on that set.
Transfer functions are flow sensitive with a pc level: an assignment keeps
a variable in the set only when both the context and the assigned
expression are low, conditionals intersect their branches, loops iterate
to a (shrinking, hence finite) fixpoint.

``dep_analyze`` optionally threads an interval state alongside: a branch
whose guard is infeasible for every reachable store of either execution
cannot run in either trace, so skipping it in the intersection is sound.
That numeric refinement is what the interval-product engine feeds in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from niverify import lang
from niverify.absint import AbstractState, WIDEN_DELAY, a_assign, a_guard, a_join, a_leq, a_widen
from niverify.lang import Assign, BExpr, Command, Expr, If, Seq, Skip, While, used_vars
from niverify.relational import RelSymStore, Single
from niverify.solver import Solver
from niverify.symcore import SymPath


class PcLevel(enum.Enum):
    LOW = "L"
    HIGH = "H"

    def join(self, other: PcLevel) -> PcLevel:
        return PcLevel.HIGH if PcLevel.HIGH in (self, other) else PcLevel.LOW


@dataclass(frozen=True)
class DepState:
    """The set of variables both executions agree on."""

    low_agree: frozenset[str]

    @staticmethod
    def of(variables) -> DepState:
        return DepState(frozenset(variables))

    def __str__(self) -> str:
        return "{" + ", ".join(sorted(self.low_agree)) + "}"


def level_of(node: Expr | BExpr, d: DepState) -> PcLevel:
    """Low exactly when every mentioned variable is known to agree."""
    return PcLevel.LOW if used_vars(node) <= d.low_agree else PcLevel.HIGH


def dep_analyze(
    cmd: Command, pc: PcLevel, d: DepState, numeric: AbstractState | None = None
) -> DepState:
    """Sound post-state: variables still agreeing after both runs finish."""
    d2, _ = _analyze(cmd, pc, d, numeric)
    return d2


def _analyze(
    cmd: Command, pc: PcLevel, d: DepState, a: AbstractState | None
) -> tuple[DepState, AbstractState | None]:
    if a is not None and a.is_bottom:
        return d, a
    match cmd:
        case Skip():
            return d, a
        case Assign(var, expr):
            keep = pc is PcLevel.LOW and level_of(expr, d) is PcLevel.LOW
            low = d.low_agree | {var} if keep else d.low_agree - {var}
            a2 = a_assign(var, expr, a) if a is not None else None
            return DepState(low), a2
        case Seq(first, second):
            d1, a1 = _analyze(first, pc, d, a)
            return _analyze(second, pc, d1, a1)
        case If(guard, then_branch, else_branch):
            branch_pc = pc.join(level_of(guard, d))
            results = []
            for branch, g in ((then_branch, guard), (else_branch, guard.negate())):
                ab = a_guard(g, a) if a is not None else None
                if ab is not None and ab.is_bottom:
                    continue  # neither trace can take this branch
                results.append(_analyze(branch, branch_pc, d, ab))
            if not results:
                return d, a
            if len(results) == 1:
                return results[0]
            (dt, at), (de, ae) = results
            joined = a_join(at, ae) if a is not None else None
            return DepState(dt.low_agree & de.low_agree), joined
        case While(guard, body):
            d_cur, a_cur = d, a
            rounds = 0
            while True:
                branch_pc = pc.join(level_of(guard, d_cur))
                ab = a_guard(guard, a_cur) if a_cur is not None else None
                d_body, a_body = _analyze(body, branch_pc, d_cur, ab)
                d_next = DepState(d_cur.low_agree & d_body.low_agree)
                if a_cur is not None:
                    a_next = a_join(a_cur, a_body)
                    if rounds >= WIDEN_DELAY:
                        a_next = a_widen(a_cur, a_next)
                    numeric_stable = a_leq(a_next, a_cur)
                else:
                    a_next = None
                    numeric_stable = True
                if d_next == d_cur and numeric_stable:
                    break
                d_cur, a_cur = d_next, a_next
                rounds += 1
            a_exit = a_guard(guard.negate(), a_cur) if a_cur is not None else None
            return d_cur, a_exit
    raise lang.LangError(f"unknown command {cmd!r}")


def tau_sym_to_dep(rho2: RelSymStore, path: SymPath, solver: Solver) -> DepState:
    """Variables whose two projections are provably equal under the path."""
    low = set()
    for x in sorted(rho2):
        e = rho2[x]
        if isinstance(e, Single) or solver.prove_equal(e.left, e.right, path):
            low.add(x)
    return DepState(frozenset(low))

