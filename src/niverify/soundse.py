"""Bounded single-trace symbolic execution that stays sound past the bound.

SoundSE is the reduced product of ``redsoundse`` with no abstract domain:
its step is ``redsoundse.product_step`` on a state whose ``astate`` is
None.  The step mirrors the concrete small-step semantics on precise
stores, pruning branches whose extended path is definitely unsatisfiable.
It threads an iteration counter (a stack with one entry per entered loop)
and a precision flag: when a loop asks for one more iteration than the
bound allows, every variable the loop may write is replaced by a fresh
symbol, execution resumes after the loop, and the flag drops to false for
good.  Flag-true finals therefore describe exact path summaries; flag-false
finals over-approximate.

This module holds what the single-trace and relational steps share: the
redex split of a command, the counter, the havoc and the depth-first
explorer.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

from niverify.lang import Command, Program, Seq, Skip, assigned_vars
from niverify.symcore import (
    PreciseStore,
    SymbolFactory,
    SymStore,
    SVal,
    initial_sym_store,
    TRUE,
)

Counter = tuple[int, ...]

W0: Counter = ()

State = TypeVar("State")


class PathCapExceeded(Exception):
    """Exploration grew past the configured path cap."""


def modif(rho: SymStore, cmd: Command, factory: SymbolFactory) -> SymStore:
    """Havoc: fresh symbols for everything the command may assign."""
    written = assigned_vars(cmd)
    return {x: SVal(factory.fresh(x)) if x in written else e for x, e in rho.items()}


def focus(cmd: Command) -> tuple[Command, list[Command]]:
    """Split a command into its redex and the continuations around it.

    The redex is the first command to run: an assignment, a conditional, a
    loop, skip itself, or ``skip; c``.  The continuations are the second
    halves of the enclosing sequences, outermost first.
    """
    rest: list[Command] = []
    while isinstance(cmd, Seq) and not isinstance(cmd.first, Skip):
        rest.append(cmd.second)
        cmd = cmd.first
    return cmd, rest


def plug(cmd: Command, rest: list[Command]) -> Command:
    """Put a successor of the redex back into its continuations."""
    for second in reversed(rest):
        cmd = Seq(cmd, second)
    return cmd


def counter_apply(kind: str, active: bool, counter: Counter, k: int) -> tuple[bool, Counter]:
    """Update the counter for one loop consultation.

    ``kind`` is "continue" or "exit"; ``active`` tells an already-entered
    loop from a fresh entry.  Exits always succeed (popping the loop's
    entry if it has one).  A continue pushes a zero on first entry, then
    allows the iteration only while the count is below the bound; otherwise
    it pops and reports exhaustion.
    """
    if kind == "exit":
        return True, (counter[:-1] if active else counter)
    if not active:
        counter = counter + (0,)
    top = counter[-1]
    if top < k:
        return True, counter[:-1] + (top + 1,)
    return False, counter[:-1]


def explore(
    start: State,
    step: Callable[[State], list[State]],
    is_final: Callable[[State], bool],
    path_cap: int,
) -> Iterator[State]:
    """Yield the final states, depth first in the order the step lists successors.

    Yielding lets callers keep only the part of each final they need.
    """
    stack = [start]
    expanded = 0
    while stack:
        state = stack.pop()
        if is_final(state):
            yield state
            continue
        expanded += 1
        if expanded > path_cap:
            raise PathCapExceeded(f"more than {path_cap} states expanded")
        stack.extend(reversed(step(state)))


def initial_precise_store(program: Program, factory: SymbolFactory) -> PreciseStore:
    return PreciseStore.of(initial_sym_store(program, factory), TRUE)
