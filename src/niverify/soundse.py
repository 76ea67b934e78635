"""Bounded single-trace symbolic execution that stays sound past the bound.

SoundSE is the reduced product of ``redsoundse`` with no abstract domain:
its step is ``redsoundse.product_step`` on a state whose ``astate`` is
None.  The step mirrors the concrete small-step semantics on precise
stores, pruning branches whose extended path is definitely unsatisfiable.
Each loop node counts the iterations its entry has unrolled
(``While.unrolled``), and the state carries a precision flag: when a loop
asks for one more iteration than the bound allows, every variable the loop
may write is replaced by a fresh symbol, execution resumes after the loop,
and the flag drops to false for good.  Unrolling re-plugs the loop's
original body, so an inner loop starts from zero on every entry.
Flag-true finals therefore describe exact path summaries; flag-false
finals over-approximate.

This module holds what the single-trace and relational steps share: the
redex split of a command, the havoc and the depth-first explorer.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

from niverify.lang import Command, Program, Seq, Skip, assigned_vars
from niverify.symcore import (
    PreciseStore,
    SymbolFactory,
    SymStore,
    SVal,
    TRUE,
)

State = TypeVar("State")


class PathCapExceeded(Exception):
    """Exploration grew past the configured path cap."""


def modif(rho: SymStore, cmd: Command, factory: SymbolFactory) -> SymStore:
    """Havoc: fresh symbols for everything the command may assign, minted
    in sorted variable order."""
    written = assigned_vars(cmd)
    return {x: SVal(factory.fresh(x)) if x in written else rho[x] for x in sorted(rho)}


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
    """Every variable bound to the symbol for its own initial value."""
    return PreciseStore.of({x: SVal(factory.initial(x)) for x in sorted(program.all_vars)}, TRUE)
