"""Random programs for the random-nonlinear workload.

The generator is a copy of the one in ``tests/helpers.py``, kept here so
that changes to the test helpers cannot change the benchmark's inputs.  The
oracle checks a Secure verdict concretely: low-equal store pairs must end
low-equal.
"""

from __future__ import annotations

import random

from niverify.lang import (
    SKIP,
    Assign,
    BinOp,
    Cmp,
    Const,
    If,
    Program,
    Seq,
    Skip,
    Var,
    While,
    concrete_step,
    low_equal,
)

RANDOM_MAX_DEPTH = 3
RANDOM_MAX_VARS = 3

VAR_POOL = ("a", "b", "c", "d")

ORACLE_PAIRS = 8
ORACLE_FUEL = 300
# Programs can square variables inside loops; past this magnitude a run is
# treated like divergence, so bignum growth cannot stall the oracle.
ORACLE_MAGNITUDE_CAP = 10**12


def random_expr(rng: random.Random, variables, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Const(rng.randint(-4, 4))
        return Var(rng.choice(variables))
    op = rng.choice(["+", "+", "-", "*"])
    return BinOp(op, random_expr(rng, variables, depth - 1), random_expr(rng, variables, depth - 1))


def random_cmp(rng: random.Random, variables, depth: int) -> Cmp:
    op = rng.choice(["<", "<=", "==", "!=", ">", ">="])
    return Cmp(op, random_expr(rng, variables, depth), random_expr(rng, variables, depth))


def random_command(rng: random.Random, variables, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.42:
        return Assign(rng.choice(variables), random_expr(rng, variables, min(depth, 2)))
    if roll < 0.58:
        return Seq(
            random_command(rng, variables, depth - 1),
            random_command(rng, variables, depth - 1),
        )
    if roll < 0.62:
        return SKIP
    if roll < 0.84:
        return If(
            random_cmp(rng, variables, 1),
            random_command(rng, variables, depth - 1),
            random_command(rng, variables, depth - 1),
        )
    # Loops are biased toward a counting shape so enough samples terminate.
    v = rng.choice(variables)
    bound = rng.randint(0, 4)
    body = Seq(Assign(v, BinOp("+", Var(v), Const(1))), random_command(rng, variables, depth - 1))
    if rng.random() < 0.25:
        return While(random_cmp(rng, variables, 1), random_command(rng, variables, depth - 1))
    return While(Cmp("<", Var(v), Const(bound)), body)


def random_program(rng: random.Random, max_depth: int = 4, max_vars: int = 4) -> Program:
    variables = VAR_POOL[: rng.randint(1, max_vars)]
    body = random_command(rng, variables, max_depth)
    n_low = rng.randint(0, len(variables))
    low = frozenset(rng.sample(variables, n_low))
    return Program(body, low, frozenset(variables))


def _run_capped(program: Program, store: dict) -> dict | None:
    """The final store of a concrete run, or None if it diverges or blows up."""
    cmd, current = program.body, dict(store)
    for _ in range(ORACLE_FUEL):
        if isinstance(cmd, Skip):
            return current
        cmd, current = concrete_step((cmd, current))
        if any(abs(v) > ORACLE_MAGNITUDE_CAP for v in current.values()):
            return None
    return current if isinstance(cmd, Skip) else None


def oracle_leak(program: Program, rng: random.Random) -> tuple[dict, dict] | None:
    """Two low-equal initial stores whose runs end low-unequal, or None."""
    for _ in range(ORACLE_PAIRS):
        store0 = {x: rng.randint(-8, 8) for x in sorted(program.all_vars)}
        store1 = dict(store0)
        for x in sorted(program.high_vars):
            store1[x] = rng.randint(-8, 8)
        out0 = _run_capped(program, store0)
        out1 = _run_capped(program, store1)
        if out0 is not None and out1 is not None and not low_equal(out0, out1, program.low_vars):
            return store0, store1
    return None
