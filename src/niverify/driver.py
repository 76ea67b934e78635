"""Noninterference decision procedure, counter-example replay, corpus runner.

``verify_ni`` explores a program with the configured relational engine and
classifies every final path: infeasible, secure (all low variables
provably agree), a refutation (a model where some low variable differs, on
a path that never over-approximated), or an alarm.  A refutation is only
ever reported after its model replayed concretely as two runs from
low-equal stores ending low-unequal; failure to replay is a soundness bug
and aborts loudly.

Noninterference compares only the final values of low variables, so a
program that assigns none of them is ``Secure`` before any engine runs.
The rule is syntactic (``lang.assigned_vars``) and exact for every
engine: an unwritten low variable keeps its one shared initial symbol,
since havoc renames only written variables, so every final path would be
infeasible or secure, and ``dep`` keeps it in its agreement set.  The
only other outcome exploration could reach is the path-cap alarm, a
budget overrun and not a verdict.

The corpus runner evaluates a directory of programs under the full engine
matrix and emits a deterministic verdict grid.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

from niverify import lang
from niverify.absint import a_join
from niverify.dependence import DepState, PcLevel, dep_analyze, tau_sym_to_dep
from niverify.lang import Program, While, low_equal, run
from niverify.relational import (
    Pair,
    RelEngine,
    RelSymStore,
    agree,
    modif_dep,
    srse_explore,
)
from niverify.solver import Sat, SmtProcessBackend, Solver, Unsat
from niverify.soundse import PathCapExceeded
from niverify.symcore import (
    PreciseStore,
    SVal,
    SymbolFactory,
    SymPath,
    Valuation,
    eval_sym,
    pand,
    pcmp,
    pnot,
    symbols_of_expr,
    TRUE,
)

ENGINES = ("dep", "soundrse", "redsoundrse")
SINGLE_ENGINES = ("soundse", "redsoundse")
DOMAINS = ("intervals", "none")

# Steps each replayed run may take before replay gives up.
REPLAY_FUEL = 200_000

# The least value each numeric setting of ``AnalysisConfig`` accepts.
MINIMUMS = {"bound": 0, "path_cap": 1, "solver_timeout_ms": 1}


class ConfigError(ValueError):
    pass


class ReplayFailure(Exception):
    """A refutation model did not replay: the analysis is unsound somewhere."""


@dataclass
class AnalysisConfig:
    engine: str = "redsoundrse"
    single_engine: str = "redsoundse"
    domain: str = "intervals"
    bound: int = 3
    path_cap: int = 4096
    solver_command: list[str] | None = None
    solver_timeout_ms: int = 5000

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.single_engine not in SINGLE_ENGINES:
            raise ConfigError(f"unknown single-trace engine {self.single_engine!r}")
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.single_engine == "redsoundse" and self.domain != "intervals":
            raise ConfigError("the redsoundse single-trace engine requires domain='intervals'")
        for name, least in MINIMUMS.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")

    def label(self) -> str:
        if self.engine == "dep":
            return "dep"
        return f"{self.engine}+{self.single_engine}"


def make_solver(config: AnalysisConfig) -> Solver:
    if config.solver_command:
        return Solver(SmtProcessBackend(config.solver_command, config.solver_timeout_ms))
    return Solver()


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterExample:
    valuation: tuple[tuple[str, int], ...]
    store0: tuple[tuple[str, int], ...]
    store1: tuple[tuple[str, int], ...]
    out0: tuple[tuple[str, int], ...]
    out1: tuple[tuple[str, int], ...]
    witness_var: str


@dataclass(frozen=True)
class Alarm:
    store: str
    path: str
    precise: bool


@dataclass(frozen=True)
class Secure:
    pass


@dataclass(frozen=True)
class Insecure:
    counterexample: CounterExample


@dataclass(frozen=True)
class Inconclusive:
    alarms: tuple[Alarm, ...]


Verdict = Secure | Insecure | Inconclusive


def verdict_name(v: Verdict) -> str:
    return type(v).__name__


# ---------------------------------------------------------------------------
# RedSoundRSE pieces
# ---------------------------------------------------------------------------


def initial_rel_store(program: Program, factory: SymbolFactory) -> RelSymStore:
    """Low variables share one initial symbol; high ones get one per trace."""
    rho2: RelSymStore = {}
    for x in sorted(program.all_vars):
        if x in program.low_vars:
            sym = SVal(factory.initial(x))
            rho2[x] = Pair(sym, sym)
        else:
            rho2[x] = Pair(SVal(factory.fresh(x)), SVal(factory.fresh(x)))
    return rho2


def make_rel_engine(program: Program, config: AnalysisConfig, solver: Solver) -> RelEngine:
    factory = SymbolFactory()

    havoc = None
    if config.engine == "redsoundrse":

        def havoc(rho2, loop: While, path: SymPath, a0, a1):
            d0 = tau_sym_to_dep(rho2, path, solver)
            numeric = None if a0 is None else a_join(a0, a1)
            d = dep_analyze(loop, PcLevel.LOW, d0, numeric=numeric)
            return modif_dep(rho2, loop, d.low_agree, factory)

    return RelEngine(
        solver=solver,
        factory=factory,
        bound=config.bound,
        use_intervals=config.single_engine == "redsoundse" and config.domain == "intervals",
        havoc=havoc,
    )


# ---------------------------------------------------------------------------
# Path classification and the decision procedure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class SecurePath:
    pass


@dataclass(frozen=True)
class Refutation:
    valuation: Valuation


PathVerdict = Infeasible | SecurePath | Refutation | Alarm


def classify_path(
    kappa2: PreciseStore, precise: bool, low_vars: frozenset[str], solver: Solver
) -> PathVerdict:
    """Four-way classification of one final relational path.  A refutation
    holds the solver's model only; ``replay`` finds the witness."""
    res = solver.check_sat(kappa2.path)
    if isinstance(res, Unsat):
        return Infeasible()
    rho2 = kappa2.store()
    suspicious = [x for x in sorted(low_vars) if not agree(rho2[x], kappa2.path, solver)]
    if not suspicious:
        return SecurePath()
    if precise:
        disagree = TRUE
        for x in suspicious:
            disagree = pand(disagree, pcmp("==", rho2[x].left, rho2[x].right))
        query = pand(kappa2.path, pnot(disagree))
        model = solver.model(query)
        if isinstance(model, Sat):
            return Refutation(model.model)
    return Alarm(store=_rho2_str(rho2), path=str(kappa2.path), precise=precise)


def _rho2_str(rho2: RelSymStore) -> str:
    return "[" + ", ".join(f"{x} -> {rho2[x]}" for x in sorted(rho2)) + "]"


def replay(
    valuation: Valuation, rho2_0: RelSymStore, program: Program, fuel: int
) -> CounterExample:
    """Rebuild both initial stores from a model, run them, demand a difference."""
    total = dict(valuation)
    for e in rho2_0.values():
        for sym in symbols_of_expr(e.left) | symbols_of_expr(e.right):
            total.setdefault(sym, 0)
    store0 = {x: eval_sym(e.left, total) for x, e in rho2_0.items()}
    store1 = {x: eval_sym(e.right, total) for x, e in rho2_0.items()}
    if not low_equal(store0, store1, program.low_vars):
        raise ReplayFailure("initial stores are not low-equal")
    res0 = run(program, store0, fuel)
    res1 = run(program, store1, fuel)
    if not isinstance(res0, lang.Final) or not isinstance(res1, lang.Final):
        raise ReplayFailure("a replayed execution did not terminate within fuel")
    out0, out1 = res0.as_store(), res1.as_store()
    witness = next((x for x in sorted(program.low_vars) if out0[x] != out1[x]), None)
    if witness is None:
        raise ReplayFailure("replayed runs ended low-equal; model was spurious")
    return CounterExample(
        valuation=tuple(sorted((s.name, v) for s, v in total.items())),
        store0=tuple(sorted(store0.items())),
        store1=tuple(sorted(store1.items())),
        out0=tuple(sorted(out0.items())),
        out1=tuple(sorted(out1.items())),
        witness_var=witness,
    )


def _verify_dep_only(program: Program) -> Verdict:
    d0 = DepState(frozenset(program.low_vars))
    d = dep_analyze(program.body, PcLevel.LOW, d0)
    leaked = program.low_vars - d.low_agree
    if not leaked:
        return Secure()
    alarm = Alarm(
        store="low variables possibly influenced by secrets: " + ", ".join(sorted(leaked)),
        path="",
        precise=False,
    )
    return Inconclusive((alarm,))


def verify_ni(program: Program, config: AnalysisConfig) -> Verdict:
    """Prove noninterference, refute it with a replayed model, or report alarms.

    A program that writes no low variable is ``Secure`` at once: both
    runs end with the low values they started with.
    """
    config.validate()
    if not program.low_vars & lang.assigned_vars(program.body):
        return Secure()
    if config.engine == "dep":
        return _verify_dep_only(program)

    solver = make_solver(config)
    engine = make_rel_engine(program, config, solver)
    rho2_0 = initial_rel_store(program, engine.factory)
    try:
        finals = srse_explore(program, rho2_0, engine, config.path_cap)
    except PathCapExceeded as exc:
        return Inconclusive((Alarm(store="", path=str(exc), precise=False),))

    alarms: list[Alarm] = []
    for kappa2, precise in finals:
        verdict = classify_path(kappa2, precise, program.low_vars, solver)
        match verdict:
            case Infeasible() | SecurePath():
                continue
            case Refutation(model):
                return Insecure(replay(model, rho2_0, program, REPLAY_FUEL))
            case Alarm() as alarm:
                alarms.append(alarm)
    if alarms:
        return Inconclusive(tuple(alarms))
    return Secure()


# ---------------------------------------------------------------------------
# Corpus runner and reports
# ---------------------------------------------------------------------------

MATRIX = (
    ("dep", None),
    ("soundrse", "soundse"),
    ("soundrse", "redsoundse"),
    ("redsoundrse", "soundse"),
    ("redsoundrse", "redsoundse"),
)

_BOUND_DIRECTIVE = re.compile(r"//\s*bound:\s*(\d+)")


def config_for(engine: str, single_engine: str | None, base: AnalysisConfig, **changes) -> AnalysisConfig:
    """``base`` with one ``MATRIX`` entry's engines; the domain follows the single-trace engine."""
    return replace(
        base,
        engine=engine,
        single_engine=single_engine or "soundse",
        domain="intervals" if single_engine == "redsoundse" else "none",
        **changes,
    )


def verdict_to_json(verdict: Verdict) -> dict:
    entry: dict = {"verdict": verdict_name(verdict)}
    match verdict:
        case Insecure(ce):
            entry["counterexample"] = {
                "valuation": dict(ce.valuation),
                "store0": dict(ce.store0),
                "store1": dict(ce.store1),
                "out0": dict(ce.out0),
                "out1": dict(ce.out1),
                "witness": ce.witness_var,
            }
        case Inconclusive(alarms):
            entry["alarms"] = [
                {"store": a.store, "path": a.path, "precise": a.precise} for a in alarms
            ]
    return entry


def run_corpus(directory: str | Path, base: AnalysisConfig | None = None) -> dict:
    """Analyze every ``.imp`` file under every matrix configuration."""
    base = base or AnalysisConfig()
    directory = Path(directory)
    results = []
    for path in sorted(directory.glob("*.imp")):
        text = path.read_text()
        program = lang.parse_program(text)
        directive = _BOUND_DIRECTIVE.search(text)
        bound = int(directive.group(1)) if directive else base.bound
        for engine, single in MATRIX:
            config = config_for(engine, single, base, bound=bound)
            verdict = verify_ni(program, config)
            entry = {"program": path.stem, "config": config.label(), "bound": bound}
            entry.update(verdict_to_json(verdict))
            results.append(entry)
    grid_only = [
        {k: row[k] for k in ("program", "config", "bound", "verdict")} for row in results
    ]
    digest = hashlib.sha256(
        json.dumps(grid_only, sort_keys=True).encode()
    ).hexdigest()
    return {"results": results, "determinism_hash": digest}


def report_text(report: dict) -> str:
    """Fixed-width verdict grid, one row per program."""
    rows = report["results"]
    programs = sorted({r["program"] for r in rows})
    configs = [config_for(e, s, AnalysisConfig()).label() for e, s in MATRIX]
    by_key = {(r["program"], r["config"]): r["verdict"] for r in rows}
    width = max(len(c) for c in configs) + 2
    name_w = max((len(p) for p in programs), default=7) + 2
    lines = ["".join(["program".ljust(name_w)] + [c.ljust(width) for c in configs])]
    for p in programs:
        cells = [by_key.get((p, c), "-").ljust(width) for c in configs]
        lines.append("".join([p.ljust(name_w)] + cells))
    lines.append(f"determinism hash: {report['determinism_hash']}")
    return "\n".join(lines)
