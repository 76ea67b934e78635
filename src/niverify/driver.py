"""Noninterference decision procedure, counter-example replay, corpus runner.

``verify_ni`` explores a program with the configured relational engine and
classifies every final path: infeasible, secure (all low variables
provably agree), a refutation (a model where some low variable differs, on
a path that never over-approximated), or an alarm.  A refutation is only
ever reported after its model replayed concretely as two runs from
low-equal stores ending low-unequal; failure to replay is a soundness bug
and aborts loudly.

The corpus runner evaluates a directory of programs under the full engine
matrix and emits a deterministic verdict grid.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from niverify import lang
from niverify.dependence import DepState, PcLevel, dep_analyze, tau_sym_to_dep
from niverify.lang import Program, While, low_equal, run
from niverify.relational import (
    Pair,
    RelEngine,
    RelPreciseStore,
    RelSymStore,
    Single,
    modif_dep,
    proj_expr,
    srse_explore,
)
from niverify.solver import (
    BruteForceBackend,
    InternalBackend,
    Sat,
    SmtProcessBackend,
    Solver,
    Unsat,
)
from niverify.soundse import PathCapExceeded
from niverify.symcore import (
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
    solver_backend: str = "internal"  # internal | brute (ignored with solver_command)
    all_paths: bool = False
    replay_fuel: int = 200_000

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.single_engine not in SINGLE_ENGINES:
            raise ConfigError(f"unknown single-trace engine {self.single_engine!r}")
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown domain {self.domain!r}")
        if self.single_engine == "redsoundse" and self.domain != "intervals":
            raise ConfigError("the redsoundse single-trace engine requires domain='intervals'")

    def label(self) -> str:
        if self.engine == "dep":
            return "dep"
        return f"{self.engine}+{self.single_engine}"


def make_solver(config: AnalysisConfig) -> Solver:
    if config.solver_command:
        return Solver(SmtProcessBackend(config.solver_command, config.solver_timeout_ms))
    if config.solver_backend == "brute":
        return Solver(BruteForceBackend())
    return Solver(InternalBackend())


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
            rho2[x] = Single(SVal(factory.initial(x)))
        else:
            rho2[x] = Pair(SVal(factory.fresh(x)), SVal(factory.fresh(x)))
    return rho2


def make_rel_engine(program: Program, config: AnalysisConfig, solver: Solver) -> RelEngine:
    factory = SymbolFactory()
    use_intervals = config.single_engine == "redsoundse" and config.domain == "intervals"

    havoc = None
    if config.engine == "redsoundrse":

        def havoc(rho2, loop: While, path: SymPath, a0, a1):
            from niverify.absint import a_join

            d0 = tau_sym_to_dep(rho2, path, solver)
            numeric = a_join(a0, a1) if use_intervals else None
            d = dep_analyze(loop, PcLevel.LOW, d0, numeric=numeric)
            return modif_dep(rho2, loop, d.low_agree, factory)

    return RelEngine(
        solver=solver,
        factory=factory,
        bound=config.bound,
        use_intervals=use_intervals,
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
    valuation: tuple[tuple[object, int], ...]
    witness_var: str


PathVerdict = Infeasible | SecurePath | Refutation | Alarm


def classify_path(
    kappa2: RelPreciseStore, precise: bool, low_vars: frozenset[str], solver: Solver
) -> PathVerdict:
    """Four-way classification of one final relational path."""
    res = solver.check_sat(kappa2.path)
    if isinstance(res, Unsat):
        return Infeasible()
    rho2 = kappa2.store()
    secure = True
    suspicious: list[str] = []
    for x in sorted(low_vars):
        e = rho2[x]
        if isinstance(e, Single):
            continue
        if solver.prove_equal(e.left, e.right, kappa2.path):
            continue
        secure = False
        suspicious.append(x)
    if secure:
        return SecurePath()
    if precise:
        disagree = TRUE
        for x in suspicious:
            e = rho2[x]
            disagree = pand(disagree, pcmp("==", proj_expr(0, e), proj_expr(1, e)))
        query = pand(kappa2.path, pnot(disagree))
        model = solver.check_sat(query)
        if isinstance(model, Sat):
            # Folding can take suspicious symbols out of the query (one
            # constant disagreement makes the conjunction false), so the
            # model need not bind them.  They are unconstrained: any value
            # does, and 0 is the one replay gives unbound initial symbols.
            valuation = model.valuation()
            for x in suspicious:
                for i in (0, 1):
                    for sym in symbols_of_expr(proj_expr(i, rho2[x])):
                        valuation.setdefault(sym, 0)
            witness = next(
                x
                for x in suspicious
                if eval_sym(proj_expr(0, rho2[x]), valuation)
                != eval_sym(proj_expr(1, rho2[x]), valuation)
            )
            return Refutation(model.model, witness)
    return Alarm(store=_rho2_str(rho2), path=str(kappa2.path), precise=precise)


def _rho2_str(rho2: RelSymStore) -> str:
    return "[" + ", ".join(f"{x} -> {rho2[x]}" for x in sorted(rho2)) + "]"


def replay(
    valuation: Valuation, rho2_0: RelSymStore, program: Program, fuel: int
) -> CounterExample:
    """Rebuild both initial stores from a model, run them, demand a difference."""
    total = dict(valuation)
    for x, e in rho2_0.items():
        for i in (0, 1):
            for sym in symbols_of_expr(proj_expr(i, e)):
                total.setdefault(sym, 0)
    store0 = {x: eval_sym(proj_expr(0, e), total) for x, e in rho2_0.items()}
    store1 = {x: eval_sym(proj_expr(1, e), total) for x, e in rho2_0.items()}
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
    """Prove noninterference, refute it with a replayed model, or report alarms."""
    config.validate()
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
    refutations: list[CounterExample] = []
    for kappa2, precise in finals:
        verdict = classify_path(kappa2, precise, program.low_vars, solver)
        match verdict:
            case Infeasible() | SecurePath():
                continue
            case Refutation(model, _):
                ce = replay(dict(model), rho2_0, program, config.replay_fuel)
                refutations.append(ce)
                if not config.all_paths:
                    return Insecure(ce)
            case Alarm() as alarm:
                alarms.append(alarm)
    if refutations:
        return Insecure(refutations[0])
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


def _config_for(engine: str, single_engine: str | None, base: AnalysisConfig, bound: int) -> AnalysisConfig:
    return AnalysisConfig(
        engine=engine,
        single_engine=single_engine or "soundse",
        domain="intervals" if single_engine == "redsoundse" else "none",
        bound=bound,
        path_cap=base.path_cap,
        solver_command=base.solver_command,
        solver_timeout_ms=base.solver_timeout_ms,
        solver_backend=base.solver_backend,
        replay_fuel=base.replay_fuel,
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
            config = _config_for(engine, single, base, bound)
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
    configs = [f"{e}+{s}" if s else e for e, s in MATRIX]
    by_key = {(r["program"], r["config"]): r["verdict"] for r in rows}
    width = max(len(c) for c in configs) + 2
    name_w = max((len(p) for p in programs), default=7) + 2
    lines = ["".join(["program".ljust(name_w)] + [c.ljust(width) for c in configs])]
    for p in programs:
        cells = [by_key.get((p, c), "-").ljust(width) for c in configs]
        lines.append("".join([p.ljust(name_w)] + cells))
    lines.append(f"determinism hash: {report['determinism_hash']}")
    return "\n".join(lines)
