"""Conservative satisfiability, validity and model extraction for paths.

Two backends sit behind one facade:

* ``InternalBackend`` (default): exact decision procedure for the linear
  fragment.  Paths are normalized to disjunctive normal form, nonlinear
  monomials are relaxed to fresh unknowns, and each conjunctive clause is
  decided by Fourier-Motzkin elimination over integer rows with integer
  bound tightening.  Models are rebuilt by back-substitution and always
  re-checked against the original path before being reported.
* ``SmtProcessBackend``: talks SMT-LIB2 v2.6 to an external solver binary
  over stdin/stdout (``--solver`` on the CLI).  ``python -m
  niverify.smtshell`` is a bundled binary-compatible peer.

The facade answers each question with the least work.  ``may_sat`` and
``prove_equal`` need only a definite Unsat, so they never search.  Only
``model``, asked for the counter-example of a refutation, falls back to a
bounded search over small values when the backend gives Unknown (a
spurious point of the nonlinear relaxation, say).  Unknown is folded
toward the sound side by the callers: a path that might be satisfiable is
kept, an equality that might not hold is not assumed.
"""

from __future__ import annotations

import itertools
import math
import subprocess
from dataclasses import dataclass

from niverify.lang import NEGATED_CMP
from niverify.symcore import (
    PAnd,
    PCmp,
    PNot,
    PTrue,
    SBinOp,
    SConst,
    SVal,
    SymExpr,
    SymPath,
    SymValue,
    Valuation,
    eval_path,
    pand,
    pcmp,
    symbols_of_path,
)

# Budgets for the internal procedure; exceeding any of them yields Unknown.
MAX_CLAUSES = 128
MAX_ROWS = 4000
BRUTE_DEFAULT_RANGE = (-8, 8)
BRUTE_MAX_COMBOS = 250_000


@dataclass(frozen=True)
class Sat:
    model: tuple[tuple[SymValue, int], ...]

    def valuation(self) -> Valuation:
        return dict(self.model)


@dataclass(frozen=True)
class Unsat:
    pass


@dataclass(frozen=True)
class Unknown:
    reason: str = ""


SatResult = Sat | Unsat | Unknown

UNSAT = Unsat()


# ---------------------------------------------------------------------------
# Normalization: path -> DNF of linear rows
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of symbols; () is the constant term.  Degree
# >= 2 monomials become opaque unknowns, which only ever weakens a clause,
# so Unsat answers remain sound for the nonlinear original.
Monomial = tuple[SymValue, ...]
Poly = dict[Monomial, int]


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
            mono = tuple(sorted(m1 + m2, key=lambda s: s.uid))
            out[mono] = out.get(mono, 0) + c1 * c2
            if out[mono] == 0:
                del out[mono]
    return out


def _expr_poly(expr: SymExpr) -> Poly:
    match expr:
        case SConst(value):
            return _poly_const(value)
        case SVal(sym):
            return {(sym,): 1}
        case SBinOp(op, left, right):
            lp, rp = _expr_poly(left), _expr_poly(right)
            if op == "+":
                return _poly_add(lp, rp)
            if op == "-":
                return _poly_add(lp, rp, sign=-1)
            return _poly_mul(lp, rp)
    raise ValueError(f"unknown symbolic expression {expr!r}")


# A row is (coeffs over monomial keys, constant) encoding  sum + const <= 0.
Row = tuple[dict[Monomial, int], int]
Clause = list[Row]


def _rows_of_cmp(op: str, left: SymExpr, right: SymExpr) -> list[list[Row]]:
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


class _Blowup(Exception):
    pass


def _dnf(path: SymPath, positive: bool) -> list[Clause]:
    """Clauses of rows; an empty clause list means the formula is false."""
    match path:
        case PTrue():
            return [[]] if positive else []
        case PNot(operand):
            return _dnf(operand, not positive)
        case PCmp(op, left, right):
            actual = op if positive else NEGATED_CMP[op]
            return _rows_of_cmp(actual, left, right)
        case PAnd(left, right):
            if positive:
                lhs, rhs = _dnf(left, True), _dnf(right, True)
                if len(lhs) * len(rhs) > MAX_CLAUSES:
                    raise _Blowup
                return [lc + rc for lc in lhs for rc in rhs]
            out = _dnf(left, False) + _dnf(right, False)
            if len(out) > MAX_CLAUSES:
                raise _Blowup
            return out
    raise ValueError(f"unknown path {path!r}")


# ---------------------------------------------------------------------------
# Clause decision: Fourier-Motzkin with integer tightening
# ---------------------------------------------------------------------------


def _normalize_row(row: Row) -> Row | None:
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
    # sum + const <= 0  <=>  sum/g + ceil(const/g) <= 0, as sum/g is integral
    return ({m: c // g for m, c in coeffs.items()}, -(-const // g))


@dataclass
class _Elimination:
    var: Monomial
    lowers: list[Row]  # rows with negative coefficient on var
    uppers: list[Row]  # rows with positive coefficient on var


def _fm_eliminate(clause: Clause) -> tuple[bool, list[_Elimination]]:
    """Eliminate all variables; returns (rationally feasible, trace).

    The trace records, per eliminated variable, the rows that bounded it at
    elimination time, for model back-substitution.
    """
    rows: list[Row] = []
    seen: set[tuple] = set()

    def push(row: Row) -> bool:
        norm = _normalize_row(row)
        if norm is None:
            return True
        coeffs, const = norm
        if not coeffs:
            return const <= 0
        key = (
            tuple(
                sorted(
                    ((tuple(s.uid for s in m), c) for m, c in coeffs.items()),
                )
            ),
            const,
        )
        if key not in seen:
            seen.add(key)
            rows.append(norm)
        return True

    for row in clause:
        if not push(row):
            return False, []

    trace: list[_Elimination] = []
    while True:
        variables = {m for coeffs, _ in rows for m in coeffs}
        if not variables:
            return True, trace
        # Cheapest variable first: fewest lower*upper combinations.
        def cost(var: Monomial) -> tuple[int, int]:
            lo = sum(1 for coeffs, _ in rows if coeffs.get(var, 0) < 0)
            hi = sum(1 for coeffs, _ in rows if coeffs.get(var, 0) > 0)
            return (lo * hi, min(s.uid for s in var) if var else -1)

        var = min(variables, key=cost)
        lowers = [r for r in rows if r[0].get(var, 0) < 0]
        uppers = [r for r in rows if r[0].get(var, 0) > 0]
        rest = [r for r in rows if var not in r[0]]
        trace.append(_Elimination(var, lowers, uppers))
        rows, seen = [], set()
        for r in rest:
            if not push(r):
                return False, trace
        for lo_coeffs, lo_const in lowers:
            for hi_coeffs, hi_const in uppers:
                a = -lo_coeffs[var]
                b = hi_coeffs[var]
                combined = {
                    m: b * lo_coeffs.get(m, 0) + a * hi_coeffs.get(m, 0)
                    for m in set(lo_coeffs) | set(hi_coeffs)
                    if m != var
                }
                if not push((combined, b * lo_const + a * hi_const)):
                    return False, trace
        if len(rows) > MAX_ROWS:
            raise _Blowup


def _row_bounds(var: Monomial, rows: list[Row], assignment: dict[Monomial, int]):
    """Integer bounds on var implied by rows under a partial assignment.

    Monomials that dropped out of the system without their own elimination
    step are unconstrained below this point; they default to zero on first
    use (recorded, so every row sees the same value).
    """
    lo = None
    hi = None
    for coeffs, const in rows:
        a = coeffs.get(var, 0)
        rest = const + sum(
            c * assignment.setdefault(m, 0) for m, c in coeffs.items() if m != var
        )
        if a > 0:  # a*var + rest <= 0  ->  var <= -rest/a
            bound = -rest // a
            hi = bound if hi is None else min(hi, bound)
        elif a < 0:  # var >= rest/(-a)
            bound = -(rest // a)
            lo = bound if lo is None else max(lo, bound)
    return lo, hi


def _clause_model(trace: list[_Elimination]) -> dict[Monomial, int] | None:
    """Back-substitute an integer point through the elimination trace."""
    assignment: dict[Monomial, int] = {}
    for step in reversed(trace):
        lo, hi = _row_bounds(step.var, step.lowers + step.uppers, assignment)
        if lo is not None and hi is not None and lo > hi:
            return None  # rational wedge holds no integer (dark shadow)
        if lo is None and hi is None:
            value = 0
        elif lo is None:
            value = min(hi, 0)
        elif hi is None:
            value = max(lo, 0)
        else:
            value = min(max(0, lo), hi)
        assignment[step.var] = value
    return assignment


class InternalBackend:
    """Exact linear-integer decision procedure, Unknown beyond its budgets."""

    def check(self, path: SymPath) -> SatResult:
        symbols = sorted(symbols_of_path(path), key=lambda s: s.uid)
        try:
            clauses = _dnf(path, True)
        except _Blowup:
            return Unknown("normalization blowup")
        if not clauses:
            return UNSAT
        all_unsat = True
        for clause in clauses:
            try:
                feasible, trace = _fm_eliminate(clause)
            except _Blowup:
                all_unsat = False
                continue
            if not feasible:
                continue
            all_unsat = False
            assignment = _clause_model(trace)
            if assignment is None:
                continue
            model: Valuation = {}
            for mono, value in assignment.items():
                if len(mono) == 1:
                    model[mono[0]] = value
            for sym in symbols:
                model.setdefault(sym, 0)
            if eval_path(path, model):
                return Sat(tuple(sorted(model.items(), key=lambda kv: kv[0].uid)))
            # Otherwise the nonlinear relaxation gave a spurious point.
        return UNSAT if all_unsat else Unknown("no integer model found")


def _brute_search(path: SymPath) -> Sat | None:
    """A model with every symbol in ``BRUTE_DEFAULT_RANGE``; None past ``BRUTE_MAX_COMBOS``."""
    symbols = sorted(symbols_of_path(path), key=lambda s: s.uid)
    lo, hi = BRUTE_DEFAULT_RANGE
    if (hi - lo + 1) ** len(symbols) > BRUTE_MAX_COMBOS:
        return None
    for values in itertools.product(range(lo, hi + 1), repeat=len(symbols)):
        model = dict(zip(symbols, values))
        if eval_path(path, model):
            return Sat(tuple(sorted(model.items(), key=lambda kv: kv[0].uid)))
    return None


# ---------------------------------------------------------------------------
# SMT-LIB2 emission and external process backend
# ---------------------------------------------------------------------------


def _smt_name(sym: SymValue) -> str:
    return f"|{sym.name}|"


def _smt_expr(expr: SymExpr) -> str:
    match expr:
        case SConst(value):
            return str(value) if value >= 0 else f"(- {-value})"
        case SVal(sym):
            return _smt_name(sym)
        case SBinOp(op, left, right):
            return f"({op} {_smt_expr(left)} {_smt_expr(right)})"
    raise ValueError(f"unknown symbolic expression {expr!r}")


def _smt_path(path: SymPath) -> str:
    match path:
        case PTrue():
            return "true"
        case PCmp(op, left, right):
            lhs, rhs = _smt_expr(left), _smt_expr(right)
            if op == "==":
                return f"(= {lhs} {rhs})"
            if op == "!=":
                return f"(not (= {lhs} {rhs}))"
            return f"({op} {lhs} {rhs})"
        case PAnd(left, right):
            return f"(and {_smt_path(left)} {_smt_path(right)})"
        case PNot(operand):
            return f"(not {_smt_path(operand)})"
    raise ValueError(f"unknown path {path!r}")


def _is_nonlinear(path: SymPath) -> bool:
    try:
        clauses = _dnf(path, True)
    except _Blowup:
        return True
    return any(len(m) > 1 for clause in clauses for coeffs, _ in clause for m in coeffs)


def emit_smtlib(path: SymPath, symbols: set[SymValue]) -> str:
    """Render a complete SMT-LIB2 script for the given path."""
    logic = "QF_NIA" if _is_nonlinear(path) else "QF_LIA"
    lines = [f"(set-logic {logic})"]
    for sym in sorted(symbols, key=lambda s: s.uid):
        lines.append(f"(declare-const {_smt_name(sym)} Int)")
    lines.append(f"(assert {_smt_path(path)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def _sexp_tokens(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == "|":
            j = text.index("|", i + 1)
            tokens.append(text[i : j + 1])
            i = j + 1
        elif ch == ";":
            i = text.find("\n", i)
            i = len(text) if i < 0 else i
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()|;":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse_sexps(tokens: list[str]) -> list:
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0]


def parse_model_output(text: str, symbols: set[SymValue]) -> Valuation | None:
    """Pull ``(define-fun name () Int value)`` bindings out of solver output."""
    by_name = {sym.name: sym for sym in symbols}
    try:
        sexps = _parse_sexps(_sexp_tokens(text))
    except (ValueError, IndexError):
        return None

    model: Valuation = {}

    def visit(node) -> None:
        if not isinstance(node, list):
            return
        if len(node) >= 5 and node[0] == "define-fun":
            name = node[1].strip("|")
            value = node[4]
            if isinstance(value, list) and len(value) == 2 and value[0] == "-":
                value = -int(value[1])
            elif isinstance(value, str) and (value.lstrip("-").isdigit()):
                value = int(value)
            else:
                return
            if name in by_name:
                model[by_name[name]] = value
            return
        for child in node:
            visit(child)

    for sexp in sexps:
        visit(sexp)
    for sym in symbols:
        model.setdefault(sym, 0)
    return model


class SmtProcessBackend:
    """One external solver process per query, speaking SMT-LIB2 on stdio."""

    def __init__(self, command: list[str], timeout_ms: int = 5000):
        self.command = command
        self.timeout_ms = timeout_ms

    def check(self, path: SymPath) -> SatResult:
        symbols = symbols_of_path(path)
        script = emit_smtlib(path, symbols)
        try:
            proc = subprocess.run(
                self.command,
                input=script,
                capture_output=True,
                text=True,
                timeout=self.timeout_ms / 1000.0,
            )
        except (subprocess.TimeoutExpired, OSError) as exc:
            return Unknown(f"solver unavailable: {exc.__class__.__name__}")
        out = proc.stdout.strip()
        first = out.split("\n", 1)[0].strip() if out else ""
        if first == "unsat":
            return UNSAT
        if first == "sat":
            model = parse_model_output(out.split("\n", 1)[1] if "\n" in out else "", symbols)
            if model is None:
                return Unknown("unparseable model")
            return Sat(tuple(sorted(model.items(), key=lambda kv: kv[0].uid)))
        return Unknown(f"solver said {first!r}")


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


class Solver:
    """Caching facade; every Sat model is replayed before being returned."""

    def __init__(self, backend=None):
        self.backend = backend if backend is not None else InternalBackend()
        self._cache: dict[SymPath, SatResult] = {}

    def check_sat(self, path: SymPath) -> SatResult:
        cached = self._cache.get(path)
        if cached is not None:
            return cached
        result = self.backend.check(path)
        if isinstance(result, Sat) and not eval_path(path, result.valuation()):
            result = Unknown("backend returned an invalid model")
        self._cache[path] = result
        return result

    def model(self, path: SymPath) -> SatResult:
        """``check_sat``, then a bounded search for a model if that gave Unknown.

        Only a refutation needs a model, so only it pays for the search.  A
        cached Unknown is searched again: ``prove_equal`` may have cached the
        very same path without searching.
        """
        result = self.check_sat(path)
        if isinstance(result, Unknown):
            found = _brute_search(path)
            if found is not None:
                self._cache[path] = result = found
        return result

    def may_sat(self, path: SymPath) -> bool:
        """False only on a definite Unsat; Unknown stays may-satisfiable."""
        return not isinstance(self.check_sat(path), Unsat)

    def prove_equal(self, e0: SymExpr, e1: SymExpr, path: SymPath) -> bool:
        """True only if ``path and e0 != e1`` is definitely unsatisfiable."""
        if e0 == e1:
            return True
        return isinstance(self.check_sat(pand(path, pcmp("!=", e0, e1))), Unsat)
