"""Conservative satisfiability, validity and model extraction for paths.

Two backends sit behind one facade:

* ``InternalBackend`` (default): exact decision procedure for the linear
  fragment, the incremental procedure below started from ``true``.  The
  path's normal form is decided by Fourier-Motzkin elimination over
  integer rows with integer bound tightening, once per choice of a clause
  of each disjunctive conjunct; nonlinear monomials are relaxed to fresh
  unknowns.  Models are rebuilt by back-substitution and always re-checked
  against the original path before being reported.
* ``SmtProcessBackend``: talks SMT-LIB2 v2.6 to an external solver binary
  over stdin/stdout (``--solver`` on the CLI).  ``python -m
  niverify.smtshell`` is a bundled binary-compatible peer.

The facade answers each question with the least work.  ``may_sat`` and
``prove_equal`` need only a definite Unsat, so they never search.  With the
internal backend they, and ``check_sat``, answer incrementally, since a
path is its parent plus a conjunct (``Solver._decide``); an Unknown of
that procedure is returned as it is.  The answer comes from the first of:

1. the cache of answers for the path itself;
2. Unsat, when the longest decided prefix is Unsat;
3. the prefix's model, if it satisfies the new conjuncts, or the same
   model repaired when exactly one linear new conjunct fails: one symbol
   moves to that conjunct's boundary, as a simplex pivot moves a variable
   to a violated bound (Dutertre and de Moura, CAV 2006), and the result
   must satisfy the prefix's rows and every new conjunct.  Every model
   the procedure keeps binds every symbol of its path, so a symbol the
   prefix's model does not bind occurs in no prefix conjunct: moving it
   keeps every prefix row true, and the result is checked against the
   new conjuncts only;
4. FM on the rows the new conjuncts reach through shared symbols, over
   the tightest rows the path caches (constraint independence, as in
   KLEE).

Unsat comes only from 2 and 4, which drop only rows that are implied or
independent, so it stays sound; a model from 3 is checked against the
whole path, so it exists only for a satisfiable path.  Only ``model``,
asked for the counter-example of a refutation, asks the backend about the
whole path, so the model does not depend on the queries before it; it
falls back to a bounded search over small values when the backend gives
Unknown (a spurious point of the nonlinear relaxation, say).  Unknown is
folded toward the sound side by the callers: a path that might be
satisfiable is kept, an equality that might not hold is not assumed.
"""

from __future__ import annotations

import itertools
import math
import subprocess
from collections.abc import Iterable
from dataclasses import dataclass

from niverify.lang import apply_cmp, fold
from niverify.symcore import (
    Blowup,
    Clause,
    Monomial,
    NormalForm,
    PAnd,
    PCmp,
    Poly,
    PTrue,
    Row,
    SBinOp,
    SConst,
    SVal,
    SymExpr,
    SymPath,
    SymValue,
    TRUE,
    Valuation,
    _expr_poly,
    _nested,
    cmp_rows,
    comparisons,
    conjuncts,
    eval_path,
    eval_sym,
    normal_form,
    normalize_row,
    pand,
    pcmp,
    render,
)

# Budgets for the internal procedure besides ``symcore.MAX_CLAUSES``;
# exceeding any of them yields Unknown.
MAX_ROWS = 4000
BRUTE_DEFAULT_RANGE = (-8, 8)
BRUTE_MAX_COMBOS = 250_000


@dataclass(frozen=True, slots=True)
class Sat:
    """A model that binds every symbol of the path it satisfies.

    The solver keeps one answer per decided path, and a path whose
    prefix's model satisfies it shares the prefix's answer; so no holder
    mutates ``model``, and ``valuation()`` is a copy to change.
    """

    model: Valuation

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
# Clause decision: Fourier-Motzkin with integer tightening
# ---------------------------------------------------------------------------


@dataclass
class _Elimination:
    var: Monomial
    lowers: list[Row]  # rows with negative coefficient on var
    uppers: list[Row]  # rows with positive coefficient on var


def _fm_eliminate(clause: Clause) -> tuple[bool, list[_Elimination]]:
    """Eliminate all variables; returns (rationally feasible, trace).

    The trace records, per eliminated variable, the rows that bounded it at
    elimination time, for model back-substitution.  Rows are kept by their
    dedup key, in the order first pushed; a row that survives a round keeps
    its key, and only the combined rows are normalized and keyed.
    """
    rows: dict[tuple, Row] = {}

    def push(row: Row) -> bool:
        norm = normalize_row(row)
        if norm is None:
            return True
        coeffs, const = norm
        if not coeffs:
            return const <= 0
        rows.setdefault((tuple(sorted(coeffs.items())), const), norm)
        return True

    for row in clause:
        if not push(row):
            return False, []

    trace: list[_Elimination] = []
    while True:
        # One pass counts every variable's lower and upper rows.
        variables: set[Monomial] = set()
        lower_rows: dict[Monomial, int] = {}
        upper_rows: dict[Monomial, int] = {}
        for coeffs, _ in rows.values():
            for m, c in coeffs.items():
                variables.add(m)
                counts = lower_rows if c < 0 else upper_rows
                counts[m] = counts.get(m, 0) + 1
        if not variables:
            return True, trace

        # Cheapest variable first: fewest lower*upper combinations, then
        # the least symbol (a monomial is sorted, so its first).
        def cost(var: Monomial) -> tuple[int, SymValue]:
            return (lower_rows.get(var, 0) * upper_rows.get(var, 0), var[0])

        var = min(variables, key=cost)
        lowers: list[Row] = []
        uppers: list[Row] = []
        rest: dict[tuple, Row] = {}
        for key, r in rows.items():
            c = r[0].get(var, 0)
            if c < 0:
                lowers.append(r)
            elif c > 0:
                uppers.append(r)
            else:
                rest[key] = r
        trace.append(_Elimination(var, lowers, uppers))
        rows = rest
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
            raise Blowup


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
        # The step's rows hold var, so at least one of them bounds it.
        if lo is None:
            value = min(hi, 0)
        elif hi is None:
            value = max(lo, 0)
        else:
            value = min(max(0, lo), hi)
        assignment[step.var] = value
    return assignment


class InternalBackend:
    """The incremental procedure on a path with no decided prefix; Unknown beyond its budgets."""

    def check(self, path: SymPath) -> SatResult:
        if path.clause_counts[0] is None:
            return Unknown("normalization blowup")
        return _decide_component(NormalForm(), Sat({}), list(conjuncts(path)))


def _brute_search(path: SymPath) -> Sat | None:
    """A model with every symbol in ``BRUTE_DEFAULT_RANGE``; None past ``BRUTE_MAX_COMBOS``."""
    symbols = sorted(path.symbols)
    lo, hi = BRUTE_DEFAULT_RANGE
    if (hi - lo + 1) ** len(symbols) > BRUTE_MAX_COMBOS:
        return None
    for values in itertools.product(range(lo, hi + 1), repeat=len(symbols)):
        model = dict(zip(symbols, values))
        if eval_path(path, model):
            return Sat(model)
    return None


# ---------------------------------------------------------------------------
# SMT-LIB2 emission and external process backend
# ---------------------------------------------------------------------------


def _smt_name(sym: SymValue) -> str:
    return f"|{sym.name}|"


def _smt_atom(term: SymExpr) -> str:
    match term:
        case SConst(value):
            return str(value) if value >= 0 else f"(- {-value})"
        case SVal(sym):
            return _smt_name(sym)
    raise ValueError(f"unknown symbolic expression {term!r}")


def _smt_expr(expr: SymExpr) -> str:
    return fold(expr, _smt_atom, _smt_atom, lambda op, left, right: f"({op} {left} {right})")


def _smt_leaf(path: SymPath) -> str:
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
    raise ValueError(f"unknown path {path!r}")


def _smt_path(path: SymPath) -> str:
    return render(path, _smt_leaf, ("(and ", " ", ")"), ("(not ", ")"))


def _is_nonlinear(path: SymPath) -> bool:
    """Whether a comparison of the path has a product of symbols; no normal
    form is expanded."""
    rows = (row for leaf in comparisons(path) for clause in cmp_rows(leaf) for row in clause)
    return any(len(m) > 1 for coeffs, _ in rows for m in coeffs)


def emit_smtlib(path: SymPath) -> str:
    """Render a complete SMT-LIB2 script for the given path."""
    logic = "QF_NIA" if _is_nonlinear(path) else "QF_LIA"
    lines = [f"(set-logic {logic})"]
    for sym in sorted(path.symbols):
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
            j = text.find("|", i + 1)
            if j < 0:
                raise ValueError("unterminated quoted symbol")
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
    """The top-level expressions; ``ValueError`` when parentheses do not balance."""
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unexpected ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise ValueError("unclosed '('")
    return stack[0]


def parse_model_output(text: str, symbols: set[SymValue]) -> Valuation | None:
    """Pull ``(define-fun name () Int value)`` bindings out of solver output."""
    by_name = {sym.name: sym for sym in symbols}
    try:
        sexps = _parse_sexps(_sexp_tokens(text))
    except (ValueError, IndexError):
        return None

    # The output is input from outside: it is walked on a stack, not by
    # recursion, visiting the nodes in the order a recursive walk would.
    model: Valuation = {}
    stack = sexps[::-1]
    while stack:
        node = stack.pop()
        if not isinstance(node, list):
            continue
        if len(node) >= 5 and node[0] == "define-fun":
            name, value = node[1], node[4]
            negative = isinstance(value, list) and len(value) == 2 and value[0] == "-"
            if negative:
                value = value[1]
            # A binding that is not a name and an integer is skipped.
            if isinstance(name, str) and isinstance(value, str) and value.lstrip("-").isdecimal():
                sym = by_name.get(name.strip("|"))
                if sym is not None:
                    model[sym] = -int(value) if negative else int(value)
            continue
        stack += reversed(node)
    for sym in symbols:
        model.setdefault(sym, 0)
    return model


class SmtProcessBackend:
    """One external solver process per query, speaking SMT-LIB2 on stdio."""

    def __init__(self, command: list[str], timeout_ms: int):
        self.command = command
        self.timeout_ms = timeout_ms

    def check(self, path: SymPath) -> SatResult:
        try:
            proc = subprocess.run(
                self.command,
                input=emit_smtlib(path),
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
            model = parse_model_output(out.split("\n", 1)[1] if "\n" in out else "", path.symbols)
            if model is None:
                return Unknown("unparseable model")
            return Sat(model)
        return Unknown(f"solver said {first!r}")


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


def _extended(prefix: Sat, leaves: list[SymPath], base: SymPath) -> Sat | None:
    """A model of ``base`` and ``leaves``, from ``prefix``, the answer for ``base``; or None.

    ``prefix`` itself if its model binds and satisfies every leaf; its
    model with 0 for the new symbols, if that satisfies every leaf;
    otherwise, if exactly one leaf fails, that model repaired on the leaf.
    """
    model = prefix.model
    missing = {s for leaf in leaves for s in leaf.symbols if s not in model}
    if missing:
        model = {**model, **dict.fromkeys(missing, 0)}
    failed = None
    for leaf in leaves:
        if not _holds(leaf, model):
            if failed is not None:
                return None
            failed = leaf
    if failed is None:
        return Sat(model) if missing else prefix
    model = _repaired(model, failed, leaves, base, missing)
    return None if model is None else Sat(model)


def _repaired(
    model: Valuation, leaf: SymPath, leaves: list[SymPath], base: SymPath, fresh: set[SymValue]
) -> Valuation | None:
    """``model`` with one symbol of the failed linear ``leaf`` moved to the leaf's boundary.

    For each symbol of the leaf in turn, and for ``!=`` on either side,
    the symbol takes the value nearest its own at which the leaf holds.
    The first candidate that satisfies every row and disjunct of
    ``base``'s normal form and every leaf is a model of the whole path.
    A symbol of ``fresh`` is one ``base``'s model does not bind, so it
    occurs in no conjunct of ``base`` (every model the solver keeps binds
    every symbol of its path): moving it keeps every row and disjunct of
    ``base`` true, so its candidates are checked against the leaves only,
    and ``base``'s normal form is built only when a symbol of ``base``
    moves.  A nonlinear leaf gives up and leaves the path to FM.
    """
    if not isinstance(leaf, PCmp):
        return None
    clauses = cmp_rows(leaf)
    if any(len(m) != 1 for clause in clauses for coeffs, _ in clause for m in coeffs):
        return None
    normal = None
    for mono in sorted(clauses[0][0][0]):
        for clause in clauses:
            # The rows of one clause bound the shift d of the symbol: each
            # is c*d + value <= 0, and d = 0 breaks one of them.
            lo = hi = None
            for coeffs, const in clause:
                c = coeffs[mono]
                value = const + sum(k * model[m[0]] for m, k in coeffs.items())
                if c > 0:
                    hi = -value // c if hi is None else min(hi, -value // c)
                else:
                    lo = -(value // c) if lo is None else max(lo, -(value // c))
            if lo is not None and hi is not None and lo > hi:
                continue
            candidate = dict(model)
            candidate[mono[0]] += lo if lo is not None and lo > 0 else hi
            if mono[0] not in fresh and normal is None:
                normal = normal_form(base)
            try:
                if (mono[0] in fresh or _satisfies(candidate, normal.rows.values(), normal.disjuncts)) and all(
                    _holds(other, candidate) for other in leaves
                ):
                    return candidate
            except KeyError:  # a symbol of the prefix the model does not bind
                return None
    return None


def _value(poly: Poly, valuation: Valuation) -> int:
    return sum(c * math.prod(valuation[s] for s in m) for m, c in poly.items())


def _row_holds(row: Row, valuation: Valuation) -> bool:
    coeffs, const = row
    return _value(coeffs, valuation) + const <= 0


def _holds(leaf: SymPath, valuation: Valuation) -> bool:
    """``eval_path`` of one leaf, where a side that nests operations is
    evaluated through its kept polynomial: a term one level deeper than
    one already evaluated costs one polynomial step, not a walk of the
    whole term.  Over integer ``+ - *`` the two values are equal."""
    if leaf.__class__ is not PCmp:
        return eval_path(leaf, valuation)
    left, right = leaf.left, leaf.right
    return apply_cmp(
        leaf.op,
        _value(_expr_poly(left), valuation) if left.__class__ is SBinOp and _nested(left) else eval_sym(left, valuation),
        _value(_expr_poly(right), valuation) if right.__class__ is SBinOp and _nested(right) else eval_sym(right, valuation),
    )


def _satisfies(model: Valuation, rows: Iterable[Row], disjuncts: list[tuple[SymPath, list[Clause]]]) -> bool:
    """Whether the model satisfies every row and every disjunct leaf."""
    return all(_row_holds(row, model) for row in rows) and all(_holds(leaf, model) for leaf, _ in disjuncts)


def _component(
    normal: NormalForm, seeds: set[SymValue]
) -> tuple[set[SymValue], list[Row], list[tuple[SymPath, list[Clause]]]]:
    """The symbols, rows and disjuncts that share symbols with ``seeds``, transitively."""
    rows = list(normal.rows.values())
    items = [{s for m in coeffs for s in m} for coeffs, _ in rows]
    items += [leaf.symbols for leaf, _ in normal.disjuncts]
    by_symbol: dict[SymValue, list[int]] = {}
    for i, symbols in enumerate(items):
        for sym in symbols:
            by_symbol.setdefault(sym, []).append(i)
    reached, frontier, taken = set(seeds), list(seeds), set()
    while frontier:
        for i in by_symbol.get(frontier.pop(), ()):
            if i not in taken:
                taken.add(i)
                fresh = items[i] - reached
                reached |= fresh
                frontier += fresh
    order = sorted(taken)
    return (
        reached,
        [rows[i] for i in order if i < len(rows)],
        [normal.disjuncts[i - len(rows)] for i in order if i >= len(rows)],
    )


def _decide_component(normal: NormalForm, prefix: SatResult, new: list[SymPath]) -> SatResult:
    """Decide the part of a path connected to its ``new`` leaves.

    ``normal`` is a copy of the decided prefix's normal form, and takes the
    ``new`` leaves.  The rest of the path is the prefix's, which is not
    Unsat, and shares no symbol with this part, so the path is Unsat
    exactly when this part is.  A model of the part joins the prefix's
    model, if it has one.
    """
    for leaf in new:
        normal.add(leaf)
    if normal.false:
        return UNSAT
    reached, rows, disjuncts = _component(normal, set().union(*(leaf.symbols for leaf in new)))
    undecided = False
    for choice in itertools.product(*(clauses for _, clauses in disjuncts)):
        try:
            feasible, trace = _fm_eliminate(rows + [row for clause in choice for row in clause])
        except Blowup:
            undecided = True
            continue
        if not feasible:
            continue
        undecided = True
        if not isinstance(prefix, Sat):
            break
        assignment = _clause_model(trace)
        if assignment is None:
            continue
        model = dict(prefix.model)
        for sym in reached:
            model[sym] = assignment.get((sym,), 0)
        if _satisfies(model, rows, disjuncts):
            return Sat(model)
        # Otherwise the nonlinear relaxation gave a spurious point.
    return Unknown("no integer model found") if undecided else UNSAT


class Solver:
    """Caching facade; every Sat model is replayed before being returned.

    With the internal backend, ``may_sat``, ``prove_equal`` and
    ``check_sat`` decide a path from what is known of its longest decided
    prefix (``_decide``: cache, Unsat prefix, extended or repaired model,
    FM), so a query on a long path costs about as much as its last
    conjuncts.  ``model`` always asks the backend about the whole
    path, so a counter-example does not depend on the queries before it.
    With any other backend every question goes to the backend.
    """

    def __init__(self, backend=None):
        self.backend = backend if backend is not None else InternalBackend()
        self._incremental = isinstance(self.backend, InternalBackend)
        self._cache: dict[SymPath, SatResult] = {}
        self._known: dict[SymPath, SatResult] = {}

    def _backend_check(self, path: SymPath) -> SatResult:
        cached = self._cache.get(path)
        if cached is not None:
            return cached
        result = self.backend.check(path)
        if isinstance(result, Sat) and not eval_path(path, result.model):
            result = Unknown("backend returned an invalid model")
        self._cache[path] = result
        return result

    def _decide(self, path: SymPath) -> SatResult:
        """The internal procedure's answer, built on the longest decided prefix.

        In order: the answer known for the path; Unsat under an Unsat
        prefix; the prefix's model, if it satisfies the added conjuncts or
        does once repaired on the one linear conjunct it fails
        (``_extended``); otherwise FM on the part of the path the added
        conjuncts reach through shared symbols, over its tightest rows.
        The repair builds the prefix's normal form only where FM would.
        """
        known = self._known
        answer = known.get(path)
        if answer is not None:
            return answer
        added: list[SymPath] = []
        base = path
        while isinstance(base, PAnd) and base not in known:
            added.append(base.right)
            base = base.left
        prefix = known.get(base)
        if prefix is None:
            # No prefix is decided: start from ``true``, whose model is empty.
            added.append(base)
            base, prefix = TRUE, Sat({})
        new = [leaf for sub in reversed(added) for leaf in conjuncts(sub)]
        if path.clause_counts[0] is None:
            answer = Unknown("normalization blowup")
        elif isinstance(prefix, Unsat):
            answer = UNSAT
        else:
            answer = _extended(prefix, new, base) if isinstance(prefix, Sat) else None
            if answer is None:
                # Only the prefix keeps its normal form: the path's is
                # needed again only if the path is extended and decided.
                answer = _decide_component(normal_form(base).copy(), prefix, new)
        known[path] = answer
        return answer

    def _answer(self, path: SymPath) -> SatResult:
        return self._decide(path) if self._incremental else self._backend_check(path)

    def check_sat(self, path: SymPath) -> SatResult:
        """Sat with some model, Unsat, or Unknown.

        The model is whichever the solver found first; ``model`` gives the
        backend's own.  With the internal backend this is the answer the
        incremental procedure keeps for the path, the same object on every
        call, so what it leaves Unknown stays Unknown.
        """
        return self._answer(path)

    def model(self, path: SymPath) -> SatResult:
        """The backend's answer, then a bounded search for a model if that was Unknown.

        Only a refutation needs a model, so only it pays for the search.  A
        cached Unknown is searched again: with a process backend,
        ``check_sat`` may have cached the very same path without searching.
        """
        result = self._backend_check(path)
        if isinstance(result, Unknown):
            found = _brute_search(path)
            if found is not None:
                self._cache[path] = result = found
        return result

    def may_sat(self, path: SymPath) -> bool:
        """False only on a definite Unsat; Unknown stays may-satisfiable."""
        return not isinstance(self._answer(path), Unsat)

    def prove_equal(self, e0: SymExpr, e1: SymExpr, path: SymPath) -> bool:
        """True only if ``path and e0 != e1`` is definitely unsatisfiable."""
        return isinstance(self._answer(pand(path, pcmp("!=", e0, e1))), Unsat)
