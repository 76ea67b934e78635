"""A minimal SMT-LIB2 shell over the built-in decision procedure.

``python -m niverify.smtshell`` reads an SMT-LIB2 script on stdin and
answers ``sat``/``unsat``/``unknown`` plus a ``(define-fun ...)`` model,
which makes it a drop-in peer for the external-process solver backend
(``--solver``) when no real SMT solver is installed.  It understands the
integer fragment this package emits: ``declare-const``/nullary
``declare-fun``, ``assert`` over ``and``/``or``/``not``/comparisons and
``+ - *`` terms, ``check-sat`` and ``get-model``.
"""

from __future__ import annotations

import sys

from niverify.solver import Sat, Solver, _parse_sexps, _sexp_tokens
from niverify.symcore import (
    SConst,
    SVal,
    SymbolFactory,
    SymExpr,
    SymPath,
    TRUE,
    pand,
    pcmp,
    pnot,
    sbinop,
)


class ShellError(ValueError):
    pass


# SMT-LIB comparison heads and the path comparisons they denote.
_RELATIONS = {"=": "==", "distinct": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class Session:
    def __init__(self) -> None:
        self.factory = SymbolFactory()
        self.symbols: dict[str, object] = {}
        self.assertions: SymPath = TRUE
        self.last: str | None = None
        self.solver = Solver()
        self.model: Sat | None = None

    def declare(self, name: str) -> None:
        name = name.strip("|")
        if name not in self.symbols:
            self.symbols[name] = self.factory.fresh(name)

    def term(self, node) -> SymExpr:
        return _fold(node, ("+", "-", "*"), self._constant, _arithmetic)

    def _constant(self, node) -> SymExpr:
        if not isinstance(node, str):
            raise ShellError(f"unknown term {node!r}")
        name = node.strip("|")
        if name.lstrip("-").isdigit():
            return SConst(int(name))
        if name in self.symbols:
            return SVal(self.symbols[name])
        raise ShellError(f"unknown constant {name!r}")

    def formula(self, node) -> SymPath:
        return _fold(node, ("not", "and", "or"), self._atom, _connective)

    def _atom(self, node) -> SymPath:
        if node == "true":
            return TRUE
        if node == "false":
            return pnot(TRUE)
        if isinstance(node, str) or not node:
            raise ShellError(f"unknown formula {node!r}")
        head, *args = node
        if isinstance(head, str) and head in _RELATIONS:
            return pcmp(_RELATIONS[head], self.term(args[0]), self.term(args[1]))
        raise ShellError(f"unknown formula head {head!r}")

    def command(self, node) -> None:
        if not isinstance(node, list) or not node:
            return
        head = node[0]
        if head in ("set-logic", "set-option", "set-info", "exit"):
            return
        if head in ("declare-const", "declare-fun"):
            self.declare(node[1])
            return
        if head == "assert":
            self.assertions = pand(self.assertions, self.formula(node[1]))
            return
        if head == "check-sat":
            result = self.solver.model(self.assertions)
            self.model = result if isinstance(result, Sat) else None
            print(type(result).__name__.lower())  # sat, unsat or unknown
            return
        if head == "get-model":
            if self.model is None:
                print('(error "model is not available")')
                return
            values = self.model.valuation()
            lines = ["("]
            for name, sym in sorted(self.symbols.items()):
                value = values.get(sym, 0)
                rendered = str(value) if value >= 0 else f"(- {-value})"
                lines.append(f"  (define-fun |{name}| () Int {rendered})")
            lines.append(")")
            print("\n".join(lines))
            return
        raise ShellError(f"unknown command {head!r}")


def _fold(node, heads: tuple[str, ...], leaf, combine):
    """Evaluate ``node`` bottom-up, with a stack instead of recursion.

    A list whose head is in ``heads`` is ``combine(head, values of its
    arguments)``; any other node is ``leaf(node)``.  Arguments are
    evaluated left to right, and nesting depth costs no Python stack.
    """
    values: list = []
    todo = [(node, False)]
    while todo:
        item, ready = todo.pop()
        if ready:
            start = len(values) - (len(item) - 1)
            args = values[start:]
            del values[start:]
            values.append(combine(item[0], args))
        elif isinstance(item, list) and item and item[0] in heads:
            todo.append((item, True))
            todo.extend((arg, False) for arg in reversed(item[1:]))
        else:
            values.append(leaf(item))
    return values[0]


def _arithmetic(head: str, args: list[SymExpr]) -> SymExpr:
    if not args:
        raise ShellError(f"{head!r} needs an argument")
    if head == "-" and len(args) == 1:
        return sbinop("-", SConst(0), args[0])
    expr = args[0]
    for arg in args[1:]:
        expr = sbinop(head, expr, arg)
    return expr


def _connective(head: str, args: list[SymPath]) -> SymPath:
    if head == "not":
        return pnot(args[0])
    out = TRUE
    for arg in args:
        out = pand(out, arg if head == "and" else pnot(arg))
    # or(a, b, ...) == not(and(not a, not b, ...))
    return out if head == "and" else pnot(out)


def main() -> int:
    text = sys.stdin.read()
    session = Session()
    try:
        for node in _parse_sexps(_sexp_tokens(text)):
            session.command(node)
    except ShellError as exc:
        print(f'(error "{exc}")')
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
