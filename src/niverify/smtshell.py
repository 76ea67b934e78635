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
        if isinstance(node, str):
            name = node.strip("|")
            if name.lstrip("-").isdigit():
                return SConst(int(name))
            if name in self.symbols:
                return SVal(self.symbols[name])
            raise ShellError(f"unknown constant {name!r}")
        head, *args = node
        if head == "-" and len(args) == 1:
            operand = self.term(args[0])
            return sbinop("-", SConst(0), operand)
        if head in ("+", "-", "*"):
            expr = self.term(args[0])
            for arg in args[1:]:
                expr = sbinop(head, expr, self.term(arg))
            return expr
        raise ShellError(f"unknown term head {head!r}")

    def formula(self, node) -> SymPath:
        if node == "true":
            return TRUE
        if node == "false":
            return pnot(TRUE)
        if isinstance(node, str):
            raise ShellError(f"unknown formula {node!r}")
        head, *args = node
        if head == "not":
            return pnot(self.formula(args[0]))
        if head == "and":
            out = TRUE
            for arg in args:
                out = pand(out, self.formula(arg))
            return out
        if head == "or":
            # or(a, b, ...) == not(and(not a, not b, ...))
            out = TRUE
            for arg in args:
                out = pand(out, pnot(self.formula(arg)))
            return pnot(out)
        if head == "=":
            return pcmp("==", self.term(args[0]), self.term(args[1]))
        if head == "distinct":
            return pcmp("!=", self.term(args[0]), self.term(args[1]))
        if head in ("<", "<=", ">", ">="):
            return pcmp(head, self.term(args[0]), self.term(args[1]))
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
