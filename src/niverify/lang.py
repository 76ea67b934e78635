"""Front end and ground-truth semantics of the analyzed language.

The language is deliberately tiny: arbitrary-precision integer variables,
``+ - *`` arithmetic, a single comparison at the root of every condition,
``skip`` / assignment / ``if`` / ``while`` statements.  A program couples a
command with the set of *low* (publicly observable) variables; every other
declared variable is high.

The small-step interpreter in this module is the oracle every analysis is
tested against: it is deterministic and total over declared variables.

The expression nodes double as the nodes of symbolic terms (``symcore``):
a term is a ``Const`` or a ``BinOp`` over terms, or a symbol leaf.  A
program constant enters a term as the program's own ``Const`` node; every
operation node of a term is a new one.  ``fold`` is the one bottom-up walk
over both kinds of tree, and it builds their values, intervals, terms and
text.  Expression and comparison nodes compare as trees; commands compare
and hash by identity.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable
from dataclasses import dataclass, field

CMP_OPS = ("<", "<=", "==", "!=", ">", ">=")

# Negation stays inside the comparison language.
NEGATED_CMP = {
    "<": ">=",
    "<=": ">",
    "==": "!=",
    "!=": "==",
    ">": "<=",
    ">=": "<",
}


class LangError(Exception):
    """Base error for this module."""


class ParseError(LangError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


# An expression or comparison node computes its hash once, with the formula
# a frozen dataclass uses, since the interval domain looks transfers up by
# their expression.


@dataclass(slots=True)
class Const:
    value: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._hash = hash((self.value,))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return str(self.value)


@dataclass(slots=True)
class Var:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._hash = hash((self.name,))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


@dataclass(slots=True)
class BinOp:
    op: str
    left: Expr
    right: Expr
    _hash: int = field(init=False, repr=False, compare=False)
    # The values ``symcore._kept`` stores on a nested term: its polynomial
    # and its symbols.  A term's operation nodes are built afresh, so on a
    # program expression both stay None.
    _poly: dict | None = field(init=False, repr=False, compare=False)
    _symbols: frozenset | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._hash = hash((self.op, self.left, self.right))
        self._poly = None
        self._symbols = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not BinOp:
            return NotImplemented
        return same_tree(self, other)

    def __str__(self) -> str:
        return fold(self, str, str, lambda op, left, right: f"({left} {op} {right})")


Expr = Const | Var | BinOp


# Expressions and terms can nest thousands deep (a long sum, or ``x := x *
# 2`` in a long loop), so no walk over either recurses on its depth.


def same_tree(a: BinOp, b: BinOp) -> bool:
    """The dataclass equality of two operation nodes, hashes first, walked
    without recursion; the leaves compare with their own equality."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__ or a._hash != b._hash:
            return False
        if a.__class__ is BinOp:
            if a.op != b.op:
                return False
            pairs += ((a.right, b.right), (a.left, b.left))
        elif a != b:
            return False
    return True


def fold(expr, leaf: Callable, var: Callable, node: Callable):
    """The one bottom-up walk over expressions and terms: ``var(name)`` at
    each variable, ``leaf(t)`` at every other leaf ``t`` (a constant or a
    symbol leaf), and ``node(op, l, r)`` at each operation over its
    operands' results, left operand first, without recursion."""
    cls = expr.__class__
    if cls is not BinOp:
        return var(expr.name) if cls is Var else leaf(expr)
    out: list = []
    stack: list = [expr]
    while stack:
        item = stack.pop()
        cls = item.__class__
        if cls is BinOp:
            stack += (item.op, item.right, item.left)
        elif cls is str:
            right = out.pop()
            out[-1] = node(item, out[-1], right)
        elif cls is Var:
            out.append(var(item.name))
        else:
            out.append(leaf(item))
    return out[0]


@dataclass(slots=True)
class Cmp:
    """A single comparison; the condition grammar has no connectives."""

    op: str
    left: Expr
    right: Expr
    _hash: int = field(init=False, repr=False, compare=False)
    _negation: Cmp | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._hash = hash((self.op, self.left, self.right))
        self._negation = None

    def __hash__(self) -> int:
        return self._hash

    def negate(self) -> Cmp:
        """The negated comparison, built once: its negation is this one."""
        if self._negation is None:
            self._negation = Cmp(NEGATED_CMP[self.op], self.left, self.right)
            self._negation._negation = self
        return self._negation

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


BExpr = Cmp


@dataclass(slots=True, eq=False)
class Skip:
    def __str__(self) -> str:
        return "skip"


@dataclass(slots=True, eq=False)
class Assign:
    var: str
    expr: Expr

    def __str__(self) -> str:
        return f"{self.var} := {self.expr}"


@dataclass(slots=True, eq=False)
class If:
    guard: BExpr
    then_branch: Command
    else_branch: Command

    def __str__(self) -> str:
        return f"if ({self.guard}) {{ {self.then_branch} }} else {{ {self.else_branch} }}"


@dataclass(slots=True, eq=False)
class While:
    guard: BExpr
    body: Command
    # Iterations this entry of the loop has already unrolled; the engines
    # unroll while it is below their bound and summarize at the bound.
    # The parser always gives 0.
    unrolled: int = 0

    def __str__(self) -> str:
        return f"while ({self.guard}) {{ {self.body} }}"


@dataclass(slots=True, eq=False, repr=False)
class Seq:
    """``first; second``.

    A sequence nests on its ``second`` side once per statement, so its
    ``repr`` and ``str`` walk that spine without recursing.  They give
    what the dataclass methods give.
    """

    first: Command
    second: Command

    def _spine(self) -> tuple[list[Command], Command]:
        """The ``first`` of each node along the spine, and the last ``second``."""
        firsts: list[Command] = []
        node: Command = self
        while node.__class__ is Seq:
            firsts.append(node.first)
            node = node.second
        return firsts, node

    def __repr__(self) -> str:
        firsts, last = self._spine()
        return "".join(f"Seq(first={first!r}, second=" for first in firsts) + repr(last) + ")" * len(firsts)

    def __str__(self) -> str:
        firsts, last = self._spine()
        return "; ".join(map(str, firsts + [last]))


Command = Skip | Assign | If | While | Seq

SKIP = Skip()


@dataclass(frozen=True)
class Program:
    body: Command
    low_vars: frozenset[str]
    all_vars: frozenset[str]

    @property
    def high_vars(self) -> frozenset[str]:
        return self.all_vars - self.low_vars


Store = dict[str, int]


@dataclass(frozen=True)
class Final:
    """Terminated run: the final store."""

    store: tuple[tuple[str, int], ...]

    @staticmethod
    def of(store: Store) -> Final:
        return Final(tuple(sorted(store.items())))

    def as_store(self) -> Store:
        return dict(self.store)


@dataclass(frozen=True)
class OutOfFuel:
    """The run did not reach skip within the given number of steps."""


OUT_OF_FUEL = OutOfFuel()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_KEYWORDS = {"low", "high", "skip", "if", "else", "while"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|<=|>=|==|!=|[<>{}();,+\-*=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.declared: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def at_ident(self) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text not in _KEYWORDS

    def variable(self) -> str:
        """The identifier at hand, which the header must have declared."""
        tok = self.next()
        if tok.text not in self.declared:
            raise ParseError(f"use of undeclared variable {tok.text!r}", tok.line, tok.col)
        return tok.text

    def parse_program(self) -> Program:
        low: list[str] = []
        high: list[str] = []
        while self.peek().text in ("low", "high"):
            which = self.next().text
            while True:
                tok = self.peek()
                if tok.kind != "ident" or tok.text in _KEYWORDS:
                    raise self.error("expected variable name in declaration")
                self.next()
                if tok.text in self.declared:
                    raise ParseError(f"duplicate declaration of {tok.text!r}", tok.line, tok.col)
                self.declared.add(tok.text)
                (low if which == "low" else high).append(tok.text)
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect(";")
        body = self.parse_command(stop_at="eof")
        self.expect_eof()
        return Program(body, frozenset(low), frozenset(low) | frozenset(high))

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise self.error(f"unexpected trailing input {self.peek().text!r}")

    def parse_command(self, stop_at: str) -> Command:
        stmts: list[Command] = []
        while self.peek().kind != "eof" and self.peek().text != stop_at:
            stmts.append(self.parse_statement())
        if not stmts:
            return SKIP
        cmd = stmts[-1]
        for stmt in reversed(stmts[:-1]):
            cmd = Seq(stmt, cmd)
        return cmd

    def parse_statement(self) -> Command:
        tok = self.peek()
        if tok.text == "skip":
            self.next()
            self.expect(";")
            return SKIP
        if tok.text == "if":
            self.next()
            self.expect("(")
            guard = self.parse_bexpr()
            self.expect(")")
            then_branch = self.parse_block()
            else_branch: Command = SKIP
            if self.peek().text == "else":
                self.next()
                else_branch = self.parse_block()
            return If(guard, then_branch, else_branch)
        if tok.text == "while":
            self.next()
            self.expect("(")
            guard = self.parse_bexpr()
            self.expect(")")
            body = self.parse_block()
            return While(guard, body)
        if self.at_ident():
            name = self.variable()
            self.expect(":=")
            expr = self.parse_expr()
            self.expect(";")
            return Assign(name, expr)
        raise self.error(f"expected statement, found {tok.text or 'end of input'!r}")

    def parse_block(self) -> Command:
        self.expect("{")
        cmd = self.parse_command(stop_at="}")
        self.expect("}")
        return cmd

    def parse_bexpr(self) -> BExpr:
        left = self.parse_expr()
        tok = self.peek()
        op = tok.text
        if op == "=":
            op = "=="
        if op not in CMP_OPS:
            raise self.error(f"expected comparison operator, found {tok.text!r}")
        self.next()
        right = self.parse_expr()
        return Cmp(op, left, right)

    def parse_expr(self) -> Expr:
        expr = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            expr = BinOp(op, expr, self.parse_term())
        return expr

    def parse_term(self) -> Expr:
        expr = self.parse_atom()
        while self.peek().text == "*":
            self.next()
            expr = BinOp("*", expr, self.parse_atom())
        return expr

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.text == "-":
            self.next()
            num = self.peek()
            if num.kind != "num":
                raise self.error("expected numeric literal after unary '-'")
            self.next()
            return Const(-int(num.text))
        if tok.kind == "num":
            self.next()
            return Const(int(tok.text))
        if tok.text == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if self.at_ident():
            return Var(self.variable())
        raise self.error(f"expected expression, found {tok.text or 'end of input'!r}")


def parse_program(text: str) -> Program:
    """Parse a ``.imp`` source: ``low``/``high`` headers, then the command."""
    return _Parser(_tokenize(text)).parse_program()


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


# Sequences are right-nested and can be thousands of statements long, so
# no walk over a command recurses on their length.


def used_vars(node: Expr | BExpr) -> set[str]:
    """All variable names occurring anywhere in the given expression or comparison."""
    names: set[str] = set()
    stack = [node]
    while stack:
        match stack.pop():
            case Const():
                pass
            case Var(name):
                names.add(name)
            case BinOp(_, left, right) | Cmp(_, left, right):
                stack += (left, right)
            case other:
                raise LangError(f"unknown node {other!r}")
    return names


def assigned_vars(cmd: Command) -> set[str]:
    """Syntactic over-approximation of the variables a command may write."""
    written: set[str] = set()
    stack = [cmd]
    while stack:
        match stack.pop():
            case Skip():
                pass
            case Assign(var, _):
                written.add(var)
            case If(_, then_branch, else_branch):
                stack += (then_branch, else_branch)
            case While(_, body):
                stack.append(body)
            case Seq(first, second):
                stack += (first, second)
            case other:
                raise LangError(f"unknown command {other!r}")
    return written


def apply_op(op: str, left: int, right: int) -> int:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    raise LangError(f"unknown operator {op!r}")


def apply_cmp(op: str, left: int, right: int) -> bool:
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise LangError(f"unknown comparison {op!r}")


_value = operator.attrgetter("value")


def eval_expr(expr: Expr, store: Store) -> int:
    return fold(expr, _value, store.__getitem__, apply_op)


def eval_bool(bexpr: BExpr, store: Store) -> bool:
    return apply_cmp(bexpr.op, eval_expr(bexpr.left, store), eval_expr(bexpr.right, store))


def concrete_step(state: tuple[Command, Store]) -> tuple[Command, Store]:
    """One small step.  The language is deterministic, so this is a function."""
    cmd, store = state
    match cmd:
        case Skip():
            raise LangError("skip has no successor")
        case Assign(var, expr):
            new_store = dict(store)
            new_store[var] = eval_expr(expr, store)
            return SKIP, new_store
        case If(guard, then_branch, else_branch):
            return (then_branch if eval_bool(guard, store) else else_branch), store
        case While(guard, body):
            if eval_bool(guard, store):
                return Seq(body, cmd), store
            return SKIP, store
        case Seq(first, second):
            if isinstance(first, Skip):
                return second, store
            first2, store2 = concrete_step((first, store))
            return Seq(first2, second), store2
    raise LangError(f"unknown command {cmd!r}")


def run(program: Program, store: Store, fuel: int) -> Final | OutOfFuel:
    """Run to completion or give up after ``fuel`` small steps."""
    cmd, current = program.body, dict(store)
    for _ in range(fuel):
        if isinstance(cmd, Skip):
            return Final.of(current)
        cmd, current = concrete_step((cmd, current))
    if isinstance(cmd, Skip):
        return Final.of(current)
    return OUT_OF_FUEL


def low_equal(store0: Store, store1: Store, low_vars: frozenset[str] | set[str]) -> bool:
    return all(store0[x] == store1[x] for x in low_vars)
