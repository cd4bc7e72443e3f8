"""Litmus-test DSL: parsing, validation, formatting and lowering.

Grammar (whitespace-insensitive):

    test      := "litmus" STRING init? master+ outcome
    init      := "init" "{" (ADDR "=" INT ";")* "}"
    master    := "master" MID "{" (IID ":" instr ";")+ "}"
    instr     := "ST" ADDR "#" INT | "LD" REG ADDR
               | "SCST.REL" ADDR "#" INT | "SCLD.ACQ" REG ADDR | "FENCE"
    outcome   := ("forbidden" | "required" | "allowed") bexpr
    bexpr     := atom | "~" bexpr | "(" bexpr ")"
               | bexpr "/\\" bexpr | bexpr "\\/" bexpr
    atom      := MID ":" REG "=" INT

A ``#`` immediately followed by a digit is a store-value literal;
otherwise ``#`` starts a comment running to end of line.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

from .model import Instruction, InstrKind, SystemConfig


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{line}:{column}: {message}")


class ValidationError(Exception):
    """One entry per problem, each carrying a position."""

    def __init__(self, problems: list[tuple[int, int, str]]):
        self.problems = problems
        super().__init__("; ".join(f"{l}:{c}: {m}" for l, c, m in problems))


# --------------------------------------------------------------------------
# Outcome predicates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RegisterIs:
    master: str
    register: str
    value: int

    def evaluate(self, rf: Mapping[str, Mapping[str, int]]) -> bool:
        return rf[self.master][self.register] == self.value

    def render(self) -> str:
        return f"{self.master}:{self.register} = {self.value}"

    def atoms(self) -> Iterator["RegisterIs"]:
        yield self


class _Compound:
    def evaluate(self, rf) -> bool:
        """Post-order on an explicit stack, the operator classes marking
        where operands combine: ``parse`` accepts outcomes nearly as deep as
        the recursion limit, and the search evaluates them from deeper."""
        values, todo = [], [self]
        while todo:
            node = todo.pop()
            if isinstance(node, RegisterIs):
                values.append(node.evaluate(rf))
            elif isinstance(node, Not):
                todo += (Not, node.operand)
            elif isinstance(node, _Compound):
                todo += (type(node), node.right, node.left)
            elif node is Not:
                values[-1] = not values[-1]
            else:  # And or Or: combine the last two values
                right = values.pop()
                values[-1] = (values[-1] and right) if node is And else (values[-1] or right)
        return values[0]


@dataclass(frozen=True)
class Not(_Compound):
    operand: "OutcomePredicate"

    def render(self) -> str:
        return f"~{self.operand.render()}"

    def atoms(self):
        yield from self.operand.atoms()


@dataclass(frozen=True)
class And(_Compound):
    left: "OutcomePredicate"
    right: "OutcomePredicate"

    def render(self) -> str:
        return f"( {self.left.render()} /\\ {self.right.render()} )"

    def atoms(self):
        yield from self.left.atoms()
        yield from self.right.atoms()


@dataclass(frozen=True)
class Or(_Compound):
    left: "OutcomePredicate"
    right: "OutcomePredicate"

    def render(self) -> str:
        return f"( {self.left.render()} \\/ {self.right.render()} )"

    def atoms(self):
        yield from self.left.atoms()
        yield from self.right.atoms()


OutcomePredicate = RegisterIs | Not | And | Or


class OutcomeMode(enum.Enum):
    FORBIDDEN = "forbidden"
    REQUIRED = "required"
    ALLOWED = "allowed"


@dataclass(frozen=True)
class LitmusTest:
    name: str
    config: SystemConfig
    outcome: OutcomePredicate
    outcome_mode: OutcomeMode

    @property
    def watched_loads(self) -> frozenset[str]:
        """The ids of every load: the outcome is judged once all of them
        have been observed."""
        return frozenset(i.id for i in self.config.instructions() if i.is_load())


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # ident / int / string / punct / value / eof
    text: str
    line: int
    column: int


# One alternative per token kind, named after it; blanks and comments have
# no kind.  A store value's ``#`` must come before a digit, or it starts a
# comment.  ``bad`` catches what no token starts with.
_SCAN = re.compile(
    r'''[ \t\r]+|(?P<newline>\n)|\#(?P<value>\d+)|(?P<comment>\#[^\n]*)
    |"(?P<string>[^"\n]*)"|(?P<punct>/\\|\\/|[{};:=()~])|(?P<int>\d+)
    |(?P<ident>\w[\w.]*)|(?P<bad>.)''',
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start = 1, 0
    m = None
    for m in _SCAN.finditer(text):
        kind = m.lastgroup
        if kind is None or kind == "comment":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        ch = m[0][0]
        # ``\w`` also admits digits that are not decimal, such as '²'.
        if kind == "bad" or (kind == "ident" and not (ch.isalpha() or ch == "_")):
            raise ParseError(
                line, col, "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
            )
        toks.append(_Token(kind, m[kind], line, col))
    # A comment that ends the file leaves the end at its ``#``.
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    toks.append(_Token("eof", "", line, end - line_start + 1))
    return toks


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_INSTR_KEYWORDS = {
    "ST": InstrKind.STORE,
    "LD": InstrKind.LOAD,
    "SCST.REL": InstrKind.SC_REL_STORE,
    "SCLD.ACQ": InstrKind.SC_ACQ_LOAD,
    "FENCE": InstrKind.FENCE,
}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(t.line, t.column, msg)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            got = t.text if t.text else t.kind
            raise self.fail(f"expected {want!r}, found {got!r}")
        return self.next()

    def keyword(self, word: str) -> _Token:
        t = self.peek()
        if t.kind != "ident" or t.text != word:
            raise self.fail(f"expected keyword {word!r}, found {t.text or t.kind!r}")
        return self.next()

    def integer(self, tok: _Token) -> int:
        """The value of an int or store-value token."""
        try:
            return int(tok.text)
        except ValueError:  # beyond the interpreter's digit limit
            raise ParseError(
                tok.line, tok.column, f"integer literal of {len(tok.text)} digits is too long"
            ) from None

    def parse_test(self) -> LitmusTest:
        self.keyword("litmus")
        name = self.expect("string").text
        init: dict[str, int] = {}
        if self.peek().kind == "ident" and self.peek().text == "init":
            self.next()
            self.expect("punct", "{")
            while not (self.peek().kind == "punct" and self.peek().text == "}"):
                addr_tok = self.expect("ident")
                self.expect("punct", "=")
                val = self.integer(self.expect("int"))
                self.expect("punct", ";")
                if addr_tok.text in init:
                    raise ParseError(
                        addr_tok.line, addr_tok.column, f"address {addr_tok.text} initialised twice"
                    )
                init[addr_tok.text] = val
            self.next()

        masters: list[str] = []
        programs: dict[str, list[Instruction]] = {}
        positions: dict[str, tuple[int, int]] = {}
        problems: list[tuple[int, int, str]] = []
        while self.peek().kind == "ident" and self.peek().text == "master":
            self.next()
            mid_tok = self.expect("ident")
            mid = mid_tok.text
            if mid in programs:
                problems.append((mid_tok.line, mid_tok.column, f"master {mid} declared twice"))
            masters.append(mid)
            programs[mid] = []
            self.expect("punct", "{")
            index = 0
            while not (self.peek().kind == "punct" and self.peek().text == "}"):
                iid_tok = self.expect("ident")
                self.expect("punct", ":")
                index += 1
                ins = self.parse_instr(iid_tok.text, mid, index)
                self.expect("punct", ";")
                if ins.id in positions:
                    problems.append(
                        (iid_tok.line, iid_tok.column, f"duplicate instruction id {ins.id}")
                    )
                positions[ins.id] = (iid_tok.line, iid_tok.column)
                programs[mid].append(ins)
            self.next()
            if not programs[mid]:
                problems.append((mid_tok.line, mid_tok.column, f"master {mid} has no instructions"))

        if not masters:
            raise self.fail("expected at least one master block")

        mode_tok = self.expect("ident")
        try:
            mode = OutcomeMode(mode_tok.text)
        except ValueError:
            raise ParseError(
                mode_tok.line, mode_tok.column,
                f"expected forbidden/required/allowed, found {mode_tok.text!r}",
            ) from None
        outcome, atom_positions = self.parse_bexpr()
        self.expect("eof")

        if problems:
            raise ValidationError(problems)
        return _build_test(name, masters, programs, init, mode, outcome, atom_positions)

    def parse_instr(self, iid: str, master: str, index: int) -> Instruction:
        kw = self.expect("ident")
        kind = _INSTR_KEYWORDS.get(kw.text)
        if kind is None:
            raise ParseError(kw.line, kw.column, f"unknown instruction keyword {kw.text!r}")
        if kind is InstrKind.FENCE:
            return Instruction(id=iid, kind=kind, issuer=master, index=index)
        if kind in (InstrKind.STORE, InstrKind.SC_REL_STORE):
            addr = self.expect("ident").text
            val_tok = self.peek()
            if val_tok.kind != "value":
                # A '#' not followed by a digit starts a comment, which can
                # hide the rest of the line: point at the store itself.
                raise ParseError(
                    kw.line, kw.column, f"expected store value like #1 for store {iid}"
                )
            self.next()
            return Instruction(
                id=iid, kind=kind, issuer=master, index=index,
                address=addr, value=self.integer(val_tok),
            )
        reg = self.expect("ident").text
        addr = self.expect("ident").text
        return Instruction(
            id=iid, kind=kind, issuer=master, index=index, address=addr, register=reg,
        )

    def parse_bexpr(self) -> tuple[OutcomePredicate, list]:
        atom_positions: list[tuple[RegisterIs, int, int]] = []

        def bexpr() -> OutcomePredicate:
            node = term()
            while self.peek().kind == "punct" and self.peek().text == "\\/":
                self.next()
                node = Or(node, term())
            return node

        def term() -> OutcomePredicate:
            node = factor()
            while self.peek().kind == "punct" and self.peek().text == "/\\":
                self.next()
                node = And(node, factor())
            return node

        def factor() -> OutcomePredicate:
            t = self.peek()
            if t.kind == "punct" and t.text == "~":
                self.next()
                return Not(factor())
            if t.kind == "punct" and t.text == "(":
                self.next()
                node = bexpr()
                self.expect("punct", ")")
                return node
            mid_tok = self.expect("ident")
            self.expect("punct", ":")
            reg = self.expect("ident").text
            self.expect("punct", "=")
            val = self.integer(self.expect("int"))
            atom = RegisterIs(mid_tok.text, reg, val)
            atom_positions.append((atom, mid_tok.line, mid_tok.column))
            return atom

        return bexpr(), atom_positions


def _build_test(
    name: str,
    masters: list[str],
    programs: dict[str, list[Instruction]],
    init: dict[str, int],
    mode: OutcomeMode,
    outcome: OutcomePredicate,
    atom_positions: list,
) -> LitmusTest:
    problems: list[tuple[int, int, str]] = []
    registers = {i.register for prog in programs.values() for i in prog if i.register}
    for atom, line, col in atom_positions:
        if atom.master not in programs:
            problems.append((line, col, f"outcome references undeclared master {atom.master}"))
        if atom.register not in registers:
            problems.append((line, col, f"outcome references undeclared register {atom.register}"))
    if problems:
        raise ValidationError(problems)

    outcome_values = {atom.value for atom in outcome.atoms()}
    config = SystemConfig.build(
        masters, programs, initial_memory=init, extra_values=outcome_values
    )
    return LitmusTest(name=name, config=config, outcome=outcome, outcome_mode=mode)


def parse(text: str) -> LitmusTest:
    """Parse litmus source into a validated test."""
    parser = _Parser(text)
    try:
        return parser.parse_test()
    except RecursionError:  # may come after the parser consumed ``eof``
        parser.pos = min(parser.pos, len(parser.toks) - 1)
        raise parser.fail("outcome nests too deeply") from None


def format_test(test: LitmusTest) -> str:
    """Canonical source text; ``parse(format_test(t))`` equals ``t``."""
    cfg = test.config
    lines = [f'litmus "{test.name}"']
    lines.append("init {")
    for addr, val in sorted(cfg.initial_memory):
        lines.append(f"  {addr} = {val};")
    lines.append("}")
    for m in cfg.masters:
        lines.append(f"master {m} {{")
        for ins in cfg.program_of(m):
            lines.append(f"  {ins.id}: {_render_instr(ins)};")
        lines.append("}")
    lines.append(f"{test.outcome_mode.value} {test.outcome.render()}")
    return "\n".join(lines) + "\n"


def _render_instr(ins: Instruction) -> str:
    k = ins.kind
    if k is InstrKind.FENCE:
        return "FENCE"
    if k in (InstrKind.STORE, InstrKind.SC_REL_STORE):
        return f"{k.value} {ins.address} #{ins.value}"
    return f"{k.value} {ins.register} {ins.address}"
