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
from dataclasses import dataclass
from typing import Iterator, Mapping

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


@dataclass(frozen=True)
class Not:
    operand: "OutcomePredicate"

    def evaluate(self, rf) -> bool:
        return not self.operand.evaluate(rf)

    def render(self) -> str:
        return f"~{self.operand.render()}"

    def atoms(self):
        yield from self.operand.atoms()


@dataclass(frozen=True)
class And:
    left: "OutcomePredicate"
    right: "OutcomePredicate"

    def evaluate(self, rf) -> bool:
        return self.left.evaluate(rf) and self.right.evaluate(rf)

    def render(self) -> str:
        return f"( {self.left.render()} /\\ {self.right.render()} )"

    def atoms(self):
        yield from self.left.atoms()
        yield from self.right.atoms()


@dataclass(frozen=True)
class Or:
    left: "OutcomePredicate"
    right: "OutcomePredicate"

    def evaluate(self, rf) -> bool:
        return self.left.evaluate(rf) or self.right.evaluate(rf)

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
    watched_loads: frozenset[str]

    def loads(self) -> frozenset[str]:
        return frozenset(i.id for i in self.config.instructions() if i.is_load())


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # ident / int / string / punct / value / eof
    text: str
    line: int
    column: int


_PUNCT = ("/\\", "\\/", "{", "}", ";", ":", "=", "(", ")", "~")
_PUNCT_START = frozenset(p[0] for p in _PUNCT)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            if i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(_Token("value", text[i + 1 : j], line, col))
                col += j - i
                i = j
                continue
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError(line, col, "unterminated string")
                j += 1
            if j >= n:
                raise ParseError(line, col, "unterminated string")
            toks.append(_Token("string", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        matched = False
        if ch in _PUNCT_START:
            for p in _PUNCT:
                if text.startswith(p, i):
                    toks.append(_Token("punct", p, line, col))
                    i += len(p)
                    col += len(p)
                    matched = True
                    break
        if matched:
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}")
    toks.append(_Token("eof", "", line, col))
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
                val = int(self.expect("int").text)
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
                raise self.fail("expected store value like #1")
            self.next()
            return Instruction(
                id=iid, kind=kind, issuer=master, index=index,
                address=addr, value=int(val_tok.text),
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
            val = int(self.expect("int").text)
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
    watched = frozenset(i.id for prog in programs.values() for i in prog if i.is_load())
    return LitmusTest(
        name=name, config=config, outcome=outcome, outcome_mode=mode, watched_loads=watched,
    )


def parse(text: str) -> LitmusTest:
    """Parse litmus source into a validated test."""
    parser = _Parser(text)
    try:
        return parser.parse_test()
    except RecursionError:
        raise parser.fail("outcome nests too deeply") from None


def to_config(test: LitmusTest) -> SystemConfig:
    """The system configuration a litmus test runs on."""
    return test.config


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


format = format_test  # canonical-text formatter under its interface name
