"""Litmus DSL: parsing, validation, formatting, lowering."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlit import corpus
from memlit.litmus import (
    And,
    Not,
    Or,
    OutcomeMode,
    ParseError,
    RegisterIs,
    ValidationError,
    _tokenize,
    format_test,
    parse,
)
from memlit.model import InstrKind
from oracle import reference_tokenize

IRIW = corpus.corpus_path("iriw-fence").read_text()


class TestParse:
    def test_iriw_structure(self):
        t = parse(IRIW)
        assert t.name == "iriw-fence"
        assert t.config.masters == ("M1", "M2", "M3")
        assert [len(p) for p in t.config.programs] == [2, 3, 3]
        assert t.outcome_mode is OutcomeMode.FORBIDDEN
        atoms = {(a.master, a.register, a.value) for a in t.outcome.atoms()}
        assert atoms == {("M2", "R1", 1), ("M3", "R1", 1), ("M2", "R2", 0), ("M3", "R2", 0)}
        assert t.watched_loads == {"I21", "I23", "I31", "I33"}

    def test_duplicate_instruction_id(self):
        src = IRIW.replace("I23", "I21")
        with pytest.raises(ValidationError) as err:
            parse(src)
        assert "I21" in str(err.value)

    def test_reparse_of_formatted_text_is_identity(self):
        t = parse(IRIW)
        assert parse(format_test(t)) == t

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse('litmus "x"\nmaster M1 { I1: ST a1 ; }\nforbidden M1:R1 = 0')
        assert err.value.line == 2
        assert err.value.column > 0

    def test_undeclared_master_in_outcome(self):
        src = IRIW.replace("M3:R1 = 1", "M9:R1 = 1")
        with pytest.raises(ValidationError) as err:
            parse(src)
        assert "M9" in str(err.value)

    def test_undeclared_register_in_outcome(self):
        src = IRIW.replace("M3:R1 = 1", "M3:R9 = 1")
        with pytest.raises(ValidationError) as err:
            parse(src)
        assert "R9" in str(err.value)

    def test_value_literal_vs_comment(self):
        t = parse(
            'litmus "c"\n'
            "master M1 { I1: ST a1 #1; }  # trailing comment\n"
            "# whole-line comment\n"
            "master M2 { I2: LD R1 a1; }\n"
            "allowed M2:R1 = 1\n"
        )
        ins = t.config.program_of("M1")[0]
        assert ins.id == "I1" and ins.value == 1

    def test_missing_outcome_rejected(self):
        with pytest.raises(ParseError):
            parse('litmus "x"\nmaster M1 { I1: ST a1 #1; }\n')

    def test_empty_master_rejected(self):
        with pytest.raises(ValidationError):
            parse('litmus "x"\nmaster M1 { }\nmaster M2 { I1: LD R1 a1; }\nallowed M2:R1 = 0')

    def test_operator_precedence(self):
        t = parse(
            'litmus "p"\nmaster M1 { I1: LD R1 a1; }\n'
            "allowed M1:R1 = 0 \\/ M1:R1 = 1 /\\ ~ M1:R1 = 2\n"
        )
        # /\ binds tighter than \/: Or(atom, And(atom, Not(atom)))
        assert type(t.outcome).__name__ == "Or"
        assert type(t.outcome.right).__name__ == "And"


class TestFormat:
    def test_round_trip_full_corpus(self, all_corpus):
        for name, t in all_corpus.items():
            assert parse(format_test(t)) == t, name

    def test_default_init_is_explicit(self):
        t = parse('litmus "d"\nmaster M1 { I1: LD R1 a1; }\nallowed M1:R1 = 0\n')
        assert "a1 = 0;" in format_test(t)

    def test_required_keyword_passthrough(self):
        t = corpus.load("load-initial")
        assert format_test(t).splitlines()[-1].startswith("required")

    def test_masters_in_declaration_order(self):
        text = format_test(parse(IRIW))
        assert text.index("master M1") < text.index("master M2") < text.index("master M3")


class TestToConfig:
    def test_fence_position(self):
        cfg = parse(IRIW).config
        fence = cfg.program_of("M2")[1]
        assert fence.id == "I22"
        assert fence.kind is InstrKind.FENCE
        assert fence.issuer == "M2" and fence.index == 2

    def test_single_master_single_store(self):
        cfg = parse('litmus "s"\nmaster M1 { I1: ST a1 #1; I2: LD R1 a1; }\nallowed M1:R1 = 1\n').config
        assert cfg.masters == ("M1",)
        assert [i.id for i in cfg.program_of("M1")] == ["I1", "I2"]

    def test_atomic_keywords_map_to_kinds(self):
        cfg = corpus.load("iriw-atomic").config
        store, load = cfg.program_of("M1")[0], cfg.program_of("M2")[0]
        assert (store.id, store.kind) == ("I11", InstrKind.SC_REL_STORE)
        assert (load.id, load.kind) == ("I21", InstrKind.SC_ACQ_LOAD)

    def test_domains_inferred_with_zero(self):
        cfg = parse('litmus "v"\nmaster M1 { I1: ST a1 #7; }\nmaster M2 { I2: LD R1 a1; }\nallowed M2:R1 = 7\n').config
        assert cfg.values == {0, 7}
        assert cfg.addresses == {"a1"}
        assert cfg.registers == {"R1"}


# Structured generator for round-trip fuzzing: build a test, format it,
# and require parse . format = identity.

_names = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)


@st.composite
def litmus_tests(draw):
    n_masters = draw(st.integers(1, 3))
    masters = [f"M{i+1}" for i in range(n_masters)]
    addresses = ["a1", "a2"]
    registers = ["R1", "R2"]
    body = []
    all_loads = []
    for mi, m in enumerate(masters):
        n = draw(st.integers(1, 3))
        instrs = []
        for ix in range(1, n + 1):
            kind = draw(st.sampled_from(["ST", "LD", "SCST.REL", "SCLD.ACQ", "FENCE"]))
            iid = f"I{mi+1}{ix}"
            if kind == "FENCE":
                instrs.append(f"{iid}: FENCE;")
            elif kind in ("ST", "SCST.REL"):
                addr = draw(st.sampled_from(addresses))
                val = draw(st.integers(0, 2))
                instrs.append(f"{iid}: {kind} {addr} #{val};")
            else:
                reg = draw(st.sampled_from(registers))
                addr = draw(st.sampled_from(addresses))
                instrs.append(f"{iid}: {kind} {reg} {addr};")
                all_loads.append((m, reg))
        body.append(f"master {m} {{ " + " ".join(instrs) + " }")
    if not all_loads:
        m = masters[0]
        body[0] = body[0][:-1] + f"IX: LD R1 a1; }}"
        all_loads.append((m, "R1"))
    mode = draw(st.sampled_from(["forbidden", "required", "allowed"]))
    master, reg = draw(st.sampled_from(all_loads))
    val = draw(st.integers(0, 2))
    name = draw(_names)
    text = "\n".join(
        [f'litmus "{name}"', "init { a1 = 0; a2 = 1; }", *body, f"{mode} {master}:{reg} = {val}"]
    )
    return text


@settings(max_examples=80, deadline=None)
@given(litmus_tests())
def test_round_trip_generated(source):
    t = parse(source)
    assert parse(format_test(t)) == t


@settings(max_examples=10, deadline=None)
@given(litmus_tests())
def test_generated_tests_check_end_to_end(source):
    """Arbitrary small tests run through parse -> explore -> verdict; a
    state-capped abort is the only alternative to a verdict."""
    from memlit.explorer import StateLimitExceeded, check_outcome

    t = parse(source)
    try:
        verdict = check_outcome(t, max_states=20_000)
    except StateLimitExceeded:
        return
    assert verdict.kind in ("Holds", "Violated", "Reachable", "Unreachable")
    if verdict.counterexample is not None:
        from memlit.explorer import replay

        replay(t.config, verdict.counterexample)


def test_outcome_evaluation():
    pred = And(RegisterIs("M1", "R1", 1), RegisterIs("M2", "R1", 0))
    assert pred.evaluate({"M1": {"R1": 1}, "M2": {"R1": 0}})
    assert not pred.evaluate({"M1": {"R1": 0}, "M2": {"R1": 0}})


def _evaluate_recursively(pred, rf) -> bool:
    if isinstance(pred, RegisterIs):
        return rf[pred.master][pred.register] == pred.value
    if isinstance(pred, Not):
        return not _evaluate_recursively(pred.operand, rf)
    left, right = _evaluate_recursively(pred.left, rf), _evaluate_recursively(pred.right, rf)
    return (left and right) if isinstance(pred, And) else (left or right)


_PREDICATES = st.recursive(
    st.builds(RegisterIs, st.just("M1"), st.sampled_from(["R1", "R2"]), st.integers(0, 1)),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
)


@given(_PREDICATES, st.integers(0, 1), st.integers(0, 1))
def test_outcome_evaluation_matches_the_recursive_definition(pred, r1, r2):
    rf = {"M1": {"R1": r1, "R2": r2}}
    assert pred.evaluate(rf) == _evaluate_recursively(pred, rf)


def test_outcome_evaluation_beyond_the_recursion_limit():
    pred = RegisterIs("M1", "R1", 1)
    for _ in range(5000):
        pred = Not(Or(pred, RegisterIs("M1", "R2", 1)))
    assert pred.evaluate({"M1": {"R1": 1, "R2": 0}})
    assert not pred.evaluate({"M1": {"R1": 0, "R2": 0}})


# The tokenizer against the character loop it replaced (``oracle``): the same
# tokens, or the same error at the same position.

def _lex(tokenize, text: str):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(text)]
    except ParseError as e:
        return (e.line, e.column, e.message)


_LEXEMES = [
    "#", "0", "42", "²", "٣", "½", "é", "_", ".", '"', "\n", "\r", "\t",
    " ", "/\\", "\\/", "/", "\\", "a", "I1", "ST", *"{};:=()~",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_LEXEMES), max_size=30).map("".join))
def test_tokenizer_matches_reference(text):
    assert _lex(_tokenize, text) == _lex(reference_tokenize, text)


@pytest.mark.parametrize(
    "path",
    [*(corpus.corpus_path(n) for n in corpus.CORPUS_NAMES),
     Path(__file__).parents[1] / "bench" / "iriw-3readers.litmus"],
    ids=lambda p: p.stem,
)
def test_tokenizer_matches_reference_on_shipped_files(path):
    text = path.read_text()
    assert _lex(_tokenize, text) == _lex(reference_tokenize, text)


_HEAD = 'litmus "t"\nmaster M1 { I1: LD R1 a1; }\n'


@pytest.mark.parametrize(
    "source, message",
    [
        # An identifier starts with a letter or '_': '²' is alphanumeric, not a letter.
        ('litmus "t"\ninit { a1 = ²; }\nmaster M1 { I1: LD R1 a1; }\nallowed M1:R1 = 0\n',
         "2:13: unexpected character '²'"),
        # A comment that ends the file leaves the end at its '#'.
        (_HEAD + "allowed M1:R1 = # nothing", "3:17: expected 'int', found 'eof'"),
        (_HEAD + "allowed M1:R1 = # nothing\n", "4:1: expected 'int', found 'eof'"),
        ('litmus "t\n' + _HEAD, "1:8: unterminated string"),
        ('litmus "t', "1:8: unterminated string"),
    ],
    ids=["superscript-identifier", "comment-at-eof", "comment-then-newline",
         "string-at-newline", "string-at-eof"],
)
def test_tokenizer_quirks(source, message):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == message
    assert _lex(_tokenize, source) == _lex(reference_tokenize, source)
