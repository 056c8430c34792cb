"""Lexer/parser unit tests and pretty-printer round trips."""

import gc
import sys

import pytest

from clockwork.imp import (
    And,
    Bc,
    If,
    Less,
    N,
    Not,
    Plus,
    Seq,
    Set,
    Skip,
    V,
    While,
    _Frozen,
    pretty,
)
from clockwork import parser
from clockwork.parser import ParseError, parse_aexp, parse_bexp, parse_com
from clockwork.testkit import GenConfig, SplitMix64, gen_com

LOOP_SRC = "x := 1 ; WHILE x < 3 DO x := x + 1 OD"
LOOP_AST = Seq(
    Set("x", N(1)),
    While(Less(V("x"), N(3)), Set("x", Plus(V("x"), N(1)))),
)


def test_parse_skip():
    assert parse_com("SKIP") == Skip()


def test_parse_loop_example():
    assert parse_com(LOOP_SRC) == LOOP_AST


def test_parse_truncated_assignment():
    with pytest.raises(ParseError) as exc:
        parse_com("x :=")
    err = exc.value
    assert err.position == (1, 5)
    assert "arithmetic expression" in err.message
    assert err.expected


def test_parse_aexp_left_assoc():
    assert parse_aexp("1 + 2 + x") == Plus(Plus(N(1), N(2)), V("x"))


def test_parse_aexp_parens_and_negative():
    assert parse_aexp("(x)") == V("x")
    assert parse_aexp("-3") == N(-3)
    assert parse_aexp("1 + -3") == Plus(N(1), N(-3))


def test_parse_bexp_shapes():
    assert parse_bexp("true") == Bc(True)
    assert parse_bexp("! false") == Not(Bc(False))
    assert parse_bexp("x < 3 && true") == And(Less(V("x"), N(3)), Bc(True))
    # '&&' is right-associative
    assert parse_bexp("true && false && true") == And(Bc(True), And(Bc(False), Bc(True)))
    # '(' may open a comparison operand or a boolean group
    assert parse_bexp("(x) < 3") == Less(V("x"), N(3))
    assert parse_bexp("(x < 3)") == Less(V("x"), N(3))
    assert parse_bexp("(x + 1) < y") == Less(Plus(V("x"), N(1)), V("y"))
    assert parse_bexp("((x < 3))") == Less(V("x"), N(3))
    assert parse_bexp("! (x < 3 && true)") == Not(And(Less(V("x"), N(3)), Bc(True)))


def test_parse_if_and_grouping():
    assert parse_com("IF x < 0 THEN x := 1 ELSE SKIP FI") == If(
        Less(V("x"), N(0)), Set("x", N(1)), Skip()
    )
    assert parse_com("(SKIP ; SKIP) ; SKIP") == Seq(Seq(Skip(), Skip()), Skip())
    # ';' is right-associative without parens
    assert parse_com("SKIP ; SKIP ; SKIP") == Seq(Skip(), Seq(Skip(), Skip()))


def test_keywords_are_reserved():
    for bad in ("SKIP := 1", "true := 1", "WHILE := 2"):
        with pytest.raises(ParseError):
            parse_com(bad)
    # lowercase 'skip' is an ordinary identifier
    assert parse_com("skip := 1") == Set("skip", N(1))


def test_comments_and_whitespace():
    src = """
    -- initialize
    x := 1 ;   -- then loop
    WHILE x < 3 DO
        x := x + 1
    OD -- trailing comment"""
    assert parse_com(src) == LOOP_AST


def test_whitespace_insensitivity():
    squashed = "x := 1;WHILE x < 3 DO x := x+1 OD"
    spread = "x  :=\n1 ;\n\tWHILE x\n< 3 DO x := x + 1\nOD\n"
    assert parse_com(squashed) == parse_com(spread) == LOOP_AST


def test_determinism():
    assert parse_com(LOOP_SRC) == parse_com(LOOP_SRC)
    positions = []
    for _ in range(2):
        with pytest.raises(ParseError) as exc:
            parse_com("WHILE x < DO SKIP OD")
        positions.append(exc.value.position)
    assert positions[0] == positions[1]


def test_full_input_required():
    with pytest.raises(ParseError):
        parse_com("SKIP SKIP")
    with pytest.raises(ParseError):
        parse_aexp("1 + 2 x")


def test_lex_errors():
    with pytest.raises(ParseError) as exc:
        parse_com("x := 1 ? 2")
    assert "unexpected character" in exc.value.message
    with pytest.raises(ParseError):
        parse_aexp("1 - 2")  # no binary minus; '-' only prefixes literals


# The expected sets a ParseError reports.
ARITH = ("integer literal", "identifier", "'('")
BOOL = ("'!'", "true", "false", "comparison", "'('")
COMMAND = ("SKIP", "assignment", "IF", "WHILE", "'('")
EOF = ("end of input",)

# (parser, source, position, message, expected) for malformed inputs.
# Lexing finishes before parsing starts, so a bad character anywhere wins
# over an earlier syntax error.  Tabs and '\r' count as one column each.
ERROR_TABLE = [
    ("com", "x := 1 ;\ny := 2 ;\nz := 3 ? 4", (3, 8), "unexpected character '?'", ()),
    ("com", "x := 1 ;\n\ty := 2 ;\n\t\tz := @", (3, 8), "unexpected character '@'", ()),
    ("com", "\tx\t:=\t1\t?", (1, 9), "unexpected character '?'", ()),
    ("com", "x := 1 ;\r\ny := 2 ;\r\nz := #", (3, 6), "unexpected character '#'", ()),
    ("com", "x := 1 ;\r\nWHILE DO SKIP OD", (2, 7), "expected boolean expression", BOOL),
    ("com", "-- a comment ; with ? symbols\nx := $", (2, 6), "unexpected character '$'", ()),
    ("com", "x := 1 -- a comment\n; WHILE x < DO SKIP OD", (2, 13), "expected arithmetic expression", ARITH),
    ("com", "x := --1", (1, 9), "expected arithmetic expression", ARITH),
    ("com", "x := --1\n", (2, 1), "expected arithmetic expression", ARITH),
    ("com", "x := -1 ; y := -", (1, 16), "unexpected character '-'", ()),
    ("com", "x := - 1", (1, 6), "unexpected character '-'", ()),
    ("com", "x := -", (1, 6), "unexpected character '-'", ()),
    ("com", "-", (1, 1), "unexpected character '-'", ()),
    ("aexp", "1 - 2", (1, 3), "unexpected character '-'", ()),
    ("com", "SKIP SKIP ?", (1, 11), "unexpected character '?'", ()),
    ("com", "", (1, 1), "expected command", COMMAND),
    ("com", "   \n  -- only a comment", (2, 20), "expected command", COMMAND),
    ("com", "SKIP ; -- trailing\n", (2, 1), "expected command", COMMAND),
    ("com", "IF x < 1 THEN SKIP ELSE SKIP", (1, 29), "expected keyword FI", ("FI",)),
    ("com", "(SKIP ; SKIP", (1, 13), "expected ')'", ("')'",)),
    ("bexp", "(x < 1", (1, 7), "expected ')'", ("')'",)),
    ("bexp", "((x) + 1 <", (1, 11), "expected arithmetic expression", ARITH),
    ("com", "x :- 1", (1, 3), "unexpected character ':'", ()),
    ("com", "x := 1 & 2", (1, 8), "unexpected character '&'", ()),
    ("com", "_x := 1", (1, 1), "unexpected character '_'", ()),
    ("com", "x := 1 ; y", (1, 11), "expected ':='", ("':='",)),
    ("com", "WHILE := 2", (1, 7), "expected boolean expression", BOOL),
    ("com", "x := 1\n\n\n  SKIP", (4, 3), "unexpected input after complete phrase: 'SKIP'", EOF),
    ("com", "x := 1\x0c", (1, 7), "unexpected character '\\x0c'", ()),
    ("com", "x :=\xa01", (1, 5), "unexpected character '\\xa0'", ()),
    # Each way a guard's '(' resolves: an unclosed operand, a closed
    # operand with no '<', a boolean group used as an operand, and nothing.
    ("com", "IF (x THEN SKIP ELSE SKIP FI", (1, 7), "expected '<'", ("'<'",)),
    ("com", "IF ((x) THEN SKIP ELSE SKIP FI", (1, 9), "expected '<'", ("'<'",)),
    ("com", "IF (x) THEN SKIP ELSE SKIP FI", (1, 8), "expected '<'", ("'<'",)),
    ("com", "IF (x && true) THEN SKIP ELSE SKIP FI", (1, 7), "expected '<'", ("'<'",)),
    ("com", "IF (! x) THEN SKIP ELSE SKIP FI", (1, 8), "expected '<'", ("'<'",)),
    ("com", "IF ((x < 1) + 2 < 3) THEN SKIP ELSE SKIP FI", (1, 13), "expected ')'", ("')'",)),
    ("com", "IF ( THEN SKIP ELSE SKIP FI", (1, 6), "expected boolean expression", BOOL),
    ("bexp", "(true) < 1", (1, 8), "unexpected input after complete phrase: '<'", EOF),
]


@pytest.mark.parametrize(
    "kind,src,position,message,expected",
    ERROR_TABLE,
    # A row's id names its first four columns only.
    ids=[f"{kind}-{src}-position{i}-{message}" for i, (kind, src, _, message, _) in enumerate(ERROR_TABLE)],
)
def test_error_positions_and_messages(kind, src, position, message, expected):
    parse = {"com": parse_com, "aexp": parse_aexp, "bexp": parse_bexp}[kind]
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.position, exc.value.message, exc.value.expected) == (position, message, list(expected))


@pytest.mark.parametrize(
    "src,position,char",
    [("é := 1", (1, 1), "é"), ("xé := 1", (1, 2), "é"), ("x := ²", (1, 6), "²"), ("x := ٣", (1, 6), "٣")],
)
def test_non_ascii_letters_and_digits_are_unexpected_characters(src, position, char):
    with pytest.raises(ParseError) as exc:
        parse_com(src)
    assert (exc.value.position, exc.value.message) == (position, f"unexpected character {char!r}")


def test_overlong_literals_are_parse_errors_at_the_literal():
    # Python's integer-string limit; a literal at the limit still parses
    digits = sys.get_int_max_str_digits()
    at_limit = "-" + "7" * digits
    assert parse_aexp(at_limit) == N(int(at_limit))
    over = "1" * (digits + 1)
    for parse, src, position in [
        (parse_com, f"x := 1 ;\n\ty := 2 + {over}", (2, 11)),
        (parse_aexp, f"-{over}", (1, 1)),
        (parse_bexp, f"(x + -{over}) < 1", (1, 6)),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.position == position
        assert exc.value.message == f"integer literal too long ({digits + 1} digits)"


# 20,000 statements, terms or conjuncts: far more allocations than the
# cyclic GC's first threshold, so a parse with the GC running collects.
LONG_INPUTS = [
    (parse_com, " ; ".join(f"x{i % 7} := y + {i}" for i in range(20_000))),
    (parse_aexp, " + ".join(f"x{i % 7}" for i in range(20_000))),
    (parse_bexp, " && ".join(f"x{i % 7} < {i}" for i in range(20_000))),
]


@pytest.mark.parametrize("parse,text", LONG_INPUTS, ids=["com", "aexp", "bexp"])
def test_a_long_parse_starts_no_gc_collection(parse, text):
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(on_gc)
    try:
        parse(text)
    finally:
        gc.callbacks.remove(on_gc)
    assert starts == []


def _gc_state_inputs():
    over = "1" * (sys.get_int_max_str_digits() + 1)
    for parse, valid, overlong in [
        (parse_com, "x := y + 1", f"x := {over}"),
        (parse_aexp, "y + 1", over),
        (parse_bexp, "x < y + 1", f"{over} < 1"),
    ]:
        for name, text in [("valid", valid), ("lexical", "x ?"), ("syntax", ")"), ("overlong", overlong)]:
            yield pytest.param(parse, text, id=f"{parse.__name__}-{name}")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("parse,text", _gc_state_inputs())
def test_parsing_leaves_the_gc_as_it_found_it(enabled, parse, text):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            parse(text)
        except ParseError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _parser_lines(text: str) -> int:
    """Lines of parser.py executed while parsing `text`."""
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count

    def trace(frame, event, arg):
        return count if frame.f_code.co_filename == parser.__file__ else None

    sys.settrace(trace)
    try:
        parse_com(text)
    finally:
        sys.settrace(None)
    return lines


@pytest.mark.parametrize(
    "shape",
    ["IF {open}true{close} THEN SKIP ELSE SKIP FI", "IF {open}x < 1{close} && true THEN SKIP ELSE SKIP FI"],
    ids=["parenthesized-true", "parenthesized-comparison"],
)
def test_parsing_work_grows_linearly_with_boolean_nesting(shape):
    # Counted executed lines, not wall-clock time: doubling the depth of
    # nested boolean parentheses may at most double the work.  A parser
    # that tries each '(' both ways does about four times as much.  Lines,
    # not calls, because a parser that loops makes the same few calls at
    # any depth.
    def lines(n):
        return _parser_lines(shape.format(open="(" * n, close=")" * n))

    assert lines(200) <= 2.1 * lines(100)


DEEP = 10_000  # ten times the default recursion limit


def _nest(bottom, wrap, depth=DEEP):
    for _ in range(depth):
        bottom = wrap(bottom)
    return bottom


X_LT_1, SKIP = Less(V("x"), N(1)), Skip()

# (entry point, 10,000-deep input, the tree it parses to)
DEEP_INPUTS = [
    (parse_aexp, "(" * DEEP + "1 + x" + ")" * DEEP, Plus(N(1), V("x"))),
    (parse_aexp, "(" * DEEP + "x" + " + 1)" * DEEP, _nest(V("x"), lambda t: Plus(t, N(1)))),
    (parse_bexp, "(" * DEEP + "x < 1" + ")" * DEEP, X_LT_1),
    (parse_bexp, "(" * DEEP + "x" + ")" * DEEP + " < 1", X_LT_1),
    (parse_bexp, "! " * DEEP + "true", _nest(Bc(True), Not)),
    (parse_bexp, " && ".join(["x < 1"] * DEEP), _nest(X_LT_1, lambda t: And(X_LT_1, t), DEEP - 1)),
    (
        parse_com,
        "IF true THEN " * DEEP + "SKIP" + " ELSE SKIP FI" * DEEP,
        _nest(SKIP, lambda t: If(Bc(True), t, SKIP)),
    ),
    (parse_com, "WHILE x < 1 DO " * DEEP + "SKIP" + " OD" * DEEP, _nest(SKIP, lambda t: While(X_LT_1, t))),
    (parse_com, "(" * DEEP + "SKIP" + ") ; SKIP" * DEEP, _nest(SKIP, lambda t: Seq(t, SKIP))),
]


@pytest.mark.parametrize(
    "parse,text,tree",
    DEEP_INPUTS,
    ids=["aexp-parens", "plus-parens", "bexp-parens", "operand-parens", "not", "and", "if", "while", "seq-parens"],
)
def test_deep_nesting_parses_without_recursion(parse, text, tree):
    assert sys.getrecursionlimit() < DEEP
    assert parse(text) == tree


def test_deep_nesting_reports_an_error_at_the_bottom():
    # The missing expression sits under 10,000 open WHILEs, one per line.
    text = "WHILE x < 1 DO\n" * DEEP + "x :=\n" + "OD\n" * DEEP
    with pytest.raises(ParseError) as exc:
        parse_com(text)
    assert (exc.value.position, exc.value.message, exc.value.expected) == (
        (DEEP + 2, 1),
        "expected arithmetic expression",
        list(ARITH),
    )


def test_long_straight_line_program_parses_and_prints():
    # 100,000 statements: a right-nested Seq chain far deeper than the
    # recursion limit.
    text = " ; ".join(f"x{i % 7} := {i}" for i in range(100_000))
    expected = Set(f"x{99_999 % 7}", N(99_999))
    for i in reversed(range(99_999)):
        expected = Seq(Set(f"x{i % 7}", N(i)), expected)
    tree = parse_com(text)
    assert tree == expected
    assert pretty(tree) == text


def test_error_is_exception_not_exit():
    # a parse failure must never kill the process
    try:
        parse_com("IF x THEN SKIP ELSE SKIP FI")
    except ParseError:
        pass


def test_roundtrip_nasty_cases():
    cases = [
        Seq(Seq(Skip(), Set("x", N(-1))), Skip()),
        If(Not(And(Bc(True), Less(V("x"), N(0)))), Skip(), Skip()),
        While(And(Bc(False), And(Bc(True), Bc(False))), Seq(Skip(), Skip())),
        Set("x", Plus(N(-3), Plus(V("y"), N(0)))),
        If(Less(Plus(V("x"), V("y")), N(-4)), Seq(Skip(), Skip()), While(Bc(False), Skip())),
    ]
    for c in cases:
        assert parse_com(pretty(c)) == c


def test_roundtrip_generated_sample():
    for seed in range(300):
        c = gen_com(GenConfig(seed=seed), 12)
        assert parse_com(pretty(c)) == c


def test_roundtrip_survives_random_whitespace():
    rng = SplitMix64(2024)
    ws = (" ", "  ", "\n", "\t", "\n  ", " -- c\n")
    for seed in range(60):
        c = gen_com(GenConfig(seed=seed), 10)
        # Re-join the token stream of the pretty form with random whitespace.
        tokens = pretty(c).split(" ")
        text = ws[rng.below(len(ws))].join(tokens) if tokens else ""
        assert parse_com(text) == c


def test_skip_true_and_false_are_one_object_each():
    text = "SKIP ; IF true THEN SKIP ELSE WHILE false && ! true DO SKIP OD FI ; (SKIP ; SKIP)"
    ids = {}  # repr of each SKIP, true and false leaf -> the ids of its objects
    todo = [parse_com(text), parse_com(text), parse_bexp("true && false")]
    while todo:
        node = todo.pop()
        if type(node) in (Skip, Bc):
            ids.setdefault(repr(node), set()).add(id(node))
        for name in node.__match_args__:
            value = getattr(node, name)
            if isinstance(value, _Frozen):
                todo.append(value)
    assert {leaf: len(objects) for leaf, objects in ids.items()} == {"Skip()": 1, "Bc(value=True)": 1, "Bc(value=False)": 1}


def test_shared_leaves_keep_round_trips_equal_and_hashes_equal():
    # The generator builds a new Skip and Bc per occurrence, the parser shares one.
    for seed in range(300):
        c = gen_com(GenConfig(seed=seed), 12)
        parsed = parse_com(pretty(c))
        assert parsed == c and hash(parsed) == hash(c) and repr(parsed) == repr(c)


def _objects(*roots):
    """id -> node, for every node reachable from `roots`, each object once."""
    found = {}
    todo = list(roots)
    while todo:
        node = todo.pop()
        if id(node) not in found:
            found[id(node)] = node
            todo.extend(v for v in (getattr(node, name) for name in node.__match_args__) if isinstance(v, _Frozen))
    return found


# Reads its leaves first, so every phrase after that is read in one step;
# `z := 1` and `z < 1` read the same leaves but are different nodes.
SHARED_PHRASES = "a := x + y + z + 1 ; " + " ; ".join(
    [
        "x := 1",
        "x := y + 1",
        "z := 1",
        "IF x < y THEN x := 1 ELSE x := y + 1 FI",
        "WHILE z < 1 DO z := 1 OD",
        "IF ! x < y && z < 1 THEN x := y + 1 ELSE z := 1 FI",
        "WHILE (x < y) DO x := 1 OD",
    ]
)


def test_a_phrase_read_in_one_step_is_one_object_per_parse():
    import reference_parser

    c = parse_com(SHARED_PHRASES)
    assert c == reference_parser.parse_com(SHARED_PHRASES)
    objects = {}  # repr of each Set and Less -> its objects' ids
    for key, node in _objects(c).items():
        if type(node) in (Set, Less):
            objects.setdefault(repr(node), set()).add(key)
    assert {r: len(ids) for r, ids in objects.items()} == {
        repr(Set("a", Plus(Plus(Plus(V("x"), V("y")), V("z")), N(1)))): 1,
        repr(Set("x", N(1))): 1,
        repr(Set("x", Plus(V("y"), N(1)))): 1,
        repr(Set("z", N(1))): 1,
        repr(Less(V("x"), V("y"))): 1,
        repr(Less(V("z"), N(1))): 1,
    }


def test_no_node_but_skip_true_and_false_is_shared_across_parses():
    text = SHARED_PHRASES + " ; SKIP ; WHILE true && false DO SKIP OD"
    first, second = _objects(parse_com(text)), _objects(parse_com(text))
    assert sorted(repr(first[key]) for key in first.keys() & second.keys()) == [
        "Bc(value=False)", "Bc(value=True)", "Skip()"
    ]
