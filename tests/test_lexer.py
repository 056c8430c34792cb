"""Differential test: `parser._lex` against the `_LEX` scan it replaced.

`_lex` splits the comment-free text at whitespace and matches each
distinct chunk once; the `_LEX` regex scan now only locates errors.  On
every input both must give the same tokens, apart from the "" sentinels
at the end (`_lex` ends with exactly one, the scan with one or two), or
the same ParseError position, message and expected set.  The inputs are
the example programs, the pretty forms of generated programs and of one
balanced program built from them, unspaced text, comments, CRLF, tabs
and trailing whitespace, and each character that str.split splits at
but the grammar does not.  Every prefix of the smaller corpora is also
parsed, through each entry point, to show that the parser's look-ahead
never reads past the sentinel.
"""

from pathlib import Path

import pytest

from clockwork import parser
from clockwork.imp import If, Seq, Set, While, pretty, pretty_aexp, pretty_bexp
from clockwork.parser import ParseError, parse_aexp, parse_bexp, parse_com
from clockwork.testkit import GenConfig, gen_com

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = sorted((ROOT / "programs").glob("*.imp")) + sorted((ROOT / "tests" / "data").glob("*.imp"))

GENERATED = [pretty(gen_com(GenConfig(seed=seed), 12)) for seed in range(2000)]

HAND = [
    "",
    " ",
    "\n",
    "x:=1;y:=x+-2",
    "IF(x<1)THEN SKIP ELSE SKIP FI",
    "WHILE!(x<1)&&true DO(x:=x+1;y:=-3+y)OD",
    "x:=1--a comment\n;y:=2",
    "x := 1 -- a -- comment -- with dashes\n; y := 2 --",
    "-- é, ü, ∀ and ( in a comment\nx := 1 -- (unclosed\n",
    "x := 1 -- \u2028\u3000\xa0\x85\x0b\x0c\x1c\n; SKIP",
    "x := --1\n+ 2",
    "x := 1 ;\r\ny := 2\r\n",
    "x := 1 ;\r\ny := 2",
    "\tx\t:=\t1\t;\ty\t:=\t2\t",
    "x := 1 ;\n\ty := 2 \t\r\n  ",
    "x :=\t-1 -- tab\t\r\n;\r\n\tSKIP\t \n",
    "x := 1 - 2",
    "x := 1 ? 2",
    "x :- 1",
    "x := 1 & 2",
    "_x := 1",
    "x := 1\x00",
    "x := é",
    "xé := 1",
]

# Each is a lexical error outside a comment; é is a non-ASCII letter.
SPLIT_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", "é"]
PLACES = ["{c}x := 1", "x{c}:= 1", "x := 1{c}", "x := 1 ;{c}y := 2", "x := 1 ;\n{c}\ny := 2", "x := (1{c})"]


def _balanced(leaves):
    while len(leaves) > 1:
        leaves = [Seq(*leaves[i : i + 2]) if i + 1 < len(leaves) else leaves[i] for i in range(0, len(leaves), 2)]
    return leaves[0]


BIG = pretty(_balanced([gen_com(GenConfig(seed=seed), 12) for seed in range(512)])) + "\n"


def _scan(text):
    """The `_LEX` scan that `_lex` ran before: its tokens without the
    trailing sentinels, or the ParseError it raised."""
    tokens = parser._LEX.findall(text)
    if len(tokens) > 1 and tokens[-2] and not parser._TOKEN.match(tokens[-2]):
        rest = tokens[-2]
        raise parser._error_at(text, len(text) - len(rest), f"unexpected character {rest[0]!r}")
    while tokens and tokens[-1] == "":
        tokens.pop()
    return tokens


def _outcome(lex, text):
    try:
        return ("tokens", lex(text))
    except ParseError as e:
        return ("error", e.position, e.message, e.expected)


def _lex_outcome(text):
    outcome = _outcome(parser._lex, text)
    if outcome[0] == "tokens":
        tokens = outcome[1]
        assert tokens[-1] == "" and "" not in tokens[:-1]
        outcome = ("tokens", tokens[:-1])
    return outcome


def _variants(text):
    """`text` with its spaces as tabs, newlines or CRLF, and trailing whitespace."""
    yield text
    yield text.replace(" ", "\t")
    yield text.replace(" ", "\n")
    yield text.replace(" ", "\r\n") + "\r\n"
    yield text + " \t\n"


def _corpus():
    for path in PROGRAMS:
        yield from _variants(path.read_text(encoding="utf-8"))
    for text in GENERATED + HAND:
        yield from _variants(text)
    for text in HAND:
        for end in range(len(text)):
            yield text[:end]
    yield BIG
    for c in SPLIT_ONLY:
        for place in PLACES:
            yield place.format(c=c)
            yield place.format(c=f"-- {c}\n")


def test_lex_matches_the_scan():
    texts = list(_corpus())
    assert len(texts) > 10_000
    errors = 0
    for text in texts:
        expected = _outcome(_scan, text)
        assert _lex_outcome(text) == expected, text
        errors += expected[0] == "error"
    assert errors > len(SPLIT_ONLY) * len(PLACES)


def test_chunks_of_several_tokens_are_flattened():
    assert parser._lex("x:=1;y:=x+-2") == ["x", ":=", "1", ";", "y", ":=", "x", "+", "-2", ""]
    assert parser._lex("IF(x<1)THEN") == ["IF", "(", "x", "<", "1", ")", "THEN", ""]
    assert parser._lex("x:=1--c\n;") == ["x", ":=", "1", ";", ""]


@pytest.mark.parametrize("c", SPLIT_ONLY, ids=[f"U+{ord(c):04X}" for c in SPLIT_ONLY])
def test_whitespace_outside_the_grammar_is_an_unexpected_character(c):
    with pytest.raises(ParseError) as exc:
        parse_com(f"x := 1 ;\n  {c}y := 2")
    assert (exc.value.position, exc.value.message, exc.value.expected) == ((2, 3), f"unexpected character {c!r}", [])
    assert parse_com(f"x := 1 ; -- {c}\n  y := 2") == parse_com("x := 1 ; y := 2")


def _phrases():
    """The texts to cut, per entry point: whole programs, and the guards
    and assigned expressions of the generated ones."""
    programs = [path.read_text(encoding="utf-8") for path in PROGRAMS] + HAND + GENERATED
    guards, exprs = [], []
    todo = [gen_com(GenConfig(seed=seed), 12) for seed in range(300)]
    while todo:
        c = todo.pop()
        if type(c) is Set:
            exprs.append(pretty_aexp(c.expr))
        elif type(c) is Seq:
            todo += [c.first, c.second]
        elif type(c) is If:
            guards.append(pretty_bexp(c.guard))
            todo += [c.then_branch, c.else_branch]
        elif type(c) is While:
            guards.append(pretty_bexp(c.guard))
            todo.append(c.body)
    return [(parse_com, programs), (parse_aexp, HAND + exprs), (parse_bexp, HAND + guards)]


@pytest.mark.parametrize("parse,texts", _phrases(), ids=["com", "aexp", "bexp"])
def test_every_prefix_parses_or_raises_parse_error(parse, texts):
    # An IndexError here would be look-ahead past the end sentinel.
    for text in texts:
        for end in range(len(text) + 1):
            try:
                parse(text[:end])
            except ParseError:
                pass
