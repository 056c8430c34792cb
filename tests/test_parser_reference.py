"""Differential test: the explicit-stack parser against the recursive one.

`reference_parser` is the recursive-descent parser that `clockwork.parser`
replaced.  On every input both must give the same tree, or the same
ParseError position, message and expected set, through each of the three
entry points.  The inputs are generated programs and their pretty forms
with 0-3 token mutations, grammar-built texts with redundant parentheses
(the shapes where a guard's '(' is ambiguous), each of those twice over,
random token strings, and the rows where a phrase fast path ends.
"""

import pytest

import reference_parser
from clockwork.imp import pretty
from clockwork.parser import ParseError, parse_aexp, parse_bexp, parse_com
from clockwork.testkit import GenConfig, SplitMix64, gen_com

VOCAB = (
    "SKIP IF THEN ELSE FI WHILE DO OD true false x y z 0 1 -2 := ; + < ! && ( ) ( )".split()
    + ["?", "-", "--c\n", "\n"]
)
ENTRY_POINTS = [
    (parse_com, reference_parser.parse_com),
    (parse_aexp, reference_parser.parse_aexp),
    (parse_bexp, reference_parser.parse_bexp),
]


def _outcome(parse, text):
    try:
        return ("tree", parse(text))
    except ParseError as e:
        return ("error", e.position, e.message, e.expected)


def _pick(rng, items):
    return items[rng.below(len(items))]


def _grammar_text(rng, kind, depth):
    """Tokens of a random `kind` phrase, with redundant parentheses."""
    out = []

    def term(d):
        if d and rng.below(4) == 0:
            out.append("(")
            aexp(d - 1)
            out.append(")")
        else:
            out.append(_pick(rng, ("x", "y", "0", "1", "-2")))

    def aexp(d):
        term(d)
        for _ in range(rng.below(3)):
            out.append("+")
            term(d)

    def bconj(d):
        r = rng.below(6) if d else 2 + rng.below(2)
        if r == 0:
            out.append("!")
            bconj(d - 1)
        elif r == 1:
            out.append("(")
            bexp(d - 1)
            out.append(")")
        elif r == 2:
            out.append(_pick(rng, ("true", "false")))
        else:
            aexp(d)
            out.append("<")
            aexp(d)

    def bexp(d):
        bconj(d)
        if d and rng.below(3) == 0:
            out.append("&&")
            bexp(d - 1)

    def atom(d):
        r = rng.below(5) if d else rng.below(2)
        if r == 0:
            out.append("SKIP")
        elif r == 1:
            out.extend(("x", ":="))
            aexp(d)
        elif r == 2:
            out.append("IF")
            bexp(d - 1)
            out.append("THEN")
            com(d - 1)
            out.append("ELSE")
            com(d - 1)
            out.append("FI")
        elif r == 3:
            out.append("WHILE")
            bexp(d - 1)
            out.append("DO")
            com(d - 1)
            out.append("OD")
        else:
            out.append("(")
            com(d - 1)
            out.append(")")

    def com(d):
        atom(d)
        if d and rng.below(3) == 0:
            out.append(";")
            com(d - 1)

    {"aexp": aexp, "bexp": bexp, "com": com}[kind](depth)
    return out


def _mutate(rng, tokens, count):
    tokens = list(tokens)
    for _ in range(count):
        i = rng.below(len(tokens) + 1)
        op = rng.below(3)
        if op == 0 and i < len(tokens):
            del tokens[i]
        elif op == 1 and i < len(tokens):
            tokens[i] = _pick(rng, VOCAB)
        else:
            tokens.insert(i, _pick(rng, VOCAB))
    return tokens


# Where the phrase fast paths (`x := leaf + leaf`, an IF or WHILE guard
# `leaf < leaf`) stop and the general loop takes over.  They fire only on
# leaves read before, so each row also comes after PREFIX, which reads them.
PREFIX = "a := x + y + z + 1 + 2 ; "
BOUNDARY_ROWS = [
    "x := y + z",
    "x := y + z ; SKIP",
    "x := y + z + 1",
    "x := y + (z)",
    "x := y +",
    "x := y + z +",
    "x := y + z 1",
    "x := y + z < 1",
    "IF x < y THEN SKIP ELSE SKIP FI",
    "IF x < y && true THEN SKIP ELSE SKIP FI",
    "IF x < y + 1 THEN SKIP ELSE SKIP FI",
    "IF x < y",
    "IF x < y THEN",
    "IF x < y DO SKIP OD",
    "IF x < y FI",
    "WHILE x < y DO x := x + 1 OD",
    "WHILE x < y OD",
    "WHILE x < y THEN SKIP ELSE SKIP FI",
    "WHILE x < y < z DO SKIP OD",
    "WHILE x < (y) DO SKIP OD",
]


def differential_inputs(seed, count):
    """`count` inputs of each kind, drawn from SplitMix64(`seed`), then the boundary rows.

    A generated or grammar-built text is also repeated as `t ; t`, whose
    second half meets its leaves again, so the fast paths fire.
    """
    rng = SplitMix64(seed)
    for i in range(count):
        c = gen_com(GenConfig(seed=seed * 1_000_003 + i), 1 + rng.below(14))
        text = " ".join(_mutate(rng, pretty(c).split(" "), rng.below(4)))
        yield from (text, f"{text} ; {text}")
        kind = _pick(rng, ("aexp", "bexp", "com"))
        text = " ".join(_mutate(rng, _grammar_text(rng, kind, rng.below(5)), rng.below(4)))
        yield from (text, f"{text} ; {text}")
        yield " ".join(_pick(rng, VOCAB) for _ in range(rng.below(12)))
    for row in BOUNDARY_ROWS:
        yield from (row, PREFIX + row)


def mismatches(inputs):
    """The (input, entry point, new, reference) outcomes that differ, and the counts."""
    found, valid, errors = [], 0, 0
    for text in inputs:
        for new, ref in ENTRY_POINTS:
            got, want = _outcome(new, text), _outcome(ref, text)
            if got != want:
                found.append((text, new.__name__, got, want))
            elif got[0] == "tree":
                valid += 1
            else:
                errors += 1
    return found, valid, errors


@pytest.mark.parametrize("seed", [1, 2])
def test_parser_matches_the_recursive_reference(seed):
    found, valid, errors = mismatches(differential_inputs(seed, 3000))
    assert found == []
    # Both outcomes occur often enough that the comparison means something.
    assert valid > 1500 and errors > 1500
