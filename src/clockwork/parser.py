"""Concrete syntax for the While language.

Grammar (';' and '&&' associate to the right, '+' to the left):

    com    ::= seq
    seq    ::= atom (";" seq)?
    atom   ::= "SKIP"
             | ident ":=" aexp
             | "IF" bexp "THEN" com "ELSE" com "FI"
             | "WHILE" bexp "DO" com "OD"
             | "(" com ")"
    bexp   ::= bconj ("&&" bexp)?
    bconj  ::= "!" bconj | "true" | "false"
             | aexp "<" aexp | "(" bexp ")"
    aexp   ::= term ("+" term)*
    term   ::= int-literal | ident | "(" aexp ")"

Keywords (reserved, may not be identifiers): SKIP IF THEN ELSE FI WHILE
DO OD true false.  Identifiers match [a-zA-Z][a-zA-Z0-9_]*.  Integer
literals are an optional '-' immediately followed by digits [0-9], at
most ``sys.get_int_max_str_digits()`` of them (4300 by default).  Line
comments run from '--' to end of line.  Whitespace (space, tab, '\\r',
'\\n') between tokens is insignificant.  Any other character, a non-ASCII
letter or digit included, is a lexical error.

The lexer replaces comments with spaces and splits the text at
whitespace, and matches each distinct chunk of the split once with the
token pattern, so a token text matches once however often it recurs.
The regex scan over the whole text (`_LEX`) only locates errors: the
first character that starts no token, and the offset of the token that a
syntax error names.

The parser is one loop over the token texts, with no recursion, so input
of any nesting depth that fits in memory parses.  Each step either reads
the start of an atom, a bconj or a term, or hands a finished phrase to
the frame on top of an explicit stack: a phrase waiting for its next part.
Within one parse every N and V leaf is built once per distinct token text
and shared; SKIP, true and false are one node each, which every parse
shares.  Four fixed runs of tokens are read in one step, when each
leaf in them has been read before in the same parse: `x := leaf` and
`x := leaf + leaf` not followed by '+', a bconj `leaf < leaf` not
followed by '+', and an IF or WHILE with its guard `leaf < leaf`
followed directly by THEN or DO.

A parse runs with the cyclic GC paused, and leaves it enabled exactly
when it was before.  A parse builds only acyclic values: a node refers
only to nodes built before it, a frame only to nodes and no node to a
frame, and reference counting frees the frames.  So a GC pass during a
parse would walk the growing tree and find nothing to free; on a large
program such passes are a sizable share of the parse.  The pause acts
on the whole process, other threads included, while the parse runs.

A '(' at the start of a bconj is ambiguous: it may open a parenthesized
boolean or the left operand of a comparison.  The parser reads it once:
the contents parse as a bconj that may also end as an aexp at the closing
')'.  A boolean result goes on with ("&&" bexp)? ")", an aexp result with
("+" term)* "<" aexp.  The first token that rules one reading out settles
the group, so a syntax error is where the last live reading failed, the
furthest any reading got.  Where both fail at the same token, the error
is the boolean reading's: an aexp that is followed by neither ')' nor '<'
reports "expected '<'".  On the stack, the bconj read just after a '('
ends as an aexp when its operand meets the ')': the '(' frame then turns
into the left operand of the comparison outside.
"""

from __future__ import annotations

import gc
import itertools
import re

from .imp import KEYWORDS, Aexp, And, Bc, Bexp, Com, If, Less, N, Not, Plus, Seq, Set, Skip, V, While

# One match per token: whitespace and comments, then the token's text in
# the one group, the most frequent kinds first.  At a character that starts
# no token, the group takes the rest of the input, which ends the scan; at
# the end of the input it is empty.  The alternatives cannot all fail, so a
# match never backtracks into the whitespace, and each match starts where
# the previous one ended: findall skips no character.  The classes are
# ASCII-only.  `_lex` does not run this scan on valid input; it locates
# lexical errors, and `_token_offset` syntax errors.
_TOKEN = re.compile(r"[;+<!()]|:=|[A-Za-z][A-Za-z0-9_]*|-?[0-9]+|&&")
_LEX = re.compile(r"[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*(" + _TOKEN.pattern + r"|[\s\S]+|\Z)")
_COMMENT = re.compile(r"--[^\n]*")
_INT_START = frozenset("-0123456789")
# The leaves that never vary, built once: every parse shares them.
_SKIP, _TRUE, _FALSE = Skip(), Bc(True), Bc(False)

# What the loop reads next: the start of an atom, a bconj or a term.
_ATOM, _BCONJ, _TERM = range(3)
# The frames on its stack, kind first:
#   (_SEQ, atoms)                  the atoms before the current one of a ';' chain
#   (_CONJ, conjuncts)             the same for an '&&' chain
#   (_PARTS, keys, build, parts)   IF or WHILE: each part read is followed by its key
#   [_TERMS, left]                 an aexp's '+' chain so far, None before its first term
#   (_CMP,)                        a bconj's aexp, which goes on with '<' aexp
#   (_PAIR, build, first)          Set or Less, built when its aexp is read
#   (_NOT,), (_OPEN,), (_CLOSE,)   a '!', a bconj's '(' and any other '('
_SEQ, _CONJ, _PARTS, _TERMS, _CMP, _PAIR, _NOT, _OPEN, _CLOSE = range(9)
_IF_KEYS, _WHILE_KEYS = ("THEN", "ELSE", "FI"), ("DO", "OD")

# The expected sets a ParseError reports.
_ARITH = ("integer literal", "identifier", "'('")
_BOOL = ("'!'", "true", "false", "comparison", "'('")
_COMMAND = ("SKIP", "assignment", "IF", "WHILE", "'('")


class ParseError(Exception):
    """Lexical or syntactic violation, with a 1-based source position."""

    def __init__(self, line: int, col: int, message: str, expected: tuple[str, ...] = ()):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message
        self.expected = list(expected)

    @property
    def position(self) -> tuple[int, int]:
        return (self.line, self.col)


def _error_at(text: str, offset: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """A ParseError at character `offset` of `text`; tabs and '\\r' are one column."""
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return ParseError(line, col, message, expected)


def _lex(text: str) -> list[str]:
    """The token texts of `text`, ending with exactly one "" for end of input.

    Comments become spaces.  If the rest is ASCII and holds no whitespace
    but the grammar's four characters, it is split at whitespace, with '('
    and ')' spaced out, and the distinct chunks are matched with `_TOKEN`
    in one pass, spaced apart.  When every chunk is one token, the chunks
    are the tokens; when the matches cover the chunks exactly but some
    chunk, such as `x:=1;`, is several tokens, each chunk is replaced by
    its tokens.  Otherwise a character outside every comment starts no
    token, and the `_LEX` scan raises ParseError at the first one.

    One "" is enough: the parser reads a token past position i only when
    token i is not "", and it moves past no "".
    """
    clean = _COMMENT.sub(" ", text) if "--" in text else text
    # str.split also splits at these ASCII characters, and at non-ASCII whitespace.
    odd = "\x0b" in clean or "\x0c" in clean or "\x1c" in clean or "\x1d" in clean or "\x1e" in clean or "\x1f" in clean
    if clean.isascii() and not odd:
        chunks = clean.replace("(", " ( ").replace(")", " ) ").split()
        # One match over the distinct chunks, spaced apart: its tokens
        # cover them exactly when each chunk is a run of tokens.
        distinct = set(chunks)
        spaced = " ".join(distinct)
        tokens = _TOKEN.findall(spaced)
        if "".join(tokens) == spaced.replace(" ", ""):
            if len(tokens) > len(distinct):  # some chunk, such as `x:=1;`, is several tokens
                runs = {chunk: _TOKEN.findall(chunk) for chunk in distinct}
                chunks = [tok for chunk in chunks for tok in runs[chunk]]
            chunks.append("")
            return chunks
    # Only the last match before the end holds the rest of the input.
    rest = _LEX.findall(text)[-2]
    raise _error_at(text, len(text) - len(rest), f"unexpected character {rest[0]!r}")


def _token_offset(text: str, index: int) -> int:
    """Character offset of token `index` of `_lex(text)`, found by scanning again."""
    m = next(itertools.islice(_LEX.finditer(text), index, None))
    return m.start(1) if m.group(1) else m.end()


def _fail(text: str, index: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """A ParseError at token `index` of `text`."""
    return _error_at(text, _token_offset(text, index), message, expected)


def _missing(text: str, index: int, tok: str) -> ParseError:
    """The ParseError for a missing symbol or keyword `tok` at token `index`."""
    if tok.isalpha():
        return _fail(text, index, f"expected keyword {tok}", (tok,))
    return _fail(text, index, f"expected {tok!r}", (f"'{tok}'",))


def _leaf(text: str, index: int, tok: str) -> N | V | bool:
    """The leaf that token `index`, `tok`, reads as in a term, or False."""
    if tok[:1] in _INT_START:
        try:
            return N(int(tok))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise _fail(text, index, f"integer literal too long ({len(tok.lstrip('-'))} digits)") from None
    if tok[:1].isalpha() and tok not in KEYWORDS:
        return V(tok)
    return False


def _parse(text: str, want: int, frame: tuple | list) -> Com | Aexp | Bexp:
    """Parse all of `text` as the phrase that `frame` collects, with the cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read(text, want, frame)
    finally:
        if enabled:
            gc.enable()


def _read(text: str, want: int, frame: tuple | list) -> Com | Aexp | Bexp:
    """Parse all of `text` as the phrase that `frame` collects, starting with a `want`."""
    toks = _lex(text)
    leaves: dict[str, N | V | bool] = {}  # token text -> its leaf, or False
    stack = [frame]
    pos = 0
    while True:
        # Read the start of a `want`, pushing a frame for the rest, until a
        # phrase is complete in `val`.
        tok = toks[pos]
        if want == _ATOM:
            if tok[:1].isalpha() and toks[pos + 1] == ":=" and tok not in KEYWORDS:
                leaf = leaves.get(toks[pos + 2])
                if leaf and toks[pos + 3] != "+":
                    val = Set(tok, leaf)
                    pos += 3
                elif leaf and (right := leaves.get(toks[pos + 4])) and toks[pos + 5] != "+":
                    val = Set(tok, Plus(leaf, right))
                    pos += 5
                else:
                    stack.append((_PAIR, Set, tok))
                    stack.append([_TERMS, None])
                    pos += 2
                    want = _TERM
                    continue
            elif tok == "SKIP":
                val = _SKIP
                pos += 1
            elif tok == "IF" or tok == "WHILE":
                keys, build = (_IF_KEYS, If) if tok == "IF" else (_WHILE_KEYS, While)
                left = leaves.get(toks[pos + 1])
                if left and toks[pos + 2] == "<" and (right := leaves.get(toks[pos + 3])) and toks[pos + 4] == keys[0]:
                    stack.append((_PARTS, keys, build, [Less(left, right)]))
                    stack.append((_SEQ, []))
                    pos += 5
                    continue
                stack.append((_PARTS, keys, build, []))
                stack.append((_CONJ, []))
                pos += 1
                want = _BCONJ
                continue
            elif tok == "(":
                stack.append((_CLOSE,))
                stack.append((_SEQ, []))
                pos += 1
                continue
            elif tok[:1].isalpha() and tok not in KEYWORDS:
                raise _missing(text, pos + 1, ":=")
            else:
                raise _fail(text, pos, "expected command", _COMMAND)
        else:
            leaf = leaves.get(tok)
            if leaf is None:
                leaf = leaves[tok] = _leaf(text, pos, tok)
            if want == _TERM:
                if leaf:
                    val = leaf
                    pos += 1
                elif tok == "(":
                    stack.append((_CLOSE,))
                    stack.append([_TERMS, None])
                    pos += 1
                    continue
                else:
                    raise _fail(text, pos, "expected arithmetic expression", _ARITH)
            elif leaf:
                right = leaves.get(toks[pos + 2]) if toks[pos + 1] == "<" else None
                if right and toks[pos + 3] != "+":
                    val = Less(leaf, right)
                    pos += 3
                else:
                    stack.append((_CMP,))
                    stack.append([_TERMS, None])
                    val = leaf
                    pos += 1
            elif tok == "!":
                stack.append((_NOT,))
                pos += 1
                continue
            elif tok == "true" or tok == "false":
                val = _TRUE if tok == "true" else _FALSE
                pos += 1
            elif tok == "(":
                stack.append((_OPEN,))
                pos += 1
                continue
            else:
                raise _fail(text, pos, "expected boolean expression", _BOOL)

        # Hand `val` to the frames, until one needs more input.
        while stack:
            frame = stack[-1]
            kind = frame[0]
            if kind == _SEQ:
                if toks[pos] == ";":
                    frame[1].append(val)
                    pos += 1
                    want = _ATOM
                    break
                stack.pop()
                atoms = frame[1]
                while atoms:
                    val = Seq(atoms.pop(), val)
            elif kind == _PARTS:
                keys, parts = frame[1], frame[3]
                parts.append(val)
                key = keys[len(parts) - 1]
                if toks[pos] != key:
                    raise _missing(text, pos, key)
                pos += 1
                if len(parts) < len(keys):
                    stack.append((_SEQ, []))
                    want = _ATOM
                    break
                stack.pop()
                val = frame[2](*parts)
            elif kind == _CONJ:
                parts = frame[1]
                if toks[pos] == "&&":
                    parts.append(val)
                    pos += 1
                    want = _BCONJ
                    break
                stack.pop()
                while parts:
                    val = And(parts.pop(), val)
            elif kind == _TERMS:
                left = val if frame[1] is None else Plus(frame[1], val)
                while toks[pos] == "+" and (leaf := leaves.get(toks[pos + 1])):
                    left = Plus(left, leaf)
                    pos += 2
                if toks[pos] == "+":
                    frame[1] = left
                    pos += 1
                    want = _TERM
                    break
                stack.pop()
                val = left
            elif kind == _PAIR:
                stack.pop()
                val = frame[1](frame[2], val)
            elif kind == _OPEN and toks[pos] == "&&":
                # The group is a conjunction: the rest of it, then its ')'.
                stack[-1] = (_CLOSE,)
                stack.append((_CONJ, [val]))
                pos += 1
                want = _BCONJ
                break
            elif kind == _CLOSE or kind == _OPEN:
                if toks[pos] != ")":
                    raise _missing(text, pos, ")")
                stack.pop()
                pos += 1
            elif kind == _CMP:
                stack.pop()
                if toks[pos] == ")" and stack[-1][0] == _OPEN:
                    # A '(' group that ends as an aexp is the operand of a
                    # comparison outside it.
                    stack[-1] = (_CMP,)
                    stack.append([_TERMS, None])
                    pos += 1
                    continue
                if toks[pos] != "<":
                    raise _missing(text, pos, "<")
                stack.append((_PAIR, Less, val))
                stack.append([_TERMS, None])
                pos += 1
                want = _TERM
                break
            else:  # _NOT
                stack.pop()
                val = Not(val)
        else:
            if toks[pos]:
                raise _fail(text, pos, f"unexpected input after complete phrase: {toks[pos]!r}", ("end of input",))
            return val


def parse_com(text: str) -> Com:
    """Parse a complete command; raises ParseError on any violation."""
    return _parse(text, _ATOM, (_SEQ, []))


def parse_aexp(text: str) -> Aexp:
    """Parse a complete arithmetic expression."""
    return _parse(text, _TERM, [_TERMS, None])


def parse_bexp(text: str) -> Bexp:
    """Parse a complete boolean expression."""
    return _parse(text, _BCONJ, (_CONJ, []))
