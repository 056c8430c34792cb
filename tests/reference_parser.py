"""The recursive-descent parser that `clockwork.parser` replaced, kept as
the reference for the differential tests, the way `reference_smallstep` is
for the refocusing walks.

`_Parser` and `_lex` are kept as they were; only the AST, `ParseError` and
`_error_at` come from the package.  It recurses once per nesting level, so
it raises RecursionError on deep input: compare it only on shallow input.
"""

from __future__ import annotations

import itertools
import re

from clockwork.imp import KEYWORDS, Aexp, And, Bc, Bexp, Com, If, Less, N, Not, Plus, Seq, Set, Skip, V, While
from clockwork.parser import ParseError, _error_at


# One match per token: whitespace and comments, then the token's text in
# group 1.  At a character that starts no token, group 2 takes the rest of
# the input, which ends the scan; at the end of the input both groups are
# empty.  The three alternatives cannot all fail, so a match never
# backtracks into the whitespace, and each match starts where the previous
# one ended: findall skips no character.  The classes are ASCII-only.
_LEX = re.compile(
    r"(?:[ \t\r\n]+|--[^\n]*)*"
    r"(?:([A-Za-z][A-Za-z0-9_]*|-?[0-9]+|:=|&&|[;+<!()])|([\s\S]+)|\Z)"
)
_INT_START = frozenset("-0123456789")


def _lex(text: str) -> list[tuple[str, str]]:
    """The (text, "") token tuples of `text`, ending with ("", "") for end of input.

    Raises ParseError at the first character that starts no token.
    """
    tokens = _LEX.findall(text)
    if len(tokens) > 1 and tokens[-2][1]:
        rest = tokens[-2][1]
        raise _error_at(text, len(text) - len(rest), f"unexpected character {rest[0]!r}")
    return tokens


def _token_offset(text: str, index: int) -> int:
    """Character offset of token `index` of `_lex(text)`, found by scanning again."""
    m = next(itertools.islice(_LEX.finditer(text), index, None))
    return m.start(1) if m.group(1) else m.end()


def _is_ident(tok: str) -> bool:
    return tok[:1].isalpha() and tok not in KEYWORDS


class _Parser:
    """Recursive descent over the token texts."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    @property
    def cur(self) -> str:
        return self.tokens[self.pos][0]

    def _error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        """A ParseError at the current token."""
        return _error_at(self.text, _token_offset(self.text, self.pos), message, expected)

    def at(self, text: str) -> bool:
        """Whether the current token is the symbol or keyword `text`."""
        return self.tokens[self.pos][0] == text

    def expect_sym(self, sym: str) -> None:
        if not self.at(sym):
            raise self._error(f"expected {sym!r}", (f"'{sym}'",))
        self.pos += 1

    def expect_kw(self, kw: str) -> None:
        if not self.at(kw):
            raise self._error(f"expected keyword {kw}", (kw,))
        self.pos += 1

    def expect_eof(self) -> None:
        if self.cur:
            raise self._error(f"unexpected input after complete phrase: {self.cur!r}", ("end of input",))

    # --- arithmetic expressions ---

    def aexp(self) -> Aexp:
        node = self.term()
        while self.at("+"):
            self.pos += 1
            node = Plus(node, self.term())
        return node

    def term(self) -> Aexp:
        tok = self.cur
        if tok[:1] in _INT_START:
            try:
                value = int(tok)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise self._error(f"integer literal too long ({len(tok.lstrip('-'))} digits)") from None
            self.pos += 1
            return N(value)
        if _is_ident(tok):
            self.pos += 1
            return V(tok)
        if tok == "(":
            self.pos += 1
            node = self.aexp()
            self.expect_sym(")")
            return node
        raise self._error(
            "expected arithmetic expression",
            ("integer literal", "identifier", "'('"),
        )

    # --- boolean expressions ---

    def bexp(self) -> Bexp:
        node = self.bconj()
        if self.at("&&"):
            self.pos += 1
            return And(node, self.bexp())
        return node

    def bconj(self, group: bool = False) -> Aexp | Bexp:
        """A bconj, or with `group` the contents of a '(' that may be an aexp.

        An Aexp comes back only with `group`, and then the current token
        is the ')' that closes it.
        """
        tok = self.cur
        if tok == "!":
            self.pos += 1
            return Not(self.bconj())
        if tok == "true":
            self.pos += 1
            return Bc(True)
        if tok == "false":
            self.pos += 1
            return Bc(False)
        if tok == "(":
            self.pos += 1
            left = self.bconj(group=True)
            if isinstance(left, Bexp):
                if self.at("&&"):
                    self.pos += 1
                    left = And(left, self.bexp())
                self.expect_sym(")")
                return left
            self.pos += 1  # the ')' after an aexp: the group is a term
        elif tok[:1] in _INT_START or _is_ident(tok):
            left = self.term()
        else:
            raise self._error(
                "expected boolean expression",
                ("'!'", "true", "false", "comparison", "'('"),
            )
        while self.at("+"):
            self.pos += 1
            left = Plus(left, self.term())
        if group and self.at(")"):
            return left
        self.expect_sym("<")
        return Less(left, self.aexp())

    # --- commands ---

    def com(self) -> Com:
        # seq ::= atom (";" seq)?, read as a loop and folded from the right,
        # so a long chain of ';' needs no recursion.
        atoms = [self.atom()]
        while self.at(";"):
            self.pos += 1
            atoms.append(self.atom())
        node = atoms.pop()
        while atoms:
            node = Seq(atoms.pop(), node)
        return node

    def atom(self) -> Com:
        tok = self.cur
        if tok == "SKIP":
            self.pos += 1
            return Skip()
        if _is_ident(tok):
            self.pos += 1
            self.expect_sym(":=")
            return Set(tok, self.aexp())
        if tok == "IF":
            self.pos += 1
            guard = self.bexp()
            self.expect_kw("THEN")
            then_branch = self.com()
            self.expect_kw("ELSE")
            else_branch = self.com()
            self.expect_kw("FI")
            return If(guard, then_branch, else_branch)
        if tok == "WHILE":
            self.pos += 1
            guard = self.bexp()
            self.expect_kw("DO")
            body = self.com()
            self.expect_kw("OD")
            return While(guard, body)
        if tok == "(":
            self.pos += 1
            node = self.com()
            self.expect_sym(")")
            return node
        raise self._error(
            "expected command",
            ("SKIP", "assignment", "IF", "WHILE", "'('"),
        )


def _parse(text: str, rule):
    p = _Parser(text)
    node = rule(p)
    p.expect_eof()
    return node


def parse_com(text: str) -> Com:
    """Parse a complete command; raises ParseError on any violation."""
    return _parse(text, _Parser.com)


def parse_aexp(text: str) -> Aexp:
    """Parse a complete arithmetic expression."""
    return _parse(text, _Parser.aexp)


def parse_bexp(text: str) -> Bexp:
    """Parse a complete boolean expression."""
    return _parse(text, _Parser.bexp)
