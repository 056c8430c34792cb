"""Abstract syntax, stores, and expression semantics for the While language.

The language has three syntactic categories: arithmetic expressions
(integer literals, variables, addition), boolean expressions (constants,
negation, conjunction, less-than), and commands (SKIP, assignment,
sequencing, conditional, while-loop).  All nodes are immutable; stores
are total maps from variable names to integers with a default of 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union


KEYWORDS = frozenset({"SKIP", "IF", "THEN", "ELSE", "FI", "WHILE", "DO", "OD", "true", "false"})


def _check_name(name: str) -> None:
    """Names match [a-zA-Z][a-zA-Z0-9_]*: ASCII identifiers not starting with
    '_', and not a keyword, so that `pretty` prints text `parse_com` reads back."""
    if not (isinstance(name, str) and name.isascii() and name.isidentifier() and name[0] != "_"):
        raise ValueError(f"invalid variable name: {name!r}")
    if name in KEYWORDS:
        raise ValueError(f"variable name is a keyword: {name!r}")


def _is_int(value: object) -> bool:
    """Literals and store values are Python ints, but not bools."""
    return isinstance(value, int) and not isinstance(value, bool)


# --------------------------------------------------------------------------
# Arithmetic expressions


@dataclass(frozen=True, slots=True)
class N:
    """Integer literal."""

    value: int

    def __post_init__(self) -> None:
        if not _is_int(self.value):
            raise ValueError(f"integer literal must be an int: {self.value!r}")


@dataclass(frozen=True, slots=True)
class V:
    """Variable reference."""

    name: str

    def __post_init__(self) -> None:
        _check_name(self.name)


@dataclass(frozen=True, slots=True)
class Plus:
    left: "Aexp"
    right: "Aexp"


Aexp = Union[N, V, Plus]


# --------------------------------------------------------------------------
# Boolean expressions


@dataclass(frozen=True, slots=True)
class Bc:
    """Boolean constant."""

    value: bool

    def __post_init__(self) -> None:
        if not isinstance(self.value, bool):
            raise ValueError(f"boolean constant must be a bool: {self.value!r}")


@dataclass(frozen=True, slots=True)
class Not:
    arg: "Bexp"


@dataclass(frozen=True, slots=True)
class And:
    left: "Bexp"
    right: "Bexp"


@dataclass(frozen=True, slots=True)
class Less:
    left: Aexp
    right: Aexp


Bexp = Union[Bc, Not, And, Less]


# --------------------------------------------------------------------------
# Commands


@dataclass(frozen=True, slots=True)
class Skip:
    pass


@dataclass(frozen=True, slots=True)
class Set:
    """Assignment `var := expr`."""

    var: str
    expr: Aexp

    def __post_init__(self) -> None:
        _check_name(self.var)


@dataclass(frozen=True, slots=True)
class Seq:
    first: "Com"
    second: "Com"


@dataclass(frozen=True, slots=True)
class If:
    guard: Bexp
    then_branch: "Com"
    else_branch: "Com"


@dataclass(frozen=True, slots=True)
class While:
    guard: Bexp
    body: "Com"


Com = Union[Skip, Set, Seq, If, While]


# --------------------------------------------------------------------------
# Stores


class Store:
    """Total mapping from variable names to integers, default 0.

    No binding is zero: ``_wrap``, which the constructor and the
    evaluators go through, drops zero bindings, and ``set`` never makes
    one.  So two stores compare equal exactly when they agree on every
    name (a bound ``x = 0`` is indistinguishable from an unbound ``x``).
    Instances are immutable; ``set`` returns a new store.
    """

    __slots__ = ("_m",)

    def __init__(self, bindings: Mapping[str, int] | None = None) -> None:
        m = dict(bindings) if bindings else {}
        for name, value in m.items():
            _check_name(name)
            if not _is_int(value):
                raise ValueError(f"store value for {name!r} must be an int")
        self._m = self._wrap(m)._m

    @classmethod
    def _wrap(cls, m: dict[str, int]) -> "Store":
        """The trusted constructor: adopts `m`, unchecked and uncopied, without
        its zero bindings."""
        if 0 in m.values():
            m = {k: v for k, v in m.items() if v}
        obj = object.__new__(cls)
        obj._m = m
        return obj

    def get(self, name: str, default: int = 0) -> int:
        return self._m.get(name, default)

    def set(self, name: str, value: int) -> "Store":
        """Functional update; the receiver is unchanged.

        Takes the names and values the constructor takes.  A bound name was
        checked on its way in, so only an unbound one is checked here.
        """
        if type(value) is not int and not _is_int(value):
            raise ValueError(f"store value for {name!r} must be an int")
        m = self._m
        if name not in m:
            _check_name(name)
        m = m.copy()
        if value:
            m[name] = value
        else:
            m.pop(name, None)
        new = object.__new__(Store)
        new._m = m
        return new

    def to_dict(self) -> dict[str, int]:
        """Nonzero bindings as a plain dict (sorted by name)."""
        return {k: self._m[k] for k in sorted(self._m)}

    def names(self) -> Iterator[str]:
        return iter(sorted(self._m))

    def pretty(self) -> str:
        inner = ", ".join(f"{k}: {self._m[k]}" for k in sorted(self._m))
        return "{" + inner + "}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        return self._m == other._m

    def __hash__(self) -> int:
        return hash(frozenset(self._m.items()))

    def __repr__(self) -> str:
        return f"Store({self._m!r})"


_INT_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def _check_int(value: object, what: str, minimum: int | None = None) -> None:
    """The one rule for integer arguments: a non-bool int, at least `minimum`
    (0 or 1) when one is given; otherwise a ValueError naming `what`."""
    if not isinstance(value, int) or isinstance(value, bool) or (minimum is not None and value < minimum):
        raise ValueError(f"{what} must be {_INT_KINDS[minimum]}, got {value!r}")


def _check_fuel(t: int) -> None:
    _check_int(t, "fuel", 0)


# --------------------------------------------------------------------------
# Expression evaluation


def aval(a: Aexp, s: Store | dict[str, int]) -> int:
    """Value of an arithmetic expression in store `s`. Total.

    `s` may also be a plain dict of bindings, which is what the clocked
    evaluators and the refocusing oracle (`smallstep.run_oracle_stats`)
    pass while they run.  '+' associates to the left, so a sum walks its
    left spine in a loop and reads each N or V operand in place; only an
    operand that is itself a sum, such as a parenthesised one, recurses.
    A parsed '+' chain of any length therefore needs no recursion.
    """
    cls = type(a)
    if cls is N:
        return a.value
    if cls is V:
        return s.get(a.name, 0)
    if cls is not Plus:
        raise TypeError(f"not an arithmetic expression: {a!r}")
    total = 0
    while cls is Plus:
        r = a.right
        cls = type(r)
        if cls is N:
            total += r.value
        elif cls is V:
            total += s.get(r.name, 0)
        else:
            total += aval(r, s)
        a = a.left
        cls = type(a)
    if cls is N:
        return a.value + total
    if cls is V:
        return s.get(a.name, 0) + total
    return aval(a, s) + total


def bval(b: Bexp, s: Store | dict[str, int]) -> bool:
    """Value of a boolean expression in store `s` (see `aval`). Total.

    `<`, the commonest guard, is tested first and reads N and V operands
    in place.  A '!' spine is walked in a loop that keeps its parity, and
    the right spine of '&&' in a loop that still short-circuits from left
    to right, so chains of either of any length need no recursion.
    """
    cls = type(b)
    if cls is Less:
        left = b.left
        cls = type(left)
        if cls is V:
            x = s.get(left.name, 0)
        elif cls is N:
            x = left.value
        else:
            x = aval(left, s)
        right = b.right
        cls = type(right)
        if cls is N:
            return x < right.value
        if cls is V:
            return x < s.get(right.name, 0)
        return x < aval(right, s)
    if cls is Bc:
        return b.value
    if cls is Not:
        negate = False
        while cls is Not:
            negate = not negate
            b = b.arg
            cls = type(b)
        return bval(b, s) is not negate
    if cls is And:
        while cls is And:
            if not bval(b.left, s):
                return False
            b = b.right
            cls = type(b)
        return bval(b, s)
    raise TypeError(f"not a boolean expression: {b!r}")


def size(c: Com) -> int:
    """Command-node count of `c`.

    Only command nodes are counted; guards and assigned expressions
    contribute nothing.  Every proper sub-command therefore has a
    strictly smaller size.
    """
    total = 0
    todo = [c]
    while todo:
        node = todo.pop()
        total += 1
        cls = type(node)
        if cls is Seq:
            todo.append(node.first)
            todo.append(node.second)
        elif cls is If:
            todo.append(node.then_branch)
            todo.append(node.else_branch)
        elif cls is While:
            todo.append(node.body)
        elif cls is not Skip and cls is not Set:
            raise TypeError(f"not a command: {node!r}")
    return total


# --------------------------------------------------------------------------
# Pretty-printing (inverse of the parser; see clockwork.parser for the grammar)


def pretty_aexp(a: Aexp) -> str:
    cls = type(a)
    if cls is N:
        return str(a.value)
    if cls is V:
        return a.name
    # '+' associates to the left, so only the right operand needs parens.
    if type(a.left) is not Plus:
        return f"{pretty_aexp(a.left)} + {_aexp_term(a.right)}"
    # Iterate down a longer left spine, so a long '+' chain needs no recursion.
    terms = []
    while type(a) is Plus:
        terms.append(_aexp_term(a.right))
        a = a.left
    terms.append(pretty_aexp(a))
    return " + ".join(reversed(terms))


def _aexp_term(a: Aexp) -> str:
    if type(a) is Plus:
        return f"({pretty_aexp(a)})"
    return pretty_aexp(a)


def pretty_bexp(b: Bexp) -> str:
    # '&&' associates to the right: iterate down the right spine, so a long
    # '&&' chain needs no recursion.
    conjuncts = []
    while type(b) is And:
        conjuncts.append(_bexp_conj(b.left))
        b = b.right
    conjuncts.append(_bexp_conj(b))
    return " && ".join(conjuncts)


def _bexp_conj(b: Bexp) -> str:
    # Iterate down the '!' spine, so a '!' chain of any length needs no recursion.
    nots = 0
    while type(b) is Not:
        nots += 1
        b = b.arg
    cls = type(b)
    if cls is Bc:
        text = "true" if b.value else "false"
    elif cls is Less:
        text = f"{pretty_aexp(b.left)} < {pretty_aexp(b.right)}"
    else:
        text = f"({pretty_bexp(b)})"
    return "! " * nots + text


def seq_brackets(first: Com) -> tuple[str, str]:
    """The text around `first` as the left operand of ';'.

    ';' associates to the right, so a Seq on the left needs parens.
    """
    return ("(", ")") if type(first) is Seq else ("", "")


def pretty(c: Com) -> str:
    """Concrete syntax for a command; `parse_com(pretty(c)) == c`."""
    cls = type(c)
    if cls is Skip:
        return "SKIP"
    if cls is Set:
        return f"{c.var} := {pretty_aexp(c.expr)}"
    if cls is Seq:
        # Iterate down the right spine, so a long ';' chain needs no recursion.
        parts = []
        while type(c) is Seq:
            opening, closing = seq_brackets(c.first)
            parts.append(f"{opening}{pretty(c.first)}{closing}")
            c = c.second
        parts.append(pretty(c))
        return " ; ".join(parts)
    if cls is If:
        return (
            f"IF {pretty_bexp(c.guard)} THEN {pretty(c.then_branch)}"
            f" ELSE {pretty(c.else_branch)} FI"
        )
    if cls is While:
        return f"WHILE {pretty_bexp(c.guard)} DO {pretty(c.body)} OD"
    raise TypeError(f"not a command: {c!r}")
