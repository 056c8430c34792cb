"""Abstract syntax, stores, and expression semantics for the While language.

The language has three syntactic categories: arithmetic expressions
(integer literals, variables, addition), boolean expressions (constants,
negation, conjunction, less-than), and commands (SKIP, assignment,
sequencing, conditional, while-loop).  All nodes are immutable slotted
values on one base, ``_Frozen``, which the result and report records of
``smallstep`` and ``testkit`` share, and a tree of any depth compares,
hashes, prints with ``repr``, pickles, deep-copies and pretty-prints as
a command without recursion.  Stores are total maps from variable names
to integers with a default of 0.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union


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
# Immutable values

class _Frozen:
    """Base of the syntax nodes and of the result and report records.

    A subclass lists its fields, in constructor order, as
    ``__slots__ = __match_args__`` and fills them in its own ``__init__``
    through ``_setters``: the ``__set__`` of each field's slot descriptor,
    in field order, which ``__init_subclass__`` looks up once per class.
    They write the slot directly, past the raising ``__setattr__``.
    Instances cannot be changed.  ``==`` is structural and type-sensitive,
    ``hash`` agrees with it, and ``repr`` reads like a call of the
    constructor with keyword arguments.  ``==``, ``repr`` and the one
    flattening that ``hash``, ``pickle`` and ``copy.deepcopy`` read walk
    nested values of this base with an explicit stack, so a tree of any
    depth compares, hashes, prints and copies without recursion.  ``==``
    compares each pair of shared values once, so two values that share
    subtrees, such as a value and its pickled copy, compare in time
    linear in their distinct values, not in their paths.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _setters: tuple[Callable[[_Frozen, object], None], ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        # id(a) -> b for each pair (a, b) that pushed two or more pairs.  Only
        # those branch, so a shared subtree is compared once, not once per
        # path.  Both sides stay alive, so no id is reused meanwhile.
        branched: dict[int, _Frozen] = {}
        while todo:
            a, b = todo.pop()
            if branched.get(id(a)) is b:
                continue
            pushed = 0
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if x is y:
                    continue
                if type(x) is type(y) and isinstance(x, _Frozen):
                    todo.append((x, y))
                    pushed += 1
                elif not x == y:
                    return False
            if pushed > 1:
                branched[id(a)] = b
        return True

    def __hash__(self) -> int:
        # From each record's class, plain fields and nested values' hashes:
        # equal values hash alike however they share subtrees.
        hashes: list[int] = []
        for cls, fields, kids in self._records():
            hashes.append(hash((cls, fields, tuple([hashes[i] for i in kids]))))
        return hashes[-1]

    def __repr__(self) -> str:
        parts = []
        todo: list[object] = [self]  # values still to print, and text (str)
        while todo:
            x = todo.pop()
            if type(x) is str:
                parts.append(x)
                continue
            parts.append(f"{type(x).__qualname__}(")
            todo.append(")")
            names = x.__match_args__
            for i in range(len(names) - 1, -1, -1):
                v = getattr(x, names[i])
                todo.append(v if isinstance(v, _Frozen) else repr(v))
                todo.append(f", {names[i]}=" if i else f"{names[i]}=")
        return "".join(parts)

    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        # pickle and copy.deepcopy get one record per distinct value.
        return _rebuild, (self._records(),)

    def _records(self) -> list[tuple[type, tuple[object, ...], tuple[int, ...]]]:
        """One ``(class, fields, kids)`` record per distinct value, by
        identity, each after the records of its nested values and ``self``
        last.  In ``fields`` the class ``_Frozen`` stands for a nested
        value; ``kids`` holds their record indices, in field order."""
        index: dict[int, int] = {}  # id of a recorded value -> its record's index
        records = []
        todo = [self]
        while todo:
            x = todo[-1]
            if id(x) in index:
                todo.pop()
                continue
            fields = []
            kids = []
            for name in x.__match_args__:
                v = getattr(x, name)
                if isinstance(v, _Frozen):
                    kids.append(index.get(id(v)))
                    if kids[-1] is None:
                        todo.append(v)
                    v = _Frozen
                fields.append(v)
            if None not in kids:  # else x comes back after the values just pushed
                todo.pop()
                index[id(x)] = len(records)
                records.append((type(x), tuple(fields), tuple(kids)))
        return records


def _rebuild(records: list[tuple[type, tuple[object, ...], tuple[int, ...]]]) -> _Frozen:
    """The value that `_Frozen._records` flattened into `records`.

    Each record is built once, by its constructor, so its checks run and
    a value shared in the original is shared in the copy.
    """
    built: list[_Frozen] = []
    for cls, fields, kids in records:
        nested = iter([built[i] for i in kids])
        built.append(cls(*[next(nested) if v is _Frozen else v for v in fields]))
    return built[-1]


# --------------------------------------------------------------------------
# Arithmetic expressions


class N(_Frozen):
    """Integer literal."""

    __match_args__ = ("value",)
    __slots__ = __match_args__

    def __init__(self, value: int) -> None:
        if not _is_int(value):
            raise ValueError(f"integer literal must be an int: {value!r}")
        (set_value,) = self._setters
        set_value(self, value)


class V(_Frozen):
    """Variable reference."""

    __match_args__ = ("name",)
    __slots__ = __match_args__

    def __init__(self, name: str) -> None:
        _check_name(name)
        (set_name,) = self._setters
        set_name(self, name)


class Plus(_Frozen):
    __match_args__ = ("left", "right")
    __slots__ = __match_args__

    def __init__(self, left: Aexp, right: Aexp) -> None:
        set_left, set_right = self._setters
        set_left(self, left)
        set_right(self, right)


Aexp = Union[N, V, Plus]


# --------------------------------------------------------------------------
# Boolean expressions


class Bc(_Frozen):
    """Boolean constant."""

    __match_args__ = ("value",)
    __slots__ = __match_args__

    def __init__(self, value: bool) -> None:
        if not isinstance(value, bool):
            raise ValueError(f"boolean constant must be a bool: {value!r}")
        (set_value,) = self._setters
        set_value(self, value)


class Not(_Frozen):
    __match_args__ = ("arg",)
    __slots__ = __match_args__

    def __init__(self, arg: Bexp) -> None:
        (set_arg,) = self._setters
        set_arg(self, arg)


class And(_Frozen):
    __match_args__ = ("left", "right")
    __slots__ = __match_args__

    def __init__(self, left: Bexp, right: Bexp) -> None:
        set_left, set_right = self._setters
        set_left(self, left)
        set_right(self, right)


class Less(_Frozen):
    __match_args__ = ("left", "right")
    __slots__ = __match_args__

    def __init__(self, left: Aexp, right: Aexp) -> None:
        set_left, set_right = self._setters
        set_left(self, left)
        set_right(self, right)


Bexp = Union[Bc, Not, And, Less]


# --------------------------------------------------------------------------
# Commands


class Skip(_Frozen):
    __match_args__ = ()
    __slots__ = __match_args__


class Set(_Frozen):
    """Assignment `var := expr`."""

    __match_args__ = ("var", "expr")
    __slots__ = __match_args__

    def __init__(self, var: str, expr: Aexp) -> None:
        _check_name(var)
        set_var, set_expr = self._setters
        set_var(self, var)
        set_expr(self, expr)


class Seq(_Frozen):
    __match_args__ = ("first", "second")
    __slots__ = __match_args__

    def __init__(self, first: Com, second: Com) -> None:
        set_first, set_second = self._setters
        set_first(self, first)
        set_second(self, second)


class If(_Frozen):
    __match_args__ = ("guard", "then_branch", "else_branch")
    __slots__ = __match_args__

    def __init__(self, guard: Bexp, then_branch: Com, else_branch: Com) -> None:
        set_guard, set_then_branch, set_else_branch = self._setters
        set_guard(self, guard)
        set_then_branch(self, then_branch)
        set_else_branch(self, else_branch)


class While(_Frozen):
    __match_args__ = ("guard", "body")
    __slots__ = __match_args__

    def __init__(self, guard: Bexp, body: Com) -> None:
        set_guard, set_body = self._setters
        set_guard(self, guard)
        set_body(self, body)


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


def pretty(c: Com) -> str:
    """Concrete syntax for a command; `parse_com(pretty(c)) == c`.

    The commands still to print wait on an explicit stack, so nested IF
    and WHILE and ';' nested either way print at any depth.
    """
    parts = []
    todo = []  # per pending command: the text before it, and the command (None: text only)
    while True:
        cls = type(c)
        if cls is Seq:
            first = c.first
            # ';' associates to the right, so a Seq on the left needs parens.
            if type(first) is Seq:
                parts.append("(")
                todo.append((") ; ", c.second))
            else:
                todo.append((" ; ", c.second))
            c = first
            continue
        if cls is If:
            parts.append(f"IF {pretty_bexp(c.guard)} THEN ")
            todo.append((" FI", None))
            todo.append((" ELSE ", c.else_branch))
            c = c.then_branch
            continue
        if cls is While:
            parts.append(f"WHILE {pretty_bexp(c.guard)} DO ")
            todo.append((" OD", None))
            c = c.body
            continue
        if cls is Set:
            parts.append(f"{c.var} := {pretty_aexp(c.expr)}")
        elif cls is Skip:
            parts.append("SKIP")
        else:
            raise TypeError(f"not a command: {c!r}")
        while todo:
            text, c = todo.pop()
            parts.append(text)
            if c is not None:
                break
        else:
            return "".join(parts)
