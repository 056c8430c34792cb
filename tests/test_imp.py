"""Syntax, store, and expression-semantics unit tests."""

import enum
import itertools
import re

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
    Store,
    V,
    While,
    aval,
    bval,
    pretty,
    size,
)
from clockwork.parser import parse_com
from clockwork.testkit import GenConfig, SplitMix64, gen_com


def test_aval_literal():
    assert aval(N(5), Store()) == 5
    assert aval(N(-7), Store({"x": 1})) == -7


def test_aval_lookup():
    assert aval(V("x"), Store({"x": 3})) == 3


def test_aval_default_zero():
    assert aval(Plus(N(2), V("y")), Store()) == 2


def test_aval_plus_nested():
    s = Store({"x": 10, "y": -4})
    assert aval(Plus(Plus(V("x"), V("y")), N(1)), s) == 7


def test_aval_arbitrary_precision():
    big = 10**30
    s = Store({"x": big})
    assert aval(Plus(V("x"), V("x")), s) == 2 * big


def test_bval_cases():
    s = Store()
    assert bval(Bc(True), s) is True
    assert bval(Not(Bc(True)), s) is False
    assert bval(Less(N(1), N(2)), s) is True
    assert bval(Less(N(2), N(2)), s) is False
    assert bval(And(Bc(True), Bc(False)), s) is False
    assert bval(And(Bc(True), Not(Bc(False))), s) is True


def test_expression_purity():
    s = Store({"x": 2})
    e = Plus(V("x"), N(3))
    before = s.to_dict()
    assert aval(e, s) == aval(e, s) == 5
    assert bval(Less(e, N(99)), s) is bval(Less(e, N(99)), s) is True
    assert s.to_dict() == before


# --- size ---


def test_size_examples():
    assert size(Skip()) == 1
    assert size(Seq(Skip(), Skip())) == 3
    assert size(While(Bc(True), Skip())) == 2


def test_size_ignores_expressions():
    fat_guard = And(Less(Plus(V("x"), N(1)), N(9)), Bc(True))
    assert size(Set("x", Plus(Plus(N(1), N(2)), N(3)))) == 1
    assert size(If(fat_guard, Skip(), Skip())) == 3
    assert size(While(fat_guard, Seq(Skip(), Skip()))) == 4


def _proper_subcommands(c):
    cls = type(c)
    if cls is Seq:
        kids = (c.first, c.second)
    elif cls is If:
        kids = (c.then_branch, c.else_branch)
    elif cls is While:
        kids = (c.body,)
    else:
        kids = ()
    for kid in kids:
        yield kid
        yield from _proper_subcommands(kid)


def test_size_strictly_monotone_on_generated_programs():
    for seed in range(200):
        c = gen_com(GenConfig(seed=seed), 12)
        n = size(c)
        assert 1 <= n <= 12
        for sub in _proper_subcommands(c):
            assert size(sub) < n


# --- stores ---


def test_store_update_lookup():
    s = Store()
    s2 = s.set("x", 5)
    assert s2.get("x") == 5
    assert s2.get("y") == 0
    assert s.get("x") == 0  # original untouched


def test_store_default_and_zero_normalization():
    assert Store({"x": 0}) == Store()
    assert Store().set("x", 3).set("x", 0) == Store()
    assert Store({"x": 0}).to_dict() == {}


def test_store_extensional_equality_and_hash():
    a = Store({"x": 1, "y": 0})
    b = Store().set("y", 7).set("x", 1).set("y", 0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Store({"x": 2})


def test_store_update_order_independence():
    rng = SplitMix64(99)
    names = ["a", "b", "c", "d"]
    for _ in range(100):
        pairs = [(names[rng.below(4)], rng.randint(-5, 5)) for _ in range(6)]
        # Keep the last write per name, then apply in two different orders.
        last = {}
        for n, v in pairs:
            last[n] = v
        s1 = Store()
        for n, v in last.items():
            s1 = s1.set(n, v)
        s2 = Store()
        for n, v in reversed(list(last.items())):
            s2 = s2.set(n, v)
        assert s1 == s2


def test_store_validates_names_and_values():
    with pytest.raises(ValueError):
        Store({"9x": 1})
    with pytest.raises(ValueError):
        Store({"": 1})
    with pytest.raises(ValueError):
        Store({"x": True})


@pytest.mark.parametrize(
    "name, value",
    [("IF", 1), ("1x", 2), ("_x", 3), ("", 1), ("é", 0), ("x", True), ("x", False), ("x", 1.5), ("x", "1")],
)
def test_store_set_rejects_what_the_constructor_rejects(name, value):
    with pytest.raises(ValueError):
        Store({name: value})
    for receiver in (Store(), Store({"x": 4, "y": 1})):
        with pytest.raises(ValueError):
            receiver.set(name, value)


class _Count(int):
    pass


class _Colour(enum.IntEnum):
    NONE = 0
    RED = 1


@pytest.mark.parametrize("value", [_Count(3), _Count(-2), _Colour.RED])
def test_store_set_accepts_an_int_subclass_as_the_constructor_does(value):
    # `set` takes a plain int on a fast path; a subclass takes the general rule.
    for receiver in (Store(), Store({"x": 4}), Store({"y": 1})):
        assert receiver.set("x", value) == Store(dict(receiver.to_dict(), x=value))


@pytest.mark.parametrize("zero", [0, _Count(0), _Colour.NONE])
def test_store_set_never_stores_a_zero(zero):
    for receiver in (Store(), Store({"x": 4}), Store({"x": 4, "y": -1})):
        s = receiver.set("x", zero)
        assert 0 not in s.to_dict().values()
        assert s == Store(dict(receiver.to_dict(), x=zero))


def test_store_set_updates_a_bound_name():
    s = Store({"x": 4})
    assert s.set("x", -2) == Store({"x": -2})
    assert s.set("x", 0).set("y", 1) == Store({"y": 1})


@pytest.mark.parametrize(
    "make, value",
    [(N, True), (N, False), (N, 1.5), (N, "3"), (N, None), (Bc, 1), (Bc, 0), (Bc, "true"), (Bc, None)],
)
def test_literals_take_only_their_own_type(make, value):
    # N(True) would print as `x := True`, which parses as the variable True;
    # N(1.5) would print as text that does not parse at all
    with pytest.raises(ValueError):
        make(value)


@pytest.mark.parametrize("value", [0, -1, 7, -(10**30)])
def test_literal_edges_round_trip(value):
    c = While(Not(Bc(value > 0)), Set("x", Plus(N(value), V("x"))))
    assert parse_com(pretty(c)) == c


def test_variable_name_validation_in_ast():
    with pytest.raises(ValueError):
        V("")
    with pytest.raises(ValueError):
        V("1abc")
    with pytest.raises(ValueError):
        Set("x y", N(1))
    V("x_1")  # fine
    with pytest.raises(ValueError, match="variable name is a keyword: 'IF'"):
        Set("IF", N(1))  # would print as `IF := 1`, which does not parse


def test_name_check_accepts_exactly_the_identifier_language():
    # reference: the regex the check replaced, minus the keywords
    pattern = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")
    keywords = {"SKIP", "IF", "THEN", "ELSE", "FI", "WHILE", "DO", "OD", "true", "false"}
    alphabet = "aZ0_é\n-"
    names = ["", "_x", "1x", "a\n", "²", "ab١", "Skip", "iF", "DOx", "True", "falsey"] + sorted(keywords)
    names += ["".join(p) for k in (1, 2, 3) for p in itertools.product(alphabet, repeat=k)]
    for name in names:
        valid = pattern.match(name) is not None and name not in keywords
        for make in (V, lambda n: Set(n, N(1)), lambda n: Store({n: 1})):
            if valid:
                make(name)
            else:
                with pytest.raises(ValueError):
                    make(name)
    for not_a_str in (None, 1, b"x"):
        with pytest.raises(ValueError):
            V(not_a_str)


# --- pretty ---


def test_pretty_examples():
    assert pretty(Skip()) == "SKIP"
    assert pretty(Set("x", N(1))) == "x := 1"
    assert pretty(Seq(Set("x", N(1)), Skip())) == "x := 1 ; SKIP"


def test_pretty_structures():
    assert pretty(Seq(Seq(Skip(), Skip()), Skip())) == "(SKIP ; SKIP) ; SKIP"
    assert pretty(Seq(Skip(), Seq(Skip(), Skip()))) == "SKIP ; SKIP ; SKIP"
    assert (
        pretty(If(Less(V("x"), N(3)), Skip(), Set("y", N(-2))))
        == "IF x < 3 THEN SKIP ELSE y := -2 FI"
    )
    assert pretty(While(Bc(True), Skip())) == "WHILE true DO SKIP OD"
    assert pretty(Set("x", Plus(Plus(N(1), N(2)), V("x")))) == "x := 1 + 2 + x"
    assert pretty(Set("x", Plus(N(1), Plus(N(2), V("x"))))) == "x := 1 + (2 + x)"


DEEP = 10_000  # ten times the default recursion limit


def _nest(bottom, wrap, depth=DEEP):
    for _ in range(depth):
        bottom = wrap(bottom)
    return bottom


# (10,000-deep command, its text)
DEEP_COMMANDS = {
    "if": (
        _nest(Skip(), lambda t: If(Bc(True), t, Skip())),
        "IF true THEN " * DEEP + "SKIP" + " ELSE SKIP FI" * DEEP,
    ),
    "while": (_nest(Skip(), lambda t: While(Less(V("x"), N(1)), t)), "WHILE x < 1 DO " * DEEP + "SKIP" + " OD" * DEEP),
    "seq-left": (
        _nest(Skip(), lambda t: Seq(t, Skip())),
        "(" * (DEEP - 1) + "SKIP" + " ; SKIP)" * (DEEP - 1) + " ; SKIP",
    ),
    "seq-right": (_nest(Skip(), lambda t: Seq(Skip(), t)), "SKIP ; " * DEEP + "SKIP"),
}


@pytest.mark.parametrize("shape", DEEP_COMMANDS)
def test_pretty_prints_deep_commands_without_recursion(shape):
    com, text = DEEP_COMMANDS[shape]
    assert pretty(com) == text
    assert parse_com(text) == com
