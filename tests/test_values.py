"""The immutable value classes: the twelve syntax nodes, the five records
of the package and the reference step relation's `Config`.

These pin what callers rely on: `repr` text (by digest), structural and
type-sensitive equality with a matching hash, immutability, field order
in `__match_args__` (which the shrinker reads), and pickle and deepcopy
round trips, at any depth, keeping shared values shared.
"""

import copy
import hashlib
import pickle
import sys

import pytest
from reference_smallstep import Config

from clockwork.imp import And, Bc, If, Less, N, Not, Plus, Seq, Set, Skip, Store, V, While, _Frozen
from clockwork.smallstep import StepLimit, Terminated
from clockwork.testkit import Failure, GenConfig, PropertyReport, gen_com

FAILURE = Failure(
    case_index=3,
    seed=42,
    inputs={"c": Set("x", N(1)), "s": Store({"x": 1}), "t": 5},
    expected="final {'x': 1}",
    actual="timeout",
    shrunk={"t": 0},
)

# One example of each class, with the field names in declaration order.
EXAMPLES = [
    (N(-3), ("value",)),
    (V("x"), ("name",)),
    (Plus(V("x"), N(1)), ("left", "right")),
    (Bc(False), ("value",)),
    (Not(Bc(True)), ("arg",)),
    (And(Bc(True), Less(V("y"), N(0))), ("left", "right")),
    (Less(N(1), Plus(V("y"), V("z"))), ("left", "right")),
    (Skip(), ()),
    (Set("x", Plus(V("x"), N(2))), ("var", "expr")),
    (Seq(Skip(), Set("y", N(4))), ("first", "second")),
    (If(Bc(True), Skip(), Set("x", N(0))), ("guard", "then_branch", "else_branch")),
    (While(Less(V("i"), N(3)), Set("i", Plus(V("i"), N(1)))), ("guard", "body")),
    (Config(Seq(Set("x", Plus(V("x"), N(1))), Skip()), Store({"x": 2})), ("com", "store")),
    (Terminated(Store({"y": -3}), 7), ("store", "steps")),
    (StepLimit(50), ("cap",)),
    (GenConfig(seed=42), ("seed",)),
    (FAILURE, ("case_index", "seed", "inputs", "expected", "actual", "shrunk")),
    (
        PropertyReport("P1", 10, [FAILURE], 3, skipped=1, details={"premise": 9}),
        ("property_id", "cases_run", "failures", "elapsed_ms", "skipped", "details"),
    ),
]
VALUES = [value for value, _ in EXAMPLES]
IDS = [type(value).__name__ for value in VALUES]

# sha256 of the repr lines of gen_com(GenConfig(seed=i), 1 + i % 14), i < 20,000,
# then of the examples above and of a Failure and a PropertyReport left at
# their defaults.
REPR_DIGEST = "eed06240fcee6105f049ec9bbbb78807a4a3472ad995de4b553568ffd37adc36"


def test_repr_is_pinned():
    h = hashlib.sha256()
    for i in range(20_000):
        h.update(repr(gen_com(GenConfig(seed=i), 1 + i % 14)).encode() + b"\n")
    defaults = [Failure(0, 1, {}, "e", "a"), PropertyReport("RT", 0, [], 0)]
    for value in VALUES + defaults:
        h.update(repr(value).encode() + b"\n")
    assert h.hexdigest() == REPR_DIGEST


def test_repr_text():
    assert repr(Skip()) == "Skip()"
    assert repr(Set("x", Plus(V("x"), N(-1)))) == "Set(var='x', expr=Plus(left=V(name='x'), right=N(value=-1)))"
    assert repr(StepLimit(5)) == "StepLimit(cap=5)"


@pytest.mark.parametrize("value,fields", EXAMPLES, ids=IDS)
def test_match_args_give_the_field_order(value, fields):
    assert type(value).__match_args__ == fields


@pytest.mark.parametrize("value,fields", EXAMPLES, ids=IDS)
def test_keyword_construction_equals_positional(value, fields):
    args = [getattr(value, name) for name in fields]
    assert type(value)(**dict(zip(fields, args))) == type(value)(*args) == value


def test_equality_is_structural_and_type_sensitive():
    assert Plus(N(1), N(2)) == Plus(N(1), N(2))
    assert Plus(N(1), N(2)) != Less(N(1), N(2))
    assert And(Bc(True), Bc(False)) != And(Bc(False), Bc(True))
    assert Seq(Skip(), Set("x", N(1))) != Seq(Skip(), Set("x", N(2)))
    assert N(1) != (1,) and N(1) != 1 and Skip() != None  # noqa: E711
    assert N(1).__eq__(1) is NotImplemented
    assert StepLimit(3) != GenConfig(3)


def test_equal_values_hash_equal():
    for i in range(200):
        a, b = gen_com(GenConfig(seed=i), 12), gen_com(GenConfig(seed=i), 12)
        assert a is not b and a == b and hash(a) == hash(b)
    assert hash(Config(Skip(), Store({"x": 1}))) == hash(Config(Skip(), Store({"x": 1})))
    assert len({Plus(N(1), N(2)), Plus(N(1), N(2)), Less(N(1), N(2))}) == 2


@pytest.mark.parametrize("value,fields", EXAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        getattr(value, name)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value and repr(copied) == repr(value)


def test_other_attributes_cannot_be_set_either():
    for value in VALUES:
        with pytest.raises(AttributeError):
            value.other = None
        with pytest.raises(AttributeError):
            del value.other


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_class_on_the_base_has_an_example():
    assert set(_subclasses(_Frozen)) == {type(value) for value in VALUES}


@pytest.mark.parametrize("value,fields", EXAMPLES, ids=IDS)
def test_constructors_fill_slots_through_their_descriptors(value, fields):
    cls = type(value)
    assert [setter.__self__ for setter in cls._setters] == [cls.__dict__[name] for name in fields]
    with pytest.raises(TypeError):
        cls(*[getattr(value, name) for name in fields], None)


# (constructor, arguments, the ValueError's message)
BAD_ARGUMENTS = [
    (N, (True,), "integer literal must be an int: True"),
    (N, (1.0,), "integer literal must be an int: 1.0"),
    (N, ("1",), "integer literal must be an int: '1'"),
    (V, ("1x",), "invalid variable name: '1x'"),
    (V, ("_x",), "invalid variable name: '_x'"),
    (V, ("é",), "invalid variable name: 'é'"),
    (V, (3,), "invalid variable name: 3"),
    (V, ("WHILE",), "variable name is a keyword: 'WHILE'"),
    (Bc, (1,), "boolean constant must be a bool: 1"),
    (Bc, (None,), "boolean constant must be a bool: None"),
    (Set, ("x y", N(1)), "invalid variable name: 'x y'"),
    (Set, ("true", N(1)), "variable name is a keyword: 'true'"),
    (GenConfig, (True,), "seed must be an integer, got True"),
    (GenConfig, ("42",), "seed must be an integer, got '42'"),
]


@pytest.mark.parametrize("cls,args,message", BAD_ARGUMENTS, ids=[f"{cls.__name__}{args!r}" for cls, args, _ in BAD_ARGUMENTS])
def test_constructors_reject_bad_arguments(cls, args, message):
    with pytest.raises(ValueError) as exc:
        cls(*args)
    assert str(exc.value) == message


# --------------------------------------------------------------------------
# Trees far deeper than the recursion limit

DEEP = 10_000
X_LT_1 = Less(V("x"), N(1))


def _nest(bottom, wrap, depth=DEEP):
    for _ in range(depth):
        bottom = wrap(bottom)
    return bottom


# (tree builder from its bottom node, repr text before and after the bottom's)
DEEP_SHAPES = {
    "plus-right": (lambda b: _nest(b, lambda t: Plus(N(1), t)), "Plus(left=N(value=1), right=", ")"),
    "and-left": (
        lambda b: _nest(b, lambda t: And(t, X_LT_1)),
        "And(left=",
        ", right=Less(left=V(name='x'), right=N(value=1)))",
    ),
    "seq-left": (lambda b: _nest(b, lambda t: Seq(t, Skip())), "Seq(first=", ", second=Skip())"),
    "if": (
        lambda b: _nest(b, lambda t: If(Bc(True), t, Skip())),
        "If(guard=Bc(value=True), then_branch=",
        ", else_branch=Skip())",
    ),
    "while": (
        lambda b: _nest(b, lambda t: While(X_LT_1, t)),
        "While(guard=Less(left=V(name='x'), right=N(value=1)), body=",
        ")",
    ),
    "seq-right": (lambda b: _nest(b, lambda t: Seq(Skip(), t)), "Seq(first=Skip(), second=", ")"),
}
BOTTOMS = {"plus-right": (N(2), N(3)), "and-left": (X_LT_1, Bc(False))}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_deep_trees_compare_hash_and_print_without_recursion(shape):
    assert sys.getrecursionlimit() < DEEP
    build, before, after = DEEP_SHAPES[shape]
    bottom, other = BOTTOMS.get(shape, (Skip(), Set("x", N(1))))
    tree, copy_, different = build(bottom), build(bottom), build(other)
    assert tree == copy_ and not tree != copy_ and hash(tree) == hash(copy_)
    assert tree != different and not tree == different
    assert repr(tree) == before * DEEP + repr(bottom) + after * DEEP


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_deep_trees_pickle_and_deepcopy_without_recursion(shape):
    build = DEEP_SHAPES[shape][0]
    tree = build(BOTTOMS.get(shape, (Skip(),))[0])
    for copied in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert type(copied) is type(tree) and copied == tree


def test_unpickling_runs_the_constructors():
    rebuild, (records,) = Set("x", N(1)).__reduce__()
    assert rebuild(records) == Set("x", N(1))
    with pytest.raises(ValueError, match="keyword"):
        rebuild([(N, (1,), ()), (Set, ("IF", _Frozen), (0,))])  # the name is a keyword


# --------------------------------------------------------------------------
# Shared values: a DAG is flattened once per distinct value, not per path


def _dag(levels):
    c = Skip()
    for _ in range(levels):
        c = Seq(c, c)
    return c


def _expanded(levels):
    return Skip() if levels == 0 else Seq(_expanded(levels - 1), _expanded(levels - 1))


def test_a_dag_pickles_once_per_distinct_value():
    dag = _dag(40)  # 41 distinct values on 2**41 - 1 paths
    assert len(pickle.dumps(dag)) < 2_000
    assert hash(dag) == hash(_dag(40))


@pytest.mark.parametrize("copier", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_copies_keep_shared_values_shared(copier):
    c = copier(_dag(40))
    for _ in range(40):
        assert type(c) is Seq and c.first is c.second
        c = c.first
    assert type(c) is Skip


def test_sharing_does_not_change_equality_or_hash():
    dag, tree = _dag(8), _expanded(8)
    assert tree.first is not tree.second
    assert dag == tree and hash(dag) == hash(tree)
    shared = Plus(V("x"), V("x"))
    assert hash(Less(shared, shared)) == hash(Less(Plus(V("x"), V("x")), Plus(V("x"), V("x"))))
    # A value shared on one side meets a different partner on each path.
    assert Less(shared, shared) != Less(Plus(V("x"), N(2)), Plus(V("x"), V("x")))
    assert Less(shared, shared) != Less(Plus(V("x"), V("x")), Plus(V("x"), N(2)))
    assert hash(dag) != hash(_dag(7))


@pytest.mark.parametrize("copier", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_dag_equals_its_copy_once_per_distinct_pair(copier):
    # The copy shares no node with the original, so `==` meets each shared
    # value along 2**40 paths unless it remembers the pairs it compared.
    # `other` differs from `dag` only at the leftmost leaf, the last one the
    # walk reaches.
    dag, other = Set("x", N(1)), Set("x", N(2))
    for _ in range(40):
        dag, other = Seq(dag, dag), Seq(other, dag)
    assert dag == copier(dag) and not dag != copier(dag)
    assert other != copier(dag) and not other == copier(dag)
