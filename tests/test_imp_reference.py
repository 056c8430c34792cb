"""Differential test: the expression layer against the recursive one.

`reference_imp` holds the recursive `aval` and `bval` that `clockwork.imp`
replaced.  On every expression and store both must give the same value,
or raise the same TypeError message.  The expressions are generated ones
at depths 0-4, hand-built spines of both associativities, and either kind
with one node replaced by something that is not an expression of its
category.  Each is evaluated in a `Store` and in a plain dict.
"""

import pytest

import reference_imp
from clockwork.imp import And, Bc, Less, N, Not, Plus, Store, V, aval, bval
from clockwork.testkit import SplitMix64, _gen_aexp, _gen_bexp

DEPTHS = range(5)
DRAWS = 600  # per depth and kind: 3,000 aexps and 3,000 bexps
SPINE_LENGTHS = (1, 2, 3, 7, 40)


def _stores(rng):
    """A Store, its bindings dict, and a plain dict that binds a zero."""
    m = {v: rng.randint(-4, 4) for v in ("x", "y", "z") if rng.below(3)}
    store = Store(m)
    return [store, store._m, dict(m, y=0)]


def _outcome(fn, e, s):
    """("value", type, value) or ("error", message); the type tells True from 1."""
    try:
        value = fn(e, s)
    except TypeError as exc:
        return ("error", str(exc))
    return ("value", type(value), value)


def _check(kind, e, rng):
    new, ref = (aval, reference_imp.aval) if kind == "a" else (bval, reference_imp.bval)
    for s in _stores(rng):
        assert _outcome(new, e, s) == _outcome(ref, e, s), (e, s)


def _leaf(rng):
    r = rng.below(3)
    if r == 0:
        return N(rng.randint(-4, 4))
    if r == 1:
        return V(rng.choice(("x", "y", "z")))
    return Plus(V("x"), N(rng.randint(-4, 4)))  # a parenthesised sum as an operand


def _conjunct(rng):
    r = rng.below(4)
    if r == 0:
        return Bc(rng.below(3) > 0)
    if r == 1:
        return Not(Less(_leaf(rng), _leaf(rng)))
    return Less(_leaf(rng), _leaf(rng))


def _fold(make, items, left):
    """`items` joined by `make` nested to the left or to the right."""
    if left:
        acc = items[0]
        for item in items[1:]:
            acc = make(acc, item)
        return acc
    acc = items[-1]
    for item in reversed(items[:-1]):
        acc = make(item, acc)
    return acc


def _nots(b, k):
    for _ in range(k):
        b = Not(b)
    return b


def _spines(rng):
    """Hand-built ('a' | 'b', expression) spines of both associativities."""
    out = []
    for n in SPINE_LENGTHS:
        for left in (True, False):
            out.append(("a", _fold(Plus, [_leaf(rng) for _ in range(n)], left)))
            out.append(("b", _fold(And, [_conjunct(rng) for _ in range(n)], left)))
            out.append(("b", _fold(And, [Bc(True)] * (n - 1) + [_conjunct(rng)], left)))
        out.append(("b", _nots(_conjunct(rng), n)))
        out.append(("b", _nots(Bc(True), n)))
        out.append(("b", _nots(_fold(And, [_conjunct(rng) for _ in range(n)], False), n)))
        out.append(("b", Less(_fold(Plus, [_leaf(rng) for _ in range(n)], True), _leaf(rng))))
        out.append(("b", Less(_leaf(rng), _fold(Plus, [_leaf(rng) for _ in range(n)], False))))
    return out


def _nodes(e):
    """Number of expression nodes in `e`, preorder."""
    total = 0
    todo = [e]
    while todo:
        node = todo.pop()
        total += 1
        if type(node) in (Plus, And, Less):
            todo += [node.left, node.right]
        elif type(node) is Not:
            todo.append(node.arg)
    return total


def _replace(e, k, bad):
    """`e` with its k-th node in preorder replaced by `bad`; returns (tree, k left)."""
    if k == 0:
        return bad, -1
    k -= 1
    cls = type(e)
    if cls is Not:
        arg, k = _replace(e.arg, k, bad)
        return Not(arg), k
    if cls in (Plus, And, Less):
        left, k = _replace(e.left, k, bad)
        if k < 0:
            return cls(left, e.right), k
        right, k = _replace(e.right, k, bad)
        return cls(left, right), k
    return e, k


# Things that are not an expression of the category they stand in.
MALFORMED = [None, "x", 3, True, Bc(True), N(1), Less(N(0), N(1)), Plus(N(1), N(2)), Not(Bc(False))]


@pytest.mark.parametrize("depth", DEPTHS)
def test_generated_expressions_match_the_reference(depth):
    rng = SplitMix64(1000 + depth)
    for _ in range(DRAWS):
        _check("a", _gen_aexp(rng, depth), rng)
        _check("b", _gen_bexp(rng, depth), rng)


def test_spines_of_both_associativities_match_the_reference():
    rng = SplitMix64(7)
    for _ in range(20):
        for kind, e in _spines(rng):
            _check(kind, e, rng)


def test_one_malformed_node_raises_the_reference_error():
    rng = SplitMix64(11)
    errors = 0
    for round_ in range(400):
        if round_ % 2:
            kind, e = rng.choice(_spines(rng))
        else:
            kind = "ab"[rng.below(2)]
            e = (_gen_aexp if kind == "a" else _gen_bexp)(rng, rng.below(5))
        bad = rng.choice(MALFORMED)
        tree, _ = _replace(e, rng.below(_nodes(e)), bad)
        _check(kind, tree, rng)
        new = aval if kind == "a" else bval
        errors += _outcome(new, tree, {})[0] == "error"
    assert errors > 200  # most replacements are reached, not short-circuited away


def test_malformed_spine_ends_raise_the_reference_error():
    bad = N(5)  # an aexp where a bexp belongs, and a malformed Plus operand below
    cases = [
        ("a", Plus(Plus(Bc(True), N(1)), N(2))),
        ("a", Plus(Plus(N(1), Bc(True)), N(2))),
        ("a", Plus(N(1), Plus(N(2), None))),
        ("b", Less(Bc(False), N(1))),
        ("b", Less(N(1), "y")),
        ("b", _nots(bad, 3)),
        ("b", _nots(bad, 4)),
        ("b", And(Bc(True), And(Bc(True), bad))),
        ("b", And(Bc(False), And(Bc(True), bad))),
        ("b", And(And(Bc(True), bad), Bc(True))),
    ]
    rng = SplitMix64(3)
    for kind, e in cases:
        _check(kind, e, rng)
    with pytest.raises(TypeError, match=r"^not a boolean expression: N\(value=5\)$"):
        bval(_nots(bad, 3), {})
    with pytest.raises(TypeError, match=r"^not an arithmetic expression: Bc\(value=True\)$"):
        aval(Plus(Plus(Bc(True), N(1)), N(2)), Store())
