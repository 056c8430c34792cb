"""Structural small-step semantics, used as a ground-truth oracle.

One configuration is a (command, store) pair; ``Skip`` is terminal.  The
step relation is deterministic:

    Set x a        ->  Skip                      (store updated)
    Seq Skip c2    ->  c2
    Seq c1 c2      ->  Seq c1' c2                when c1 -> c1'
    If b ct cf     ->  ct | cf                   by the guard's value
    While b c      ->  If b (Seq c (While b c)) Skip

This module deliberately shares nothing with the clocked evaluators
beyond the syntax and aval/bval: its steps are an independent path to
final stores and trace lengths.

Every walk here refocuses (Danvy & Nielsen, "Refocusing in reduction
semantics", 2004): it keeps the right siblings pending on the left Seq
spine above the redex as an explicit context, a stack, across steps,
and decomposes only each new contractum.  So it takes the steps of the
relation, in the same order, in time linear in their number however
the program is nested.  `tests/reference_smallstep.py` keeps the
relation stated literally, a step that walks down from the root and
rebuilds the spine, and the tests hold every walk here to it.

``iter_trace`` yields each configuration as its focus, a snapshot of
its context and its store; ``TraceRenderer`` prints one from those
without rebuilding the command.  A While unfold builds its If, so the
trace shows that configuration; that is why it is a walk of its own.

The machine, ``_machine``, takes each While unfold together with the
step of the If that the unfold makes, and builds neither that If nor
its Seq: a true guard pushes the loop and focuses its body, which is
what decomposing ``Seq c (While b c)`` does, and a false guard focuses
Skip.  Both steps are counted, and the cap can fall between them.  It
writes one private copy of the argument store's bindings in place, in
the store's normal form (a zero value pops the name), yields that live
dict after each Set step, the only step that changes it, and hands back
the outcome, whose store wraps the dict once, and the unfold count.
``run_oracle_stats`` (and ``run_oracle`` over it) keeps those, and
``trace_stores`` a copy of each distinct yield; both drain it at C
speed, and it never branches on its caller.

The walks read variables from a bindings dict, as the clocked
evaluators do.  The machine writes its own dict; ``iter_trace`` writes
through ``Store.set``, because it yields a store per configuration.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Union

from .imp import Com, If, Seq, Set, Skip, Store, While, _check_int, _Frozen, aval, bval, pretty

_SKIP = Skip()


class TraceRenderer:
    """Prints the configurations of one trace, in order, each as
    ``⟨pretty(c), store.pretty()⟩`` for the command c it stands for.

    The context is a stack: an entry keeps its position, counted from the
    outermost, for as long as the steps work inside it.  So each line
    pretty-prints only the focus and the entries that are new at their
    position, and takes the text of the others from the previous line.
    It holds the text of one context, at most about one program's text.
    """

    def __init__(self) -> None:
        self._texts: list[tuple[Com, str]] = []  # per context entry, outermost first: (entry, text)

    def render(self, focus: Com, context: tuple[Com, ...], store: Store) -> str:
        texts = self._texts
        del texts[len(context) :]
        for i, entry in enumerate(context):
            if i == len(texts):
                texts.append((entry, pretty(entry)))
            elif texts[i][0] is not entry:
                texts[i] = (entry, pretty(entry))
        # The command is Seq(... Seq(focus, innermost) ..., outermost), and a
        # Seq as the left operand of ';' is printed in parentheses.
        parts = ["⟨", "(" * (len(context) - 1), pretty(focus)]
        if texts:
            parts += (" ; ", ") ; ".join([text for _, text in reversed(texts)]))
        parts += (", ", store.pretty(), "⟩")
        return "".join(parts)


class Terminated(_Frozen):
    __match_args__ = ("store", "steps")
    __slots__ = __match_args__

    def __init__(self, store: Store, steps: int) -> None:
        set_store, set_steps = self._setters
        set_store(self, store)
        set_steps(self, steps)


class StepLimit(_Frozen):
    __match_args__ = ("cap",)
    __slots__ = __match_args__

    def __init__(self, cap: int) -> None:
        (set_cap,) = self._setters
        set_cap(self, cap)


OracleOutcome = Union[Terminated, StepLimit]


def _check_cap(cap: int) -> None:
    _check_int(cap, "step cap", 1)


def iter_trace(c: Com, s: Store, cap: int) -> Iterator[tuple[Com, tuple[Com, ...], Store]]:
    """Yield the configurations from ⟨c, s⟩, at most `cap` steps long.

    Each is ``(focus, context, store)``: the command it stands for is the
    focus, which is not a Seq, with the context's entries as the right
    operands of ';' around it, innermost last.  The initial configuration
    is always yielded; at most cap + 1 configurations are produced.  The
    trace is complete exactly when the last yielded one has a SKIP focus
    and an empty context.
    """
    _check_cap(cap)
    ctx: list[Com] = []  # pending right siblings, innermost last
    push, pop = ctx.append, ctx.pop
    n = 0
    while True:
        cls = type(c)
        while cls is Seq:
            push(c.second)
            c = c.first
            cls = type(c)
        yield c, tuple(ctx), s
        if n == cap or (cls is Skip and not ctx):
            return
        n += 1
        if cls is Skip:  # Seq Skip c2 -> c2
            c = pop()
        elif cls is Set:
            s = s.set(c.var, aval(c.expr, s._m))
            c = _SKIP
        elif cls is If:
            c = c.then_branch if bval(c.guard, s._m) else c.else_branch
        elif cls is While:
            c = If(c.guard, Seq(c.body, c), _SKIP)
        else:
            raise TypeError(f"not a command: {c!r}")


def _machine(c: Com, s: Store, cap: int, result: list[tuple[OracleOutcome, int]]) -> Iterator[dict[str, int]]:
    """Take at most `cap` steps from ⟨c, s⟩, yielding the bindings after
    each Set step, then append (outcome, While unfolds) to `result`.

    The bindings are one private copy of `s`'s, updated in place and kept
    in the store's normal form (no zero binding): a consumer that keeps
    them must copy them before it resumes the machine.  `ctx` is the
    evaluation context (see the module docstring).
    """
    _check_cap(cap)
    m = s._m.copy()
    ctx: list[Com] = []  # pending right siblings, innermost last
    push, pop = ctx.append, ctx.pop
    n = while_steps = 0
    while True:
        cls = type(c)
        while cls is Seq:
            push(c.second)
            c = c.first
            cls = type(c)
        if cls is Skip and not ctx:
            result.append((Terminated(Store._wrap(m), n), while_steps))
            return
        if n == cap:
            break
        n += 1
        if cls is Skip:  # Seq Skip c2 -> c2
            c = pop()
        elif cls is Set:
            value = aval(c.expr, m)
            if value:
                m[c.var] = value
            else:
                m.pop(c.var, None)
            yield m
            c = _SKIP
        elif cls is If:
            c = c.then_branch if bval(c.guard, m) else c.else_branch
        elif cls is While:
            # The unfold to If(g, Seq(body, W), SKIP) and that If's step,
            # without building either node.
            while_steps += 1
            if n == cap:
                break
            n += 1
            if bval(c.guard, m):
                push(c)  # decomposing Seq(body, W)
                c = c.body
            else:
                c = _SKIP
        else:
            raise TypeError(f"not a command: {c!r}")
    result.append((StepLimit(cap), while_steps))


def run_oracle(c: Com, s: Store, cap: int) -> OracleOutcome:
    """The outcome of the trace from ⟨c, s⟩, at most `cap` steps long."""
    outcome, _ = run_oracle_stats(c, s, cap)
    return outcome


def run_oracle_stats(c: Com, s: Store, cap: int) -> tuple[OracleOutcome, int]:
    """Like run_oracle, also counting uses of the While unfold rule."""
    result: list[tuple[OracleOutcome, int]] = []
    deque(_machine(c, s, cap, result), maxlen=0)
    return result[0]


def trace_stores(c: Com, s: Store, cap: int) -> set[Store]:
    """The set of stores of the configurations `iter_trace(c, s, cap)` yields."""
    # Each yield is frozen before the machine resumes; each distinct one is
    # then wrapped once.
    distinct = set(map(frozenset, map(dict.items, _machine(c, s, cap, []))))
    return {s, *map(Store._wrap, map(dict, distinct))}
