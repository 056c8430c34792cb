"""Structural small-step semantics, used as a ground-truth oracle.

One configuration is a (command, store) pair; ``Skip`` is terminal.  The
step relation is deterministic:

    Set x a        ->  Skip                      (store updated)
    Seq Skip c2    ->  c2
    Seq c1 c2      ->  Seq c1' c2                when c1 -> c1'
    If b ct cf     ->  ct | cf                   by the guard's value
    While b c      ->  If b (Seq c (While b c)) Skip

This module deliberately shares nothing with the clocked evaluators
beyond the syntax and aval/bval: iterating ``step`` is an independent
path to final stores and trace lengths.

``step`` and ``iter_trace`` state the relation literally and are the
reference: each step walks the left Seq spine down to the redex and
rebuilds it, O(depth).  ``run_oracle_stats`` (and ``run_oracle`` over
it) refocuses instead (Danvy & Nielsen, "Refocusing in reduction
semantics", 2004): it keeps the pending right siblings of that spine as
an explicit context across steps and decomposes only each new
contractum, so it takes the same steps, in the same order, in time
linear in their number.  It takes each While unfold together with the
step of the If that the unfold makes, and builds neither that If nor
its Seq: a true guard pushes the loop and focuses its body, which is
what decomposing ``Seq c (While b c)`` does, and a false guard focuses
Skip.  Both steps are counted, and the cap can fall between them.  It
reads variables from the store's bindings dict, as the clocked
evaluators do; ``Store.set`` stays its only write.

``trace_stores`` walks the same steps the same way and collects the
stores of the configurations ``iter_trace`` would yield: the initial
store and the store after each Set step, the only step that changes it.
It builds no configuration.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .imp import Com, If, Seq, Set, Skip, Store, While, _check_int, _Frozen, _set, aval, bval, pretty, seq_brackets

_SKIP = Skip()


class Config(_Frozen):
    """One small-step machine state."""

    __match_args__ = ("com", "store")
    __slots__ = __match_args__

    def __init__(self, com: Com, store: Store) -> None:
        _set(self, "com", com)
        _set(self, "store", store)

    def is_terminal(self) -> bool:
        return type(self.com) is Skip

    def render(self) -> str:
        return f"⟨{pretty(self.com)}, {self.store.pretty()}⟩"


class TraceRenderer:
    """Renders the configurations of one trace, in order, as `Config.render` does.

    A step rebuilds only the left Seq spine down to the redex and keeps
    every right sibling on it as the same object.  So each line
    pretty-prints only the redex and the siblings that are new, and takes
    the text of the others from the previous line.  After each line only
    the current spine's siblings stay in the memo; they are disjoint
    subtrees, so it holds at most about one program's text.
    """

    def __init__(self) -> None:
        # id(sibling) -> (sibling, text).  The entry holds the node, so its
        # id cannot be reused by a new node while the entry lives.
        self._memo: dict[int, tuple[Com, str]] = {}

    def render(self, cfg: Config) -> str:
        memo, kept = self._memo, {}
        openings: list[str] = []
        tail: list[tuple[str, str]] = []  # per spine node: closing bracket, sibling text
        c = cfg.com
        while type(c) is Seq:
            sibling = c.second
            entry = memo.get(id(sibling))
            if entry is None:
                entry = (sibling, pretty(sibling))
            kept[id(sibling)] = entry
            opening, closing = seq_brackets(c.first)
            openings.append(opening)
            tail.append((closing, entry[1]))
            c = c.first
        self._memo = kept
        parts = ["⟨", *openings, pretty(c)]
        for closing, text in reversed(tail):
            parts += (closing, " ; ", text)
        parts += (", ", cfg.store.pretty(), "⟩")
        return "".join(parts)


class Terminated(_Frozen):
    __match_args__ = ("store", "steps")
    __slots__ = __match_args__

    def __init__(self, store: Store, steps: int) -> None:
        _set(self, "store", store)
        _set(self, "steps", steps)


class StepLimit(_Frozen):
    __match_args__ = ("cap",)
    __slots__ = __match_args__

    def __init__(self, cap: int) -> None:
        _set(self, "cap", cap)


OracleOutcome = Union[Terminated, StepLimit]


def _step_parts(c: Com, s: Store) -> tuple[Com, Store]:
    """One step of a non-terminal command."""
    # Walk down the left spine of Seq nodes to the redex, iteratively so
    # that deeply left-nested programs cannot overflow the call stack.
    spine: list[Com] = []
    while type(c) is Seq and type(c.first) is not Skip:
        spine.append(c.second)
        c = c.first
    cls = type(c)
    if cls is Seq:  # first part is Skip
        c = c.second
    elif cls is Set:
        s = s.set(c.var, aval(c.expr, s))
        c = _SKIP
    elif cls is If:
        c = c.then_branch if bval(c.guard, s) else c.else_branch
    elif cls is While:
        c = If(c.guard, Seq(c.body, c), _SKIP)
    else:
        raise TypeError(f"not a command: {c!r}")
    while spine:
        c = Seq(c, spine.pop())
    return c, s


def _check_cap(cap: int) -> None:
    _check_int(cap, "step cap", 1)


def step(cfg: Config) -> Optional[Config]:
    """The unique successor of `cfg`, or None when `cfg` is terminal."""
    if type(cfg.com) is Skip:
        return None
    c, s = _step_parts(cfg.com, cfg.store)
    return Config(c, s)


def iter_trace(c: Com, s: Store, cap: int) -> Iterator[Config]:
    """Yield the configurations from ⟨c, s⟩, at most `cap` steps long.

    The initial configuration is always yielded; at most cap + 1
    configurations are produced.  The trace is complete exactly when the
    last yielded configuration is terminal.
    """
    _check_cap(cap)
    yield Config(c, s)
    for _ in range(cap):
        if type(c) is Skip:
            return
        c, s = _step_parts(c, s)
        yield Config(c, s)


def run_oracle(c: Com, s: Store, cap: int) -> OracleOutcome:
    """The outcome of iterating `step` from ⟨c, s⟩ for at most `cap` steps."""
    outcome, _ = run_oracle_stats(c, s, cap)
    return outcome


def run_oracle_stats(c: Com, s: Store, cap: int) -> tuple[OracleOutcome, int]:
    """Like run_oracle, also counting uses of the While unfold rule.

    Refocuses (see the module docstring): `ctx` is the evaluation
    context, the right siblings pending on the left Seq spine.  A While
    unfold and the step of its If are taken at once, without building
    either node, and `aval`/`bval` read the store's bindings dict.
    """
    _check_cap(cap)
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
            return Terminated(s, n), while_steps
        if n == cap:
            return StepLimit(cap), while_steps
        n += 1
        if cls is Skip:  # Seq Skip c2 -> c2
            c = pop()
        elif cls is Set:
            s = s.set(c.var, aval(c.expr, s._m))
            c = _SKIP
        elif cls is If:
            c = c.then_branch if bval(c.guard, s._m) else c.else_branch
        elif cls is While:
            # The unfold to If(g, Seq(body, W), SKIP) and that If's step,
            # without building either node.
            while_steps += 1
            if n == cap:
                return StepLimit(cap), while_steps
            n += 1
            if bval(c.guard, s._m):
                push(c)  # decomposing Seq(body, W)
                c = c.body
            else:
                c = _SKIP
        else:
            raise TypeError(f"not a command: {c!r}")


def trace_stores(c: Com, s: Store, cap: int) -> set[Store]:
    """The set of stores of the configurations `iter_trace(c, s, cap)` yields.

    Walks them as `run_oracle_stats` does (see the module docstring) and
    adds a store only at a Set step.
    """
    _check_cap(cap)
    stores = {s}
    ctx: list[Com] = []  # pending right siblings, innermost last
    push, pop = ctx.append, ctx.pop
    n = 0
    while True:
        cls = type(c)
        while cls is Seq:
            push(c.second)
            c = c.first
            cls = type(c)
        if n >= cap or (cls is Skip and not ctx):
            return stores
        n += 1
        if cls is Skip:
            c = pop()
        elif cls is Set:
            s = s.set(c.var, aval(c.expr, s._m))
            stores.add(s)
            c = _SKIP
        elif cls is If:
            c = c.then_branch if bval(c.guard, s._m) else c.else_branch
        elif cls is While:
            # The unfold and its If's step.  Neither changes the store, so
            # a cap that falls between them needs no test here.
            n += 1
            if bval(c.guard, s._m):
                push(c)
                c = c.body
            else:
                c = _SKIP
        else:
            raise TypeError(f"not a command: {c!r}")
