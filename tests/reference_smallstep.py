"""The small-step relation that `clockwork.smallstep` used to state
literally, kept as the reference for the oracle and trace tests, the way
`reference_imp` is for the expression layer.

`Config`, `step` and `_step_parts` are kept as they were, and
`iter_trace` as it was before the package's trace refocused.  Each step
walks the left Seq spine down from the root to the redex and rebuilds
it, O(depth), so iterating it costs O(n²) on n statements nested to the
left.  Only the AST, the store, the expression semantics and the cap
check come from the package.
"""

from __future__ import annotations

from typing import Iterator, Optional

from clockwork.imp import Com, If, Seq, Set, Skip, Store, While, _Frozen, aval, bval, pretty
from clockwork.smallstep import _check_cap

_SKIP = Skip()


class Config(_Frozen):
    """One small-step machine state."""

    __match_args__ = ("com", "store")
    __slots__ = __match_args__

    def __init__(self, com: Com, store: Store) -> None:
        set_com, set_store = self._setters
        set_com(self, com)
        set_store(self, store)

    def is_terminal(self) -> bool:
        return type(self.com) is Skip

    def render(self) -> str:
        return f"⟨{pretty(self.com)}, {self.store.pretty()}⟩"


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
