"""Length-bounded evaluators: the clock is threaded through and returned.

A successful run yields a (store, leftover clock) pair, so the clock
bounds the total number of While unfolds across the whole run rather
than the depth of evaluation.  Three variants:

* ``cval`` guards against a (never actually occurring) clock increase by
  clamping each sequencing intermediate result with ``fix_clock``.
* ``cval_guard`` performs the same clamp at the consumption site, on the
  clock argument of the continuation call, instead of on the produced
  result.  Observably identical to ``cval``.
* ``cval_tick`` also spends one tick on every evaluation step, making
  the consumed clock count evaluation steps rather than While unfolds.

All variants return None on timeout and use explicit continuation
stacks, so multi-million clocks cannot overflow the interpreter stack.
A continuation is the second part of a Seq together with the clock the
Seq was entered with, which the clamp needs.  Each run updates a private
copy of the argument store's bindings in place; zeros are dropped by
``Store`` on return, when the copy is wrapped.  On a true While guard
the loop node itself is pushed as the continuation of its body, which
is what the unfold ``Seq(body, While(...))`` would push, without
allocating it.
"""

from __future__ import annotations

from typing import Optional

from .imp import Com, If, Seq, Set, Skip, Store, While, _check_fuel, aval, bval

StateResult = Optional[tuple[Store, int]]


def fix_clock(t: int, r: StateResult) -> StateResult:
    """Clamp the clock in `r` to at most `t`; timeouts pass through."""
    if r is None:
        return None
    s, t2 = r
    if t < t2:
        return (s, t)
    return r


def cval(c: Com, s: Store, t: int) -> StateResult:
    """Evaluate `c` in `s`, threading the clock; ticks are spent at While.

    SKIP and assignment return the clock unchanged; Seq clamps the first
    part's result with ``fix_clock`` and feeds its leftover clock to the
    second part; If passes the clock to the chosen branch; While with a
    true guard times out at clock 0 and otherwise runs the unfold with
    the decremented clock; a false guard returns (store, clock).
    """
    _check_fuel(t)
    m = dict(s._m)
    stack: list[tuple[int, Com]] = []
    push = stack.append
    pop = stack.pop
    while True:
        while True:
            cls = type(c)
            if cls is Skip:
                break
            if cls is Set:
                m[c.var] = aval(c.expr, m)
                break
            if cls is Seq:
                push((t, c.second))
                c = c.first
                continue
            if cls is If:
                c = c.then_branch if bval(c.guard, m) else c.else_branch
                continue
            if cls is While:
                if bval(c.guard, m):
                    if t == 0:
                        return None
                    t -= 1
                    push((t, c))
                    c = c.body
                    continue
                break
            raise TypeError(f"not a command: {c!r}")
        if not stack:
            return (Store._wrap(m), t)
        t_in, c = pop()
        # A timeout would already have returned, and fix_clock maps
        # timeouts to timeouts, so clamping only the success path is exact.
        m, t = fix_clock(t_in, (m, t))


def cval_guard(c: Com, s: Store, t: int) -> StateResult:
    """`cval` with the clamp moved to the consumption site.

    The Seq clause continues with clock ``t if t < t2 else t2`` where t2
    is the first part's leftover, instead of clamping the produced result.
    """
    _check_fuel(t)
    m = dict(s._m)
    stack: list[tuple[int, Com]] = []
    push = stack.append
    pop = stack.pop
    while True:
        while True:
            cls = type(c)
            if cls is Skip:
                break
            if cls is Set:
                m[c.var] = aval(c.expr, m)
                break
            if cls is Seq:
                push((t, c.second))
                c = c.first
                continue
            if cls is If:
                c = c.then_branch if bval(c.guard, m) else c.else_branch
                continue
            if cls is While:
                if bval(c.guard, m):
                    if t == 0:
                        return None
                    t -= 1
                    push((t, c))
                    c = c.body
                    continue
                break
            raise TypeError(f"not a command: {c!r}")
        if not stack:
            return (Store._wrap(m), t)
        t_in, c = pop()
        if t_in < t:  # redundant safety check: leftover exceeded the input
            t = t_in


def cval_tick(c: Com, s: Store, t: int) -> StateResult:
    """Threaded clock spent on every evaluation step.

    Every clause checks for clock 0 and consumes one tick on entry, so a
    successful run's consumed clock equals the number of evaluation steps
    taken and the leftover is strictly below the input.  Otherwise the
    clauses mirror ``cval``: Seq threads (and clamps) the clock, If picks
    a branch, While with a true guard runs the unfold.  The unfold is not
    built: its Seq step is charged in place (a second clock-0 check and
    tick) before the body runs with the While as its continuation.
    """
    _check_fuel(t)
    m = dict(s._m)
    stack: list[tuple[int, Com]] = []
    push = stack.append
    pop = stack.pop
    while True:
        while True:
            if t == 0:
                return None
            t -= 1
            cls = type(c)
            if cls is Skip:
                break
            if cls is Set:
                m[c.var] = aval(c.expr, m)
                break
            if cls is Seq:
                push((t, c.second))
                c = c.first
                continue
            if cls is If:
                c = c.then_branch if bval(c.guard, m) else c.else_branch
                continue
            if cls is While:
                if bval(c.guard, m):
                    if t == 0:  # the unfold's Seq step
                        return None
                    t -= 1
                    push((t, c))
                    c = c.body
                    continue
                break
            raise TypeError(f"not a command: {c!r}")
        if not stack:
            return (Store._wrap(m), t)
        t_in, c = pop()
        m, t = fix_clock(t_in, (m, t))

