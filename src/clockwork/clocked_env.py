"""Depth-bounded evaluators: the clock is passed down and never returned.

Two disciplines for spending the clock:

* ``ev`` spends one tick at every evaluation step, so the clock bounds
  the depth of evaluation.  Even SKIP needs a nonzero clock.
* ``ev_min`` spends a tick only where the command being evaluated does
  not shrink, which is exactly the While unfold.  SKIP and assignment
  run with an empty clock.

A run that exhausts its clock returns None; a completed run returns the
final store.  Both functions use an explicit continuation stack rather
than native recursion, so clocks in the millions cannot overflow the
interpreter stack.  Each run updates a private copy of the argument
store's bindings in place; zeros are dropped by ``Store`` on return,
when the copy is wrapped.  On a true While guard the loop node itself
is pushed as the continuation of its body, which is what the unfold
``Seq(body, While(...))`` would push, without allocating it.

Since the clock is not returned, ``least_fuel`` runs either discipline
once more and reports the least fuel the run needed.
"""

from __future__ import annotations

from typing import Optional

from .imp import Com, Seq, Set, Skip, If, While, Store, _check_fuel, aval, bval

EnvResult = Optional[Store]


def ev(c: Com, s: Store, t: int) -> EnvResult:
    """Evaluate `c` in `s`, spending one tick on every evaluation step.

    Clause by clause: clock 0 is an immediate timeout for any command;
    SKIP yields the store; assignment yields the updated store; Seq runs
    both parts with the decremented clock; If runs the chosen branch
    with the decremented clock; While with a true guard runs the unfold
    ``Seq(body, While(...))`` with the decremented clock, and with a
    false guard yields the store.  The unfold is not built: its Seq
    step is charged in place (a second clock-0 check and tick) before
    the body runs with the While as its continuation.
    """
    _check_fuel(t)
    m = dict(s._m)
    stack: list[tuple[Com, int]] = [(c, t)]
    push = stack.append
    pop = stack.pop
    while stack:
        c, t = pop()
        while True:
            if t == 0:
                return None
            cls = type(c)
            if cls is Skip:
                break
            if cls is Set:
                m[c.var] = aval(c.expr, m)
                break
            t -= 1
            if cls is Seq:
                push((c.second, t))
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
                    push((c, t))
                    c = c.body
                    continue
                break
            raise TypeError(f"not a command: {c!r}")
    return Store._wrap(m)


def ev_min(c: Com, s: Store, t: int) -> EnvResult:
    """Evaluate `c` in `s`, spending a tick only at While unfolds.

    SKIP and assignment never consult the clock; Seq and If pass it
    through unchanged.  While with a true guard times out when the clock
    is 0 and otherwise runs the unfold with the decremented clock; a
    false guard yields the store.
    """
    _check_fuel(t)
    m = dict(s._m)
    stack: list[tuple[Com, int]] = [(c, t)]
    push = stack.append
    pop = stack.pop
    while stack:
        c, t = pop()
        while True:
            cls = type(c)
            if cls is Skip:
                break
            if cls is Set:
                m[c.var] = aval(c.expr, m)
                break
            if cls is Seq:
                push((c.second, t))
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
                    push((c, t))
                    c = c.body
                    continue
                break
            raise TypeError(f"not a command: {c!r}")
    return Store._wrap(m)


def least_fuel(c: Com, s: Store, t: int, every_step: bool) -> Optional[tuple[Store, int]]:
    """`ev` (every_step) or `ev_min` at fuel `t`, plus the least fuel that suffices.

    Returns None exactly when the evaluator times out at `t`; otherwise
    (its store, least fuel).  Neither clock is ever read except by a
    clock-0 check, and the clock at a check is ``t - d`` for the ``d``
    ticks spent on the path from the root.  A run at fuel ``t'`` takes
    the same path, with the same stores, for as long as ``t' - d > 0`` at
    every check, so the least sufficient fuel is ``t - low + 1`` for the
    least clock ``low`` seen at a check, and 0 when nothing is checked
    (``ev_min`` on a loop-free program).  One run finds it, without
    assuming monotonicity.  The checks and ticks are those of `ev` and
    `ev_min`, in the same order.
    """
    _check_fuel(t)
    fuel = t
    low = t + 1
    m = dict(s._m)
    stack: list[tuple[Com, int]] = [(c, t)]
    push = stack.append
    pop = stack.pop
    while stack:
        c, t = pop()
        while True:
            cls = type(c)
            if every_step:
                if t < low:
                    if t == 0:
                        return None
                    low = t
                if cls is not Skip and cls is not Set:
                    t -= 1
            if cls is Skip:
                break
            if cls is Set:
                m[c.var] = aval(c.expr, m)
                break
            if cls is Seq:
                push((c.second, t))
                c = c.first
                continue
            if cls is If:
                c = c.then_branch if bval(c.guard, m) else c.else_branch
                continue
            if cls is While:
                if bval(c.guard, m):
                    # ev_min's only check; for ev, the unfold's Seq step
                    if t < low:
                        if t == 0:
                            return None
                        low = t
                    t -= 1
                    push((c, t))
                    c = c.body
                    continue
                break
            raise TypeError(f"not a command: {c!r}")
    return Store._wrap(m), fuel - low + 1

