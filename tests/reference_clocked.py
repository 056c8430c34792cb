"""The runtime witness of `ev_min`'s termination measure that
`clockwork.clocked_env` used to carry, kept as the reference for the
termination tests, the way `reference_imp` is for the expression layer.

`ev_min_checked` and `TerminationMeasureError` are kept as they were;
only the AST, the store and the expression semantics come from the
package.  `ev_min_checked` follows the defining equations literally: it
builds each While unfold, threads an immutable `Store` and takes the
`size` of the command at every call, so its cost grows with steps times
program size.  Use it on small programs.
"""

from __future__ import annotations

from typing import Optional

from clockwork.clocked_env import EnvResult
from clockwork.imp import Com, If, Seq, Set, Skip, Store, While, _check_fuel, aval, bval, size


class TerminationMeasureError(AssertionError):
    """A recursive call failed to shrink the (clock, command size) measure."""


def ev_min_checked(c: Com, s: Store, t: int) -> EnvResult:
    """`ev_min`, additionally checking its termination measure at runtime.

    Every recursive call made by the defining equations must strictly
    decrease the lexicographic pair (clock, command size): the clock
    stays put only on calls whose command is a proper subterm.  Violations
    raise TerminationMeasureError; otherwise the result equals
    ``ev_min(c, s, t)``.
    """
    _check_fuel(t)
    # Frames carry the measure of the calling clause instance.
    stack: list[tuple[Com, int, Optional[tuple[int, int]]]] = [(c, t, None)]
    push = stack.append
    pop = stack.pop
    while stack:
        c, t, caller = pop()
        while True:
            measure = (t, size(c))
            if caller is not None and not measure < caller:
                raise TerminationMeasureError(
                    f"call measure {measure} does not decrease below {caller}"
                )
            caller = measure
            cls = type(c)
            if cls is Skip:
                break
            if cls is Set:
                s = s.set(c.var, aval(c.expr, s))
                break
            if cls is Seq:
                push((c.second, t, caller))
                c = c.first
                continue
            if cls is If:
                c = c.then_branch if bval(c.guard, s) else c.else_branch
                continue
            if cls is While:
                if bval(c.guard, s):
                    if t == 0:
                        return None
                    t -= 1
                    c = Seq(c.body, c)
                    continue
                break
            raise TypeError(f"not a command: {c!r}")
    return s
