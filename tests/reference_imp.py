"""The recursive `aval` and `bval` that `clockwork.imp` replaced, kept as
the reference for the differential tests of the expression layer, the way
`reference_parser` is for the parser.

The two functions are kept as they were; only the AST comes from the
package.  They recurse once per node, so they raise RecursionError on
deep trees: compare them only on shallow ones.
"""

from __future__ import annotations

from clockwork.imp import Aexp, And, Bc, Bexp, Less, N, Not, Plus, Store, V


def aval(a: Aexp, s: Store | dict[str, int]) -> int:
    """Value of an arithmetic expression in store `s`. Total.

    `s` may also be a plain dict of bindings, which is what the clocked
    evaluators and the refocusing oracle (`smallstep.run_oracle_stats`)
    pass while they run.
    """
    cls = type(a)
    if cls is N:
        return a.value
    if cls is V:
        return s.get(a.name, 0)
    if cls is Plus:
        return aval(a.left, s) + aval(a.right, s)
    raise TypeError(f"not an arithmetic expression: {a!r}")


def bval(b: Bexp, s: Store | dict[str, int]) -> bool:
    """Value of a boolean expression in store `s` (see `aval`). Total."""
    cls = type(b)
    if cls is Bc:
        return b.value
    if cls is Not:
        return not bval(b.arg, s)
    if cls is And:
        return bval(b.left, s) and bval(b.right, s)
    if cls is Less:
        return aval(b.left, s) < aval(b.right, s)
    raise TypeError(f"not a boolean expression: {b!r}")
