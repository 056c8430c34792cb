"""Command-line front end.

Four subcommands:

    run    evaluate a program file under a chosen clocked semantics
    trace  print the small-step configuration trace of a program
    check  run property campaigns and print one JSON report per line
    parse  parse a program and print its pretty-printed form

Machine-readable JSON goes to stdout (one object per line); trace
configuration lines are the one plain-text exception.  Human-facing
messages go to stderr.  Exit codes: 0 for success / all properties
passing, 2 for timeout, not-found, step-limit, or failing properties,
1 for parse and usage errors, and for inputs too deep or too large to
process (reported in one line, never as a traceback).

`run --oracle` runs the small-step oracle beside the evaluator.  Its
first 1,024 steps (``_ORACLE_FIRST_LEG``) run in process, so a short
program forks nothing.  A run still going forks one helper, which runs
the oracle to ``--cap`` while this process runs the evaluator, and sends
back only its step count.  On one CPU (``taskset -c 0`` gives one
process), or when the fork or the helper fails, the oracle runs in
process after the evaluator; the report is the same either way.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import re
import sys
from typing import BinaryIO, Callable, NoReturn, Optional, Sequence

from .clocked_env import least_fuel
from .imp import Com, Skip, Store, pretty
from .parser import ParseError, parse_com
from .smallstep import StepLimit, Terminated, TraceRenderer, iter_trace, run_oracle
from .testkit import (
    ORACLE_CAP,
    PROPERTY_IDS,
    SEMANTICS,
    Campaigns,
    GenConfig,
    _cpus,
    _fork_child,
    _reap_children,
    fuel_search,
    run_property,
)

_SEM_CHOICES = tuple(name.replace("_", "-") for name in SEMANTICS)
_DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TIMEOUT = 2


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text: str) -> int:
    """An ASCII decimal integer, ``-?[0-9]+``, as program literals are.

    ``int`` alone also reads other scripts' digits (``٣``), ``_`` between
    digits, a ``+`` sign and surrounding whitespace.
    """
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


_decimal.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _usage(message: str) -> NoReturn:
    """Print `message` to stderr and exit 1; `main` returns the code."""
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for timeouts."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="clockwork", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    run_p = sub.add_parser("run", help="evaluate a program under a clocked semantics")
    run_p.add_argument("file", help="program file (.imp)")
    run_p.add_argument("--sem", required=True, choices=_SEM_CHOICES, help="semantics to use")
    run_p.add_argument("--fuel", required=True, help="initial fuel N, or search:MAX for a doubling search")
    run_p.add_argument("--init", default="", help="initial store, e.g. x=3,y=1")
    run_p.add_argument("--oracle", action="store_true", help="also run the small-step oracle")
    run_p.add_argument("--cap", type=_decimal, default=ORACLE_CAP, help="oracle step cap")

    trace_p = sub.add_parser("trace", help="print the small-step trace")
    trace_p.add_argument("file")
    trace_p.add_argument("--init", default="")
    trace_p.add_argument("--cap", type=_decimal, default=ORACLE_CAP, help="step cap")

    check_p = sub.add_parser("check", help="run property campaigns")
    check_p.add_argument("properties", nargs="*", metavar="PROP", help=f"property ids ({', '.join(PROPERTY_IDS)})")
    check_p.add_argument("--all", action="store_true", help="run every property")
    check_p.add_argument("--seed", type=_decimal, default=None, help="campaign seed (default: $CLOCKWORK_SEED or 42)")
    check_p.add_argument("--cases", type=_decimal, default=1000, help="cases per property")

    parse_p = sub.add_parser("parse", help="parse a program and pretty-print it")
    parse_p.add_argument("file")
    return top


def _load_program(path: str) -> Com:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        _usage(f"clockwork: cannot read {path}: {e}")
    try:
        return parse_com(text)
    except ParseError as e:
        _usage(f"{path}:{e}")


def _parse_init(spec: str) -> Store:
    bindings: dict[str, int] = {}
    if spec:
        for item in spec.split(","):
            name, eq, value = item.partition("=")
            name = name.strip()
            try:
                if not eq:
                    raise ValueError("missing '='")
                if name in bindings:
                    raise ValueError(f"{name!r} is already bound")
                bindings[name] = _decimal(value.strip())
            except ValueError as e:
                _usage(f"clockwork: bad --init binding {item!r}: {e}")
    try:
        return Store(bindings)
    except ValueError as e:
        _usage(f"clockwork: bad --init: {e}")


def _parse_fuel(spec: str) -> tuple[bool, int]:
    """Returns (search, fuel): whether `spec` is search:MAX, and N or MAX."""
    search = spec.startswith("search:")
    try:
        fuel = _decimal(spec.removeprefix("search:"))
        if fuel < (1 if search else 0):
            raise ValueError
    except ValueError:
        if search:
            _usage(f"clockwork: bad --fuel search spec {spec!r}")
        _usage(f"clockwork: bad --fuel {spec!r}: expected N or search:MAX")
    return search, fuel


def _emit(obj: dict) -> None:
    try:
        text = json.dumps(obj, separators=(",", ":"))
    except ValueError as e:  # an int longer than sys.get_int_max_str_digits()
        _usage(f"clockwork: a value is too long to print: {e}")
    print(text)


# The steps of `run --oracle`'s first oracle leg, run in process; only a
# run still going after them forks a helper.  On 2 vCPUs the leg takes
# about 0.2 ms, which a run that goes on pays again, against about 1.7 ms
# for a fork, its answer and its reap from an 18 MB process.  So a tiny
# run forks nothing, and neither does any program of the goldens.  A run
# of a few thousand steps forks and does not win its fork back; a longer
# leg would spare it that, at the cost of every longer run.
_ORACLE_FIRST_LEG = 1024


def _oracle_steps(outcome) -> Optional[int]:
    return outcome.steps if isinstance(outcome, Terminated) else None


def _oracle_helper(out: BinaryIO, com: Com, store: Store, cap: int) -> None:
    """Writes the oracle's steps in ASCII decimal, or L if step-limited."""
    # The child leaves with os._exit; a GC pass would copy the pages of
    # every inherited object it walks.
    gc.disable()
    outcome = run_oracle(com, store, cap)
    out.write(b"L" if isinstance(outcome, StepLimit) else str(outcome.steps).encode())


def _start_oracle(com: Com, store: Store, cap: int, helpers: list[tuple[int, BinaryIO]]) -> Callable[[], Optional[int]]:
    """Starts the oracle run of `run --oracle`; returns the function that
    gives its steps, None if step-limited, once the evaluator has run.

    The oracle first runs here up to ``_ORACLE_FIRST_LEG`` steps, which
    settles most runs.  A run still going then goes on to `cap` in one
    forked helper, added to `helpers`, where the process may use more
    than one CPU.  On anything but the helper's well-formed answer (a
    failed fork, a helper that dies or raises), or on one CPU, the oracle
    runs here after the evaluator, as if alone; so does an oracle that
    raised in its first leg, so that the evaluator's error comes first.
    """

    def serial() -> Optional[int]:
        return _oracle_steps(run_oracle(com, store, cap))

    try:
        outcome = run_oracle(com, store, min(cap, _ORACLE_FIRST_LEG))
    except Exception:  # raised again by serial(), after the evaluator ran
        return serial
    if isinstance(outcome, Terminated) or cap <= _ORACLE_FIRST_LEG:
        return lambda: _oracle_steps(outcome)
    if _cpus() < 2:
        return serial
    try:
        helpers.append(_fork_child(lambda out: _oracle_helper(out, com, store, cap)))
    except OSError:  # no process to be had
        return serial
    reader = helpers[-1][1]

    def answer() -> Optional[int]:
        data = reader.read()
        if data == b"L":
            return None
        return int(data) if data.isdigit() else serial()

    return answer


def cmd_run(args: argparse.Namespace) -> int:
    com = _load_program(args.file)
    store = _parse_init(args.init)
    sem_key = args.sem.replace("-", "_")
    search, fuel = _parse_fuel(args.fuel)
    if args.cap < 1:
        _usage("clockwork: --cap must be positive")
    report: dict[str, object] = {"semantics": args.sem, "fuel_in": f"search:{fuel}" if search else fuel}
    helpers: list[tuple[int, BinaryIO]] = []
    try:
        oracle_steps = _start_oracle(com, store, args.cap, helpers) if args.oracle else None
        result = None
        if search:
            found = fuel_search(sem_key, com, store, fuel)
            if found is not None:
                fuel, result = found
        else:
            result = SEMANTICS[sem_key](com, store, fuel)

        if result is None:
            report["outcome"] = "not-found" if search else "timeout"
        elif isinstance(result, Store):
            report["outcome"] = "final"
            report["store"] = result.to_dict()
            # The evaluator's result is reported; its twin measures the fuel.
            report["fuel_consumed"] = least_fuel(com, store, fuel, sem_key == "ev")[1]
        else:
            final_store, leftover = result
            report["outcome"] = "final"
            report["store"] = final_store.to_dict()
            report["leftover_fuel"] = leftover
            report["fuel_consumed"] = fuel - leftover

        if oracle_steps is not None:
            report["oracle_steps"] = oracle_steps()
    finally:
        _reap_children(helpers)

    _emit(report)
    return EXIT_OK if result is not None else EXIT_TIMEOUT


def cmd_trace(args: argparse.Namespace) -> int:
    com = _load_program(args.file)
    store = _parse_init(args.init)
    if args.cap < 1:
        _usage("clockwork: --cap must be positive")
    count = -1
    render = TraceRenderer().render
    for focus, context, s in iter_trace(com, store, args.cap):
        try:
            line = render(focus, context, s)
        except ValueError as e:
            _usage(f"clockwork: a value is too long to print: {e}")
        print(line)
        count += 1
    if type(focus) is Skip and not context:
        print(f"steps: {count}")
        return EXIT_OK
    print(f"step-limit: {args.cap}")
    return EXIT_TIMEOUT


def cmd_check(args: argparse.Namespace) -> int:
    if args.all and args.properties:
        _usage("clockwork: give property ids or --all, not both")
    ids: Sequence[str] = PROPERTY_IDS if args.all else args.properties
    if not ids:
        _usage("clockwork: nothing to check; give property ids or --all")
    for i, pid in enumerate(ids):
        if pid not in PROPERTY_IDS:
            _usage(f"clockwork: unknown property id {pid!r} (known: {', '.join(PROPERTY_IDS)})")
        if pid in ids[:i]:
            _usage(f"clockwork: property id {pid!r} given twice")
    if args.cases < 0:
        _usage("clockwork: --cases must be non-negative")
    seed = args.seed
    if seed is None:
        try:
            seed = _decimal(os.environ.get("CLOCKWORK_SEED", str(_DEFAULT_SEED)))
        except ValueError:
            _usage("clockwork: CLOCKWORK_SEED must be an integer")
    cfg = GenConfig(seed=seed)
    all_passed = True
    # One process per CPU, each with one memo: a worker draws each of its
    # cases' inputs once for all the campaigns, which never share results.
    with Campaigns(ids, cfg, args.cases) as campaigns:
        for pid in ids:
            report = run_property(pid, cfg, args.cases, campaigns)
            _emit(report.to_json_dict())
            all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_TIMEOUT


def cmd_parse(args: argparse.Namespace) -> int:
    com = _load_program(args.file)
    _emit({"pretty": pretty(com)})
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "trace": cmd_trace,
        "check": cmd_check,
        "parse": cmd_parse,
    }[args.command]
    try:
        return handler(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except (RecursionError, MemoryError) as e:
        print(f"clockwork: {args.command}: input too deep or too large ({type(e).__name__})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
