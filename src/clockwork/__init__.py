"""Clocked big-step interpreters for a While language, with a small-step
oracle and a differential property-testing harness."""

from .clocked_env import EnvResult, ev, ev_min
from .clocked_state import StateResult, cval, cval_guard, cval_tick, fix_clock
from .imp import (
    Aexp,
    And,
    Bc,
    Bexp,
    Com,
    If,
    Less,
    N,
    Not,
    Plus,
    Seq,
    Set,
    Skip,
    Store,
    V,
    While,
    aval,
    bval,
    pretty,
    pretty_aexp,
    pretty_bexp,
    size,
)
from .parser import ParseError, parse_aexp, parse_bexp, parse_com
from .smallstep import Config, OracleOutcome, StepLimit, Terminated, iter_trace, run_oracle, step
from .testkit import GenConfig, PropertyReport, fuel_search, gen_com, run_property

__version__ = "0.1.0"
