"""Differential verification: fuzzing, invariants, and a machine oracle.

The paper's argument is a web of *ordering claims* between issue methods
(dataflow bound >= RUU >= Tomasulo >= scoreboard >= in-order, RUU
performance monotone in RUU size).  This package enforces those claims
mechanically, on randomly generated traces, so a silently-wrong machine
model is caught before it corrupts a table:

* :mod:`repro.verify.fuzz` -- seeded generator of random-but-well-formed
  scalar traces (stdlib :mod:`random` only);
* :mod:`repro.verify.invariants` -- per-cycle checks over the
  :mod:`repro.obs.events` stream (no new code in simulator hot paths);
* :mod:`repro.verify.oracle` -- cross-machine differential oracle: the
  partial order of cycle counts plus the dataflow/resource limit bounds;
* :mod:`repro.verify.shrink` -- delta-debugging minimiser for failing
  traces;
* :mod:`repro.verify.runner` -- the ``repro verify`` driver tying the
  layers together.
"""

from .fuzz import FuzzSpec, fuzz_trace, kernel_calibrated_spec
from .invariants import (
    InvariantViolation,
    MachineProfile,
    ObservedReplay,
    check_invariants,
    profile_for_spec,
)
from .oracle import (
    DEFAULT_EDGES,
    DEFAULT_ORACLE_MACHINES,
    OracleReport,
    OracleViolation,
    OrderingEdge,
    run_oracle,
)
from .runner import VerifyFailure, VerifyOptions, VerifyReport, run_verification
from .shrink import shrink_trace

__all__ = [
    "DEFAULT_EDGES",
    "DEFAULT_ORACLE_MACHINES",
    "FuzzSpec",
    "InvariantViolation",
    "MachineProfile",
    "ObservedReplay",
    "OracleReport",
    "OracleViolation",
    "OrderingEdge",
    "VerifyFailure",
    "VerifyOptions",
    "VerifyReport",
    "check_invariants",
    "fuzz_trace",
    "kernel_calibrated_spec",
    "profile_for_spec",
    "run_oracle",
    "run_verification",
    "shrink_trace",
]
