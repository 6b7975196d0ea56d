"""Differential fuzzing of notification semantics.

Seeded random SPMD op programs (put/get/amo/rpc mixes over local and
off-node targets, with random wait points) are executed under eager
and deferred configurations; both must agree on final memory state,
per-op values, and completion counts, and each (program, flags) pair
must replay bit-identically (including virtual clocks).  See
:mod:`repro.fuzz.programs` for the program format and confluence
argument, :mod:`repro.fuzz.runner` for execution, and
``python -m repro.fuzz`` for the CI entry point.
"""

from repro.fuzz.programs import (
    FuzzPhase,
    FuzzProgram,
    generate_program,
    program_from_json,
    program_to_json,
)
from repro.fuzz.runner import (
    CX_MODES,
    MODES,
    FuzzOutcome,
    check_program,
    mode_flags,
    run_program,
)

__all__ = [
    "FuzzPhase",
    "FuzzProgram",
    "generate_program",
    "program_from_json",
    "program_to_json",
    "CX_MODES",
    "MODES",
    "FuzzOutcome",
    "mode_flags",
    "run_program",
    "check_program",
]
