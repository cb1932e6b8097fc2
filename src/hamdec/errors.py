"""Exception hierarchy shared by all hamdec modules.

Every failure carries enough data to reproduce it: witnesses for
infeasibility errors, seeds and stage tags for pipeline errors.
"""

from __future__ import annotations


class HamdecError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(HamdecError):
    """An input value violates a structural precondition (e.g. a vertex
    outside every cluster, a non-cycle where a cycle is required)."""


class InvalidParameter(HamdecError):
    """A numeric parameter is out of range or arithmetically infeasible.

    May carry a remediation hint in ``hint``.
    """

    def __init__(self, msg: str, hint: str | None = None):
        super().__init__(msg if hint is None else f"{msg} (hint: {hint})")
        self.hint = hint


class InvalidExceptionalSystem(HamdecError):
    """A path system violates the exceptional-system axioms."""


class DegreeHypothesisViolated(HamdecError):
    """Flow-based regular subgraph extraction failed.

    ``witness`` is a pair of vertex sets (S1, S2) on the two sides such
    that e(S1, V \\ S2) < r * (|S1| - |S2|), i.e. a cut certifying that
    no r-regular spanning subgraph exists.
    """

    def __init__(self, msg: str, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotConsistent(HamdecError):
    """A cycle does not contain / visit an ordered matching as required."""


class SpliceVerificationFailed(HamdecError):
    """Post-verification of a splice failed; indicates an upstream bug."""


class ReservoirExhausted(HamdecError):
    """A greedy matching or reservoir allocation ran out of edges."""


class SamplingFailed(HamdecError):
    """A randomized reservoir failed its checks: ``reserve_sparse`` on
    every retry, ``reserve_regular`` on its one draw.

    ``failures`` maps condition names to how often they failed.
    """

    def __init__(self, msg: str, failures=None):
        super().__init__(msg)
        self.failures = failures or {}


class MatchingInfeasible(HamdecError):
    """No perfect matching exists; ``witness`` is a Hall violator set."""

    def __init__(self, msg: str, witness=None):
        super().__init__(msg)
        self.witness = witness


class HamiltonSearchExhausted(HamdecError):
    """No reservoir move is left: the cycle merge found neither a 2-switch
    nor a 4-arc join, or the waypoint reorder no block move.  The message
    names the pair and the unused reservoir arcs of its block, leaving out
    the arcs on the slot's current cycle, and the slice assembly adds the
    slot; the pipeline retries the slice with a fresh reservoir."""


class AssemblyVerificationFailed(HamdecError):
    """Post-verification of an assembled Hamilton cycle failed."""


class PipelineError(HamdecError):
    """Wraps a module error with (stage, slice, slot, seed) for reproduction."""

    def __init__(self, stage: str, cause: Exception, slice_index=None,
                 slot=None, seed=None):
        self.stage = stage
        self.cause = cause
        self.slice_index = slice_index
        self.slot = slot
        self.seed = seed
        loc = ", ".join(
            f"{k}={v}" for k, v in
            [("slice", slice_index), ("slot", slot), ("seed", seed)]
            if v is not None)
        super().__init__(f"[stage={stage}{', ' + loc if loc else ''}] {cause}")
