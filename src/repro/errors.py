"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ChainError(ReproError):
    """An invalid closed chain (connectivity, parity, coincident neighbours)."""


class InvariantViolation(ReproError):
    """A model invariant was broken during simulation.

    Raised by :mod:`repro.core.invariants` when invariant checking is
    enabled; indicates a bug in the algorithm implementation rather than
    a property of the input.
    """


class StallError(ReproError):
    """The simulation exceeded its round budget without gathering.

    Carries diagnostic information so stalls can be reproduced and
    analysed (the configuration, round counts and run census).
    """

    def __init__(self, message: str, round_index: int, n: int, positions=None):
        super().__init__(message)
        self.round_index = round_index
        self.n = n
        self.positions = list(positions) if positions is not None else None


class LocalityViolation(ReproError):
    """A decision procedure read beyond the viewing path length."""


class WorkerCrashError(ReproError):
    """A shard worker failed: a chain killed its worker (SIGKILL, OOM,
    broken pipe) every time it ran alone, or the worker died of an
    error it could not ship back.

    Carries the shard, the stream indices involved and, for a
    convicted chain, how many solo worker deaths convicted it
    (``retries``).  Raised by :mod:`repro.core.shards` in strict mode;
    in quarantine mode a convicted chain's record rides in a
    :class:`~repro.core.results.ChainOutcome` (stage ``"worker"``)
    instead.
    """

    def __init__(self, message: str, worker: int = -1,
                 indices=None, retries: int = 0):
        super().__init__(message)
        self.worker = worker
        self.indices = list(indices) if indices is not None else []
        self.retries = retries


class QuarantinedChainError(ReproError):
    """A stream entry was quarantined but the caller demanded a result.

    Raised by :meth:`repro.core.results.ChainOutcome.unwrap` (and the
    strict-mode streaming paths built on it) when a chain's outcome is
    an error record — poisoned input, an invariant violation pinned to
    the chain, or worker-crash retry exhaustion.
    """

    def __init__(self, message: str, index: int = -1, stage: str = ""):
        super().__init__(message)
        self.index = index
        self.stage = stage


class WalError(ReproError):
    """A write-ahead log or snapshot could not be written, read or resumed.

    Raised by :mod:`repro.io.wal` for structural problems — a missing
    or corrupt log, a broken LSN sequence, a snapshot whose file is
    gone, or a resume whose chain stream is shorter than the recorded
    admission cursor.  (Unknown record *versions* raise
    :class:`ChainError` through the shared document validation, like
    every other serialized format.)
    """
