"""Exception hierarchy for the S2FA reproduction.

Every subsystem raises a subclass of :class:`S2FAError` so callers can
distinguish user-facing failures (unsupported Scala constructs, infeasible
designs) from programming errors, which surface as plain Python exceptions.
"""

from __future__ import annotations


class S2FAError(Exception):
    """Base class for all errors raised by the framework."""


class ScalaSyntaxError(S2FAError):
    """The mini-Scala frontend could not parse the kernel source."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ScalaTypeError(S2FAError):
    """The kernel source is syntactically valid but ill-typed."""


class UnsupportedConstructError(S2FAError):
    """The kernel uses a construct outside the supported subset (Section 3.3).

    The paper restricts kernels to primitive types plus known composite
    classes, constant-size allocation, and no arbitrary library calls.  The
    same restrictions apply here; violating them raises this error rather
    than producing wrong code.
    """


class BytecodeError(S2FAError):
    """Malformed or unverifiable JVM bytecode."""


class JVMRuntimeError(S2FAError):
    """The JVM interpreter hit an unrecoverable condition (e.g. bad index)."""


class DecompileError(S2FAError):
    """The bytecode-to-C compiler could not lift a method.

    Raised when control flow is irreducible, the operand stack is
    inconsistent across predecessors, or an object layout cannot be
    flattened to C arrays.
    """


class TransformError(S2FAError):
    """A Merlin-style code transformation could not be applied."""


class HLSError(S2FAError):
    """The HLS estimator rejected a design outright (not mere infeasibility)."""


class UnknownDeviceError(HLSError):
    """A device name is not in the :class:`~repro.hls.device.DeviceRegistry`.

    Carries the offending ``name`` and the sorted tuple of ``known``
    registered names, which the message lists so a typo is a one-glance
    fix at the CLI.
    """

    def __init__(self, name: str, known=()):
        known = tuple(sorted(known))
        listing = ", ".join(known) if known else "<none>"
        super().__init__(
            f"unknown device {name!r}; registered devices: {listing}")
        self.name = name
        self.known = known


class DSEError(S2FAError):
    """Design space exploration misconfiguration."""


class CostModelError(S2FAError):
    """A cost model could not be constructed, loaded, or applied.

    Raised for malformed surrogate artifacts, feature-schema mismatches,
    and models asked to score a kernel they were never trained for —
    never for an infeasible design (that is a result, not an error).
    """


class DatasetError(S2FAError):
    """The QoR dataset pipeline hit a misconfiguration or a bad file."""


class ExplorationInterrupted(DSEError):
    """The exploration stopped early on an operator/scheduler signal.

    Raised at a batch boundary after the in-flight batch finished, so
    every estimate so far is in the persistent cache and a rerun over it
    resumes the run; ``rounds`` counts the completed batches.  The CLI
    maps this to a distinct exit code so schedulers can tell "preempted
    but resumable" from "failed".
    """

    def __init__(self, message: str, rounds: int = 0):
        super().__init__(message)
        self.rounds = rounds


class ServeError(S2FAError):
    """Serve-daemon failure surfaced to a client.

    Carries the response ``status`` (one of the codes in
    :mod:`repro.serve.request`), whether the request is ``retryable``
    verbatim, and the backpressure hint ``retry_after_s`` (virtual
    seconds before a retry has a chance) when the daemon provided one.
    """

    def __init__(self, message: str, status: str = "ERROR",
                 retryable: bool = False,
                 retry_after_s=None):
        super().__init__(message)
        self.status = status
        self.retryable = retryable
        self.retry_after_s = retry_after_s


class StreamError(S2FAError):
    """Streaming-layer misconfiguration or state/sink corruption.

    Raised for bad :class:`~repro.config.StreamConfig` knobs, checkpoint
    identity mismatches on resume, and sink files whose *complete* lines
    fail to parse (a torn final line is repaired silently — only
    acknowledged data is held to the integrity bar).
    """


class StreamInterrupted(StreamError):
    """A streaming run stopped gracefully at a micro-batch boundary.

    Raised after the boundary checkpoint was flushed, so the stream is
    *resumable*: ``checkpoint_path`` names the checkpoint file (``None``
    when checkpointing is disabled) and ``batches`` counts the completed
    micro-batches.  The CLI maps this to the same "preempted but
    resumable" exit code as :class:`ExplorationInterrupted`.
    """

    def __init__(self, message: str, checkpoint_path=None,
                 batches: int = 0):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.batches = batches


class BlazeError(S2FAError):
    """Blaze runtime integration failure (registration, serialization...)."""


class DeviceError(BlazeError):
    """A fault surfaced by the FPGA device model during one invocation.

    ``seconds`` is the *virtual* time the host spent before the failure
    surfaced (DMA setup for a transient, the full deadline for a hang),
    so the runtime can charge the wasted time to its clock and metrics.
    """

    def __init__(self, message: str, seconds: float = 0.0):
        super().__init__(message)
        self.seconds = seconds


class DeviceFault(DeviceError):
    """Transient run failure: the invocation aborted and may be retried."""


class DeviceTimeout(DeviceError):
    """The device hung; the host gave up after the batch deadline."""


class DeviceLostError(DeviceError):
    """Permanent device loss: no future invocation on this board works."""


class CorruptResultError(DeviceError):
    """The result frame (CRC/canary) of a DMA read-back does not verify."""
