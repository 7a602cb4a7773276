"""S2FA reproduction: Spark-to-FPGA-Accelerator automation framework.

The package mirrors the paper's architecture (Fig. 1):

* :mod:`repro.scala` — mini-Scala frontend producing JVM bytecode.
* :mod:`repro.jvm` — JVM classfile/bytecode substrate and interpreter.
* :mod:`repro.compiler` — the bytecode-to-C compiler (APARAPI-derived stage).
* :mod:`repro.hlsc` — the HLS-C intermediate representation.
* :mod:`repro.merlin` — Merlin-style source-to-source transformation library.
* :mod:`repro.hls` — simulated Xilinx SDx HLS estimation backend.
* :mod:`repro.cost` — pluggable cost models (analytical estimator +
  learned surrogate) behind one ``CostModel`` protocol.
* :mod:`repro.dataset` — QoR dataset factory and surrogate trainer.
* :mod:`repro.dse` — learning-based parallel design space exploration.
* :mod:`repro.spark` / :mod:`repro.blaze` / :mod:`repro.fpga` — the runtime
  integration substrate (RDDs, accelerator service, device simulator).
* :mod:`repro.apps` — the eight evaluation kernels of Section 5.
* :mod:`repro.obs` — span tracing + metrics observability layer.

The public entry point is :class:`repro.S2FASession`: one object owning
the run configuration (:class:`ExploreConfig` / :class:`RuntimeConfig`),
the tracer, and a compile cache, with ``compile``/``explore``/``run``
verbs over built-in application names, specs, or raw Scala source.
"""

__version__ = "1.1.0"

from .config import DatasetConfig, ExploreConfig, RuntimeConfig, StreamConfig
from .errors import S2FAError, UnknownDeviceError
from .hls.device import Device, DeviceRegistry, device_names, get_device
from .s2fa import (
    AcceleratorBuild,
    DeviceSweep,
    RunOutcome,
    S2FASession,
)

__all__ = [
    "AcceleratorBuild",
    "DatasetConfig",
    "Device",
    "DeviceRegistry",
    "DeviceSweep",
    "ExploreConfig",
    "RunOutcome",
    "RuntimeConfig",
    "S2FAError",
    "S2FASession",
    "StreamConfig",
    "UnknownDeviceError",
    "device_names",
    "get_device",
    "__version__",
]
