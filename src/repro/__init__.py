"""repro — reproduction of "Active I/O Switches in System Area Networks"
(Hao & Heinrich, HPCA 2003).

A discrete-event simulation of SAN clusters built around *active
switches*: conventional cut-through switches augmented with embedded
processors, on-chip data buffers with valid-bit streaming, an address
translation buffer, and a message-driven handler dispatch unit.

Layers (each usable on its own):

* :mod:`repro.sim` — generator-based discrete-event kernel;
* :mod:`repro.mem`, :mod:`repro.cpu` — caches/TLBs/RDRAM and the host
  and switch processor models;
* :mod:`repro.net`, :mod:`repro.switch`, :mod:`repro.io` — the SAN
  fabric, the (active) switch, and the storage subsystem;
* :mod:`repro.cluster` — system assembly and the bulk I/O pipeline;
* :mod:`repro.apps` — the paper's nine benchmarks;
* :mod:`repro.runner` — parallel experiment harness with deterministic
  result caching (``python -m repro.runner``);
* :mod:`repro.obs` — observability: structured tracing with Chrome
  ``trace_event``/CSV/terminal exporters and the metrics registry
  (``repro.run(..., trace=True)``);
* :mod:`repro.experiments` — every table/figure, runnable
  (``python -m repro.experiments [--parallel N]``).

Quickstart::

    import repro

    result = repro.run("grep", scale=0.25)
    print(result.report().performance())

    # Open-loop service traffic: how much load does a config sustain?
    spec = repro.ServiceSpec(app="grep", case="active",
                             rate_rps=4000, slo_ms=1.0)
    print(repro.serve(spec).report().latency())

``repro.run`` accepts any registered benchmark name, a ``StreamApp``
subclass, or a zero-argument factory callable; the canonical typed
form bundles every knob in a frozen :class:`RunOptions`
(``repro.run("grep", repro.RunOptions(parallel=4, cache=True))``) —
see docs/api.md.  ``repro.serve`` is the open-loop analogue, driven by
a frozen :class:`ServiceSpec`.
"""

from .cluster import (
    CASE_ORDER,
    ClusterConfig,
    PRESETS,
    ReadStream,
    System,
    case_configs,
    get_preset,
)
from .faults import (
    DiskFaults,
    FailStopEvent,
    FailStopFaults,
    FaultInjector,
    FaultPlan,
    HandlerFaults,
    LinkFaults,
    ScsiFaults,
)
from .metrics import (
    BenchmarkResult,
    CaseResult,
    QuantileEstimator,
    Report,
    breakdown_table,
    latency_table,
    performance_table,
    reliability_table,
)
from .obs import (
    MetricsRegistry,
    TraceCollector,
    TraceEvent,
    load_chrome_trace,
    write_chrome_trace,
)
from .runner import (
    AppSpec,
    ExperimentRunner,
    ResultCache,
    RunOptions,
    RunResult,
    configure,
    make_spec,
    paper_grid,
    register_app,
    run,
    run_many,
)
from .sim import Environment
from .switch import ActiveSwitch, ActiveSwitchConfig, BaseSwitch
from .traffic import (
    KneeSearch,
    ServiceResult,
    ServiceSpec,
    ServiceSweep,
    find_knee,
    make_service_spec,
    serve,
    sweep_offered_load,
)

__version__ = "2.0.2"

#: Authoritative public surface: `import *`, the docs' API reference,
#: and tests/test_public_api.py all derive from this list.
__all__ = [
    # Unified front door
    "run",
    "run_many",
    "configure",
    "RunOptions",
    "RunResult",
    # Open-loop service traffic
    "serve",
    "ServiceSpec",
    "ServiceResult",
    "ServiceSweep",
    "KneeSearch",
    "find_knee",
    "make_service_spec",
    "sweep_offered_load",
    # Harness building blocks
    "AppSpec",
    "ExperimentRunner",
    "ResultCache",
    "make_spec",
    "paper_grid",
    "register_app",
    # Cluster configuration
    "CASE_ORDER",
    "ClusterConfig",
    "PRESETS",
    "get_preset",
    "case_configs",
    "ReadStream",
    "System",
    # Fault injection
    "DiskFaults",
    "FailStopEvent",
    "FailStopFaults",
    "FaultInjector",
    "FaultPlan",
    "HandlerFaults",
    "LinkFaults",
    "ScsiFaults",
    # Results and reporting
    "BenchmarkResult",
    "CaseResult",
    "QuantileEstimator",
    "Report",
    "breakdown_table",
    "latency_table",
    "performance_table",
    "reliability_table",
    # Observability
    "MetricsRegistry",
    "TraceCollector",
    "TraceEvent",
    "load_chrome_trace",
    "write_chrome_trace",
    # Simulation kernel
    "Environment",
    # Switch models
    "ActiveSwitch",
    "ActiveSwitchConfig",
    "BaseSwitch",
    "__version__",
]
