"""The unified ``repro.run()`` front door.

One call runs any registered application through the harness::

    import repro

    result = repro.run("grep", scale=0.25)             # serial
    result = repro.run("grep", scale=0.25, parallel=4) # process pool
    result = repro.run("grep", scale=0.25, cache=True) # cached

``run`` returns a :class:`RunResult` — a
:class:`~repro.metrics.BenchmarkResult` carrying harness statistics and
the :meth:`~repro.metrics.BenchmarkResult.report` accessor — and is
deterministic: serial, parallel, and cache-restored invocations produce
field-identical results.

:func:`configure` sets process-wide defaults (picked up by the
experiment registry, so ``python -m repro.experiments --parallel N``
routes every figure through the same pool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..metrics.results import BenchmarkResult, CaseResult
from .harness import CASE_LABELS, ExperimentRunner
from .options import RunOptions, make_run_options
from .progress import Progress
from .spec import AppSpec, make_spec

#: Process-wide defaults applied when ``run()`` arguments are ``None``.
_DEFAULTS: Dict[str, object] = {
    "parallel": 1,
    "cache": None,
    "show_progress": False,
    "start_method": None,
}


def configure(**defaults) -> Dict[str, object]:
    """Set process-wide harness defaults; returns the effective set.

    Recognized keys: ``parallel``, ``cache``, ``show_progress``,
    ``start_method``.  ``python -m repro.experiments --parallel N``
    calls this once so every registered experiment inherits the pool.
    """
    unknown = set(defaults) - set(_DEFAULTS)
    if unknown:
        raise TypeError(f"unknown configure() keys: {sorted(unknown)}")
    _DEFAULTS.update(defaults)
    return dict(_DEFAULTS)


def _default(name: str, value):
    return _DEFAULTS[name] if value is None else value


@dataclass
class RunResult(BenchmarkResult):
    """A :class:`BenchmarkResult` plus harness bookkeeping.

    ``stats`` records how the cells were obtained (simulated vs cache
    hits, wall-clock, worker count); the measured data is exactly what
    the equivalent serial run produces.
    """

    stats: Dict[str, object] = field(default_factory=dict)
    #: Case label -> ``repro.obs.TraceCollector``; populated only by
    #: ``run(trace=...)``.  Traces ride on the RunResult, never inside
    #: the CaseResults, so traced and untraced results stay identical.
    traces: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_benchmark(cls, result: BenchmarkResult,
                       stats: Optional[Dict[str, object]] = None
                       ) -> "RunResult":
        return cls(name=result.name, cases=dict(result.cases),
                   stats=dict(stats or {}))


def run(app, cases: Optional[Sequence[str]] = None, *,
        options: Optional[RunOptions] = None,
        parallel: Optional[int] = None,
        cache=None,
        seed: Optional[int] = None,
        preset: Optional[str] = None,
        overrides: Optional[dict] = None,
        name: Optional[str] = None,
        show_progress: Optional[bool] = None,
        progress: Optional[Progress] = None,
        trace=None,
        profile: bool = False,
        **params) -> RunResult:
    """Run ``app`` through the experiment harness.

    The canonical calling convention is typed (docs/api.md)::

        opts = repro.RunOptions(parallel=4, cache=True, seed=7)
        result = repro.run("grep", opts)        # or options=opts

    The bare keywords below remain supported as a thin compatibility
    wrapper — they build the same :class:`RunOptions` internally, and
    mixing an options object with loose keywords is an error.

    Parameters
    ----------
    app:
        A registered application name (``"grep"``), a ``module:Class``
        path, a :class:`~repro.apps.StreamApp` subclass, an
        :class:`AppSpec`, or a zero-argument factory callable
        (factories cannot be fingerprinted or pickled, so they always
        run serially and uncached).
    cases:
        Case labels to run; defaults to all four paper configurations.
        (A :class:`RunOptions` here is treated as ``options``.)
    options:
        A :class:`RunOptions` carrying every parameter below.
    parallel, cache, show_progress:
        Override the :func:`configure` defaults for this call.
    seed:
        Master-seed override applied to every case's configuration.
    preset, overrides, ``**params``:
        Forwarded to :func:`make_spec` (technology preset, flat config
        overrides, app constructor parameters).
    trace:
        ``True`` to record a structured trace per case (returned as
        ``result.traces``), or a file path to additionally write the
        merged Chrome ``trace_event`` JSON there (openable in Perfetto).
        Tracing forces serial in-process execution and bypasses the
        cache — a cache hit would skip the simulation a trace observes.
        The measured ``CaseResult``s are identical with or without
        tracing (see docs/observability.md).
    profile:
        ``True`` to run each case under :mod:`cProfile`, dumping one
        ``.pstats`` file per case next to the result cache (under
        ``<cache dir>/profiles/``).  ``result.report().profile()``
        renders the top entries; the raw paths are in
        ``result.stats["profiles"]``.  Profiling forces serial
        in-process execution and bypasses the cache, like tracing.
    progress:
        A live :class:`~repro.runner.Progress` sink (a runtime channel,
        not configuration — deliberately outside :class:`RunOptions`).
    """
    opts = make_run_options(
        options, cases, parallel=parallel, cache=cache, seed=seed,
        preset=preset, overrides=overrides, name=name,
        show_progress=show_progress, trace=trace, profile=profile,
        params=params)
    return _run_with_options(app, opts, progress=progress)


def _run_with_options(app, opts: RunOptions,
                      progress: Optional[Progress] = None) -> RunResult:
    """The typed execution path every ``run()`` call goes through."""
    parallel = _default("parallel", opts.parallel)
    cache = _default("cache", opts.cache)
    show_progress = _default("show_progress", opts.show_progress)
    params = dict(opts.params)
    overrides = dict(opts.overrides) or None

    if opts.profile:
        return _run_profiled(app, cases=opts.cases, seed=opts.seed,
                             name=opts.name, preset=opts.preset,
                             overrides=overrides, params=params)

    if opts.trace:
        return _run_traced(app, cases=opts.cases, seed=opts.seed,
                           name=opts.name, preset=opts.preset,
                           overrides=overrides, params=params,
                           trace=opts.trace)

    if callable(app) and not isinstance(app, type):
        if params or opts.preset or overrides:
            raise TypeError(
                "factory callables take no spec parameters; pass a "
                "registered name or application class instead")
        return _run_factory(app, cases=opts.cases, seed=opts.seed,
                            name=opts.name)

    spec = make_spec(app, preset=opts.preset, overrides=overrides, **params)
    runner = ExperimentRunner(
        parallel=parallel, cache=cache, progress=progress,
        show_progress=show_progress,
        start_method=_DEFAULTS["start_method"])  # type: ignore[arg-type]
    result = runner.run_app(spec, cases=opts.cases, seed=opts.seed,
                            name=opts.name)
    cache = runner.cache  # may be empty, hence len()==0 and falsy
    stats = {
        "parallel": runner.parallel,
        "cache_dir": str(cache.root) if cache is not None else None,
        "cache_hits": cache.hits if cache is not None else 0,
        "spec": spec,
        "options": opts,
    }
    return RunResult.from_benchmark(result, stats)


def _run_factory(app_factory, cases: Optional[Sequence[str]],
                 seed: Optional[int], name: Optional[str]) -> RunResult:
    """Old-API path: fresh app per case, serial, uncached."""
    from dataclasses import replace

    labels = tuple(cases) if cases is not None else CASE_LABELS
    results: Dict[str, CaseResult] = {}
    app_name = name
    for label in labels:
        instance = app_factory()
        if app_name is None:
            app_name = instance.name
        config = instance.cluster_config()
        if seed is not None:
            config = replace(config, seed=seed)
        config = config.with_case(active=label.startswith("active"),
                                  prefetch=label.endswith("+pref"))
        results[label] = instance.run_case(config)
    return RunResult(name=app_name or "benchmark", cases=results,
                     stats={"parallel": 1, "cache_dir": None,
                            "cache_hits": 0, "spec": None})


def _run_traced(app, *, cases: Optional[Sequence[str]],
                seed: Optional[int], name: Optional[str],
                preset: Optional[str], overrides: Optional[dict],
                params: dict, trace) -> RunResult:
    """Traced path: serial, in-process, uncached — one collector per case."""
    import os
    from dataclasses import replace

    from ..obs.export import write_chrome_trace
    from ..obs.trace import TraceCollector

    factory = callable(app) and not isinstance(app, type)
    spec = None
    if factory:
        if params or preset or overrides:
            raise TypeError(
                "factory callables take no spec parameters; pass a "
                "registered name or application class instead")
    else:
        spec = make_spec(app, preset=preset, overrides=overrides, **params)

    labels = tuple(cases) if cases is not None else CASE_LABELS
    results: Dict[str, CaseResult] = {}
    collectors: Dict[str, object] = {}
    app_name = name
    for label in labels:
        instance = app() if factory else spec.build()
        if app_name is None:
            app_name = instance.name
        config = (instance.cluster_config() if factory
                  else spec.base_config(instance))
        if seed is not None:
            config = replace(config, seed=seed)
        config = config.with_case(active=label.startswith("active"),
                                  prefetch=label.endswith("+pref"))
        collector = TraceCollector()
        results[label] = instance.run_case(config, trace=collector)
        collectors[label] = collector

    trace_path = None
    if not isinstance(trace, bool):
        trace_path = os.fspath(trace)
        write_chrome_trace(trace_path, collectors)
    return RunResult(name=app_name or "benchmark", cases=results,
                     stats={"parallel": 1, "cache_dir": None,
                            "cache_hits": 0, "spec": spec,
                            "trace_path": trace_path},
                     traces=collectors)


def _run_profiled(app, *, cases: Optional[Sequence[str]],
                  seed: Optional[int], name: Optional[str],
                  preset: Optional[str], overrides: Optional[dict],
                  params: dict) -> RunResult:
    """Profiled path: serial, in-process, uncached — one cProfile per
    case, dumped as pstats next to the result cache."""
    import cProfile
    from dataclasses import replace

    from .cache import default_cache_dir

    factory = callable(app) and not isinstance(app, type)
    spec = None
    if factory:
        if params or preset or overrides:
            raise TypeError(
                "factory callables take no spec parameters; pass a "
                "registered name or application class instead")
    else:
        spec = make_spec(app, preset=preset, overrides=overrides, **params)

    profile_dir = default_cache_dir() / "profiles"
    profile_dir.mkdir(parents=True, exist_ok=True)
    labels = tuple(cases) if cases is not None else CASE_LABELS
    results: Dict[str, CaseResult] = {}
    profiles: Dict[str, str] = {}
    app_name = name
    for label in labels:
        instance = app() if factory else spec.build()
        if app_name is None:
            app_name = instance.name
        config = (instance.cluster_config() if factory
                  else spec.base_config(instance))
        if seed is not None:
            config = replace(config, seed=seed)
        config = config.with_case(active=label.startswith("active"),
                                  prefetch=label.endswith("+pref"))
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            results[label] = instance.run_case(config)
        finally:
            profiler.disable()
        path = profile_dir / f"{app_name}-{label}.pstats"
        profiler.dump_stats(path)
        profiles[label] = str(path)
    return RunResult(name=app_name or "benchmark", cases=results,
                     stats={"parallel": 1, "cache_dir": None,
                            "cache_hits": 0, "spec": spec,
                            "profiles": profiles})


def run_many(specs: Sequence, *,
             parallel: Optional[int] = None,
             cache=None,
             cases: Optional[Sequence[str]] = None,
             seeds: Sequence[Optional[int]] = (None,),
             show_progress: Optional[bool] = None,
             progress: Optional[Progress] = None) -> Dict[str, RunResult]:
    """Run several applications through one shared pool.

    ``specs`` items pass through :func:`make_spec`; the return maps each
    spec's label to its :class:`RunResult`.  With multiple ``seeds`` the
    key becomes ``"label#seed"``.
    """
    parallel = _default("parallel", parallel)
    cache = _default("cache", cache)
    show_progress = _default("show_progress", show_progress)
    resolved = [make_spec(spec) if not isinstance(spec, AppSpec) else spec
                for spec in specs]
    runner = ExperimentRunner(
        parallel=parallel, cache=cache, progress=progress,
        show_progress=show_progress,
        start_method=_DEFAULTS["start_method"])  # type: ignore[arg-type]
    grid = runner.run_grid(resolved, cases=cases, seeds=seeds)
    out: Dict[str, RunResult] = {}
    for (label, seed), bench in grid.items():
        key = label if seed is None and len(tuple(seeds)) == 1 else \
            f"{label}#{seed}"
        out[key] = RunResult.from_benchmark(bench, {
            "parallel": runner.parallel,
            "cache_dir": (str(runner.cache.root)
                          if runner.cache is not None else None),
            "seed": seed,
        })
    return out
