"""Exporters: Chrome ``trace_event`` JSON, CSV, and a validating loader.

Traces go to Chrome JSON or CSV; results go to CSV too —
``benchmark_result_rows`` flattens a four-configuration
:class:`~repro.metrics.BenchmarkResult`, and ``rows_to_csv`` writes
any list of same-keyed dicts (the sweep rows the reduction and
ablation experiments return).  Every CSV goes through one writer.

The Chrome export targets the JSON *object* format (``{"traceEvents":
[...]}``) understood by Perfetto (https://ui.perfetto.dev) and
``chrome://tracing``.  The mapping from the structured schema:

===========  =====================================================
schema       Chrome event
===========  =====================================================
span         ``ph="X"`` complete event, ``ts``/``dur`` in microseconds
instant      ``ph="i"`` with thread scope (``s="t"``)
counter      ``ph="C"`` with ``args={"value": ...}``
component    ``tid`` (one thread track per component, named via
             ``thread_name`` metadata)
case label   ``pid`` (one process per traced case, named via
             ``process_name`` metadata)
===========  =====================================================

Chrome's ``ts`` field is a float in microseconds, which cannot represent
picosecond integers exactly; the exporter therefore also stores the exact
``ts_ps``/``dur_ps`` integers inside each event's ``args``, and
:func:`load_chrome_trace` reconstructs collectors from those — a
write/load round trip is lossless (verified by ``tests/obs``).
"""

from __future__ import annotations

import csv
import io
import json
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from .trace import (
    PHASE_COUNTER,
    PHASE_INSTANT,
    PHASE_SPAN,
    SCHEMA_VERSION,
    TraceCollector,
    TraceEvent,
)

if TYPE_CHECKING:
    from ..metrics.results import BenchmarkResult

_PS_PER_US = 1_000_000

TraceInput = Union[TraceCollector, Mapping[str, TraceCollector]]


def _as_mapping(traces: TraceInput) -> "Dict[str, TraceCollector]":
    if isinstance(traces, TraceCollector):
        return {"trace": traces}
    return dict(traces)


def to_chrome_trace(traces: TraceInput) -> Dict[str, Any]:
    """Convert collector(s) to a Chrome ``trace_event`` JSON document.

    ``traces`` is either one :class:`TraceCollector` or a mapping of case
    label -> collector (as produced by ``repro.run(trace=True)``); each
    label becomes a Perfetto process, each component a named thread track.
    """
    mapping = _as_mapping(traces)
    events: List[Dict[str, Any]] = []
    dropped_total = 0
    for pid, (label, collector) in enumerate(mapping.items()):
        dropped_total += collector.dropped
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        tids: Dict[str, int] = {}
        for component in collector.components():
            tid = tids.setdefault(component, len(tids))
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": component},
            })
            events.append({
                "ph": "M", "name": "thread_sort_index", "pid": pid,
                "tid": tid, "args": {"sort_index": tid},
            })
        for event in collector:
            out: Dict[str, Any] = {
                "ph": event.phase,
                "name": event.name,
                "cat": event.category,
                "pid": pid,
                "tid": tids[event.component],
                "ts": event.ts_ps / _PS_PER_US,
            }
            args = dict(event.args)
            args["ts_ps"] = event.ts_ps
            if event.phase == PHASE_SPAN:
                out["dur"] = event.dur_ps / _PS_PER_US
                args["dur_ps"] = event.dur_ps
            elif event.phase == PHASE_INSTANT:
                out["s"] = "t"
            out["args"] = args
            events.append(out)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "schema_version": SCHEMA_VERSION,
            "clock": "picoseconds (exact values in args.ts_ps/args.dur_ps)",
            "dropped_events": dropped_total,
        },
    }


def write_chrome_trace(path: str, traces: TraceInput) -> Dict[str, Any]:
    """Serialise collector(s) to ``path`` as Chrome-trace JSON.

    Returns the document that was written.
    """
    document = to_chrome_trace(traces)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return document


def validate_chrome_trace(document: Any) -> List[str]:
    """Check a parsed document against the exported schema.

    Returns a list of human-readable problems; an empty list means the
    document is a valid Chrome trace as this library emits them (and will
    load in Perfetto).
    """
    errors: List[str] = []
    if not isinstance(document, dict):
        return [f"top level must be an object, got {type(document).__name__}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    other = document.get("otherData", {})
    version = other.get("schema_version") if isinstance(other, dict) else None
    if version != SCHEMA_VERSION:
        errors.append(f"otherData.schema_version is {version!r}, "
                      f"expected {SCHEMA_VERSION}")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "i", "C", "M"):
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        if phase == "M":
            continue
        if not isinstance(event.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric ts")
        args = event.get("args")
        if not isinstance(args, dict):
            errors.append(f"{where}: missing args object")
            continue
        if not isinstance(args.get("ts_ps"), int):
            errors.append(f"{where}: args.ts_ps must be an integer")
        if phase == "X":
            if not isinstance(event.get("dur"), (int, float)):
                errors.append(f"{where}: span missing numeric dur")
            if not isinstance(args.get("dur_ps"), int):
                errors.append(f"{where}: span args.dur_ps must be an integer")
        if phase == "C" and not isinstance(args.get("value"), (int, float)):
            errors.append(f"{where}: counter missing numeric args.value")
    return errors


def load_chrome_trace(path: str) -> Dict[str, TraceCollector]:
    """Load a Chrome-trace JSON file written by :func:`write_chrome_trace`.

    Validates the document (raising ``ValueError`` with the problem list on
    failure) and reconstructs the exact collectors — integer picosecond
    timestamps come back from ``args.ts_ps``/``args.dur_ps``, not from the
    rounded microsecond ``ts``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    errors = validate_chrome_trace(document)
    if errors:
        raise ValueError("invalid Chrome trace: " + "; ".join(errors[:5]))

    process_names: Dict[int, str] = {}
    thread_names: Dict[Tuple[int, int], str] = {}
    for event in document["traceEvents"]:
        if event["ph"] != "M":
            continue
        if event["name"] == "process_name":
            process_names[event["pid"]] = event["args"]["name"]
        elif event["name"] == "thread_name":
            thread_names[(event["pid"], event["tid"])] = event["args"]["name"]

    out: Dict[str, TraceCollector] = {}
    for event in document["traceEvents"]:
        phase = event["ph"]
        if phase == "M":
            continue
        pid = event["pid"]
        label = process_names.get(pid, f"pid{pid}")
        collector = out.setdefault(label, TraceCollector())
        component = thread_names.get((pid, event["tid"]),
                                     f"tid{event['tid']}")
        args = dict(event["args"])
        ts_ps = args.pop("ts_ps")
        dur_ps = args.pop("dur_ps", 0)
        if phase == PHASE_COUNTER:
            collector.counter(component, event["name"], ts_ps, args["value"])
        elif phase == PHASE_INSTANT:
            collector.instant(component, event["name"], ts_ps, **args)
        else:
            collector.span(component, event["name"], ts_ps, dur_ps, **args)
    dropped = document.get("otherData", {}).get("dropped_events", 0)
    if dropped and len(out) == 1:
        next(iter(out.values())).dropped = dropped
    return out


def _csv(header: Sequence, rows: Iterable[Sequence],
         path: Optional[str] = None) -> str:
    """Render ``header`` and ``rows`` as CSV text, also written to
    ``path`` when one is given."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


_CSV_HEADER = ("case", "phase", "component", "name", "ts_ps", "dur_ps",
               "args")


def _trace_rows(traces: TraceInput):
    for label, collector in _as_mapping(traces).items():
        for event in collector:
            yield (label, event.phase, event.component, event.name,
                   event.ts_ps, event.dur_ps,
                   json.dumps(dict(event.args), sort_keys=True))


def trace_csv(traces: TraceInput) -> str:
    """Render collector(s) as CSV text.

    Columns: ``case, phase, component, name, ts_ps, dur_ps, args`` with
    ``args`` as a compact JSON object.  Rows are in emit order per case.
    """
    return _csv(_CSV_HEADER, _trace_rows(traces))


def write_trace_csv(path: str, traces: TraceInput) -> None:
    """Write :func:`trace_csv` output to ``path``."""
    _csv(_CSV_HEADER, _trace_rows(traces), path)


def benchmark_result_rows(result: BenchmarkResult):
    """Flatten a BenchmarkResult into one dict per configuration."""
    for label, case in result.cases.items():
        switch = case.switch_cpus[0] if case.switch_cpus else None
        yield {
            "benchmark": result.name,
            "case": label,
            "exec_ps": case.exec_ps,
            "normalized_time": result.normalized_time(label),
            "host_utilization": result.utilization(label),
            "normalized_traffic": result.normalized_traffic(label),
            "host_busy_frac": case.host.busy_frac,
            "host_stall_frac": case.host.stall_frac,
            "host_idle_frac": case.host.idle_frac,
            "host_bytes_in": case.host_bytes_in,
            "host_bytes_out": case.host_bytes_out,
            "switch_busy_frac": switch.busy_frac if switch else "",
            "switch_stall_frac": switch.stall_frac if switch else "",
        }


def benchmark_result_to_csv(result: BenchmarkResult,
                            path: Optional[str] = None) -> str:
    """Write (or return) the result as CSV."""
    return rows_to_csv(benchmark_result_rows(result), path)


def rows_to_csv(rows: Iterable[Mapping], path: Optional[str] = None) -> str:
    """Write (or return) sweep-style rows (list of dicts) as CSV."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to export")
    fieldnames = list(rows[0])
    for row in rows:
        if list(row) != fieldnames:
            raise ValueError("rows have inconsistent columns")
    return _csv(fieldnames, (row.values() for row in rows), path)
