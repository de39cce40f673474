"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each simulator layer *from
the benchmark's side* — the program itself is not modified — and
records one span per call: name, start, end, parent span and the
simulation (job) it belongs to.  A layer's self time is its spans'
duration minus the part covered by child spans; time inside a job but
outside every layer span, and time outside every job, is
*unattributed*.  So, by construction, the layer self times plus the
unattributed time add up to the traced wall time.

Two kinds of span:

* *structural* spans (``sim.run``, ``cluster.System``, ...) are kept
  one by one and written out at the end of the run;
* *leaf* spans on the hot paths (``mem.*``, ``metrics.quantile.*`` —
  hundreds of thousands of calls per pass) are folded into one
  ``(parent span, name) -> (count, total seconds)`` record each, so the
  trace stays small; their time still counts exactly like a span's.

Counters are read at the same boundaries: constructors of the modelled
components (memory hierarchies, environments, switches, links, disks)
are wrapped to note each instance, and at the end of every job the
instances' own statistics are summed into the tracer's counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List

#: Layers with a self time, in report order.
LAYERS = ("mem", "sim", "traffic", "metrics", "cluster", "apps")

#: Structural spans: (module, owner, attribute, span name, group).
#: ``owner`` is a class name or None for a module-level function.  Spans
#: of one group nested inside each other count once in the group's
#: inclusive time (a tree fabric's build contains a SwitchTree build).
STRUCTURAL = (
    ("repro.sim.core", "Environment", "run", "sim.run", "sim.run"),
    ("repro.traffic.arrivals", None, "generate_schedule",
     "traffic.generate_schedule", "traffic.schedule"),
    ("repro.cluster.system", "System", "__init__", "cluster.System",
     "cluster.build"),
    ("repro.cluster.topology", "SwitchTree", "__init__",
     "cluster.SwitchTree", "cluster.build"),
    ("repro.cluster.fabric", None, "build_fabric", "cluster.build_fabric",
     "cluster.build"),
    ("repro.traffic.service", None, "build_service_app",
     "cluster.build_service_app", "cluster.build"),
    ("repro.cluster.placement", None, "plan_placement",
     "cluster.plan_placement", "cluster.placement"),
    ("repro.cluster.template", None, "placement_plan",
     "cluster.placement_plan", "cluster.placement"),
    ("repro.cluster.placement", None, "install_plan",
     "cluster.install_plan", "cluster.placement"),
    ("repro.cluster.placement", None, "repair_plan",
     "cluster.repair_plan", "cluster.placement"),
    ("repro.runner.spec", "AppSpec", "build", "apps.AppSpec.build",
     "apps.build"),
    ("repro.apps.base", None, "finalize_case", "apps.finalize_case",
     "apps.finalize"),
)

#: The memory model's public access methods.
MEM_ACCESS = ("load", "store", "ifetch", "prefetch", "load_range",
              "store_range", "load_stride", "store_stride")
#: The memory model's constructors (cache arrays are allocated here).
MEM_BUILD = ("build_host_hierarchy", "build_switch_hierarchy")

#: Leaf spans: (module, class or None, attributes, span-name prefix).
LEAVES = (
    ("repro.mem.hierarchy", "MemoryHierarchy", MEM_ACCESS, "mem"),
    ("repro.mem.hierarchy", None, MEM_BUILD, "mem"),
    ("repro.metrics.sampling", "QuantileEstimator",
     ("add", "extend", "quantile", "percentile", "summary", "merge",
      "merged"), "metrics.quantile"),
)

#: Component constructors whose instances' statistics become counters.
INSTANCES = (
    ("repro.mem.hierarchy", "MemoryHierarchy", "hierarchy"),
    ("repro.sim.core", "Environment", "environment"),
    ("repro.switch.active", "ActiveSwitch", "switch"),
    ("repro.net.link", "Link", "link"),
    ("repro.io.disk", "Disk", "disk"),
)

_MISSING = object()


def _hierarchy_counters(h, add) -> None:
    for level in ("l1d", "l2"):
        cache = getattr(h, level, None)
        if cache is not None:
            add(f"mem.{level}.accesses", cache.stats.accesses)
            add(f"mem.{level}.misses", cache.stats.misses)
    if getattr(h, "dtlb", None) is not None:
        add("mem.dtlb.misses", h.dtlb.stats.misses)
    add("mem.rdram.accesses", h.memory.stats.accesses)
    add("mem.rdram.page_hits", h.memory.stats.page_hits)


def _switch_counters(s, add) -> None:
    add("switch.dispatched", s.scheduler.stats.dispatched)
    add("switch.queued_waits", s.scheduler.stats.queued_waits)
    add("switch.send_messages", s.send_unit.stats.messages)


def _environment_counters(env, add) -> None:
    add("sim.events", env.event_count)


def _link_counters(link, add) -> None:
    add("net.packets_sent", link.stats.packets_sent)
    add("net.retransmits", link.stats.retransmits)


def _disk_counters(disk, add) -> None:
    add("io.disk_requests", disk.stats.requests)
    add("io.disk_retries", disk.stats.retries)


_FOLDERS: Dict[str, Callable] = {
    "hierarchy": _hierarchy_counters,
    "environment": _environment_counters,
    "switch": _switch_counters,
    "link": _link_counters,
    "disk": _disk_counters,
}


class Tracer:
    """Collects spans and counters while installed (see :meth:`region`).

    A frame on the stack is a list whose first two slots are shared by
    every kind: ``[child_seconds, anchor_span_id, ...]``; structural
    frames append ``span_id, name, layer, group, start``.  The anchor
    is the nearest structural span, the parent a leaf is folded into.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self.leaves: Dict[tuple, list] = {}
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.unattributed_s = 0.0
        #: Wall seconds of each traced region, by label.
        self.region_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.group_s: Dict[str, float] = defaultdict(float)
        self.group_calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(int)
        self._group_depth: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._sim = None
        self._next_id = 0
        self._epoch = time.perf_counter()
        self._instances: Dict[str, list] = defaultdict(list)
        self._patches: List[tuple] = []
        #: Entry points the program no longer has (nothing to wrap).
        self.missing = set()
        self._wrapped: Dict[int, tuple] = {}

    # -- regions and jobs ---------------------------------------------
    @contextmanager
    def region(self, label: str):
        """Trace everything run inside the block (installs wrappers)."""
        try:
            self._install()
            frame = self._push(f"region.{label}", None, None)
            self._sim = label
            try:
                yield self
            finally:
                self._fold_instances()
                self.region_s[label] += self._pop(frame)
                self._sim = None
        finally:
            self._uninstall()

    @contextmanager
    def job(self, sim_id: str):
        """One simulation: its spans carry ``sim_id``."""
        outer = self._sim
        self._sim = sim_id
        frame = self._push("job", None, None)
        try:
            yield
        finally:
            self._pop(frame)
            self._fold_instances()
            self._sim = outer

    def add_counters(self, values: Dict[str, float]) -> None:
        for name, value in values.items():
            self.counters[name] += value

    # -- frames -------------------------------------------------------
    def _push(self, name, layer, group) -> list:
        self._next_id += 1
        anchor = self._next_id
        if group is not None:
            self._group_depth[group] += 1
        frame = [0.0, anchor, anchor, name, layer, group, 0.0]
        self._stack.append(frame)
        frame[6] = time.perf_counter()
        return frame

    def _pop(self, frame) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[3]} closed out of order "
                               f"(innermost open span: {popped[3]})")
        _, _, span_id, name, layer, group, start = frame
        duration = end - start
        own = duration - frame[0]
        if layer is None:
            self.unattributed_s += own
        else:
            self.self_s[layer] += own
        parent = None
        if self._stack:
            self._stack[-1][0] += duration
            parent = self._stack[-1][1]
        if group is not None:
            self._group_depth[group] -= 1
            if self._group_depth[group] == 0:
                self.group_s[group] += duration
                self.group_calls[group] += 1
        self.calls[name] += 1
        self.spans.append({"id": span_id, "name": name,
                           "start": start - self._epoch,
                           "end": end - self._epoch,
                           "parent": parent, "sim": self._sim})
        return duration

    def _structural(self, fn, name, layer, group):
        if inspect.isgeneratorfunction(fn):
            # A span would close when the generator is created, not
            # when its body has run.
            raise TypeError(f"cannot trace generator function {name}")
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # bound outside a region: plain call
                return fn(*args, **kwargs)
            frame = self._push(name, layer, group)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(frame)
        return wrapper

    def _leaf(self, fn, name, layer):
        stack = self._stack
        leaves = self.leaves
        self_s = self.self_s
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                self_s[layer] += duration - frame[0]
                parent[0] += duration
                key = (parent[1], name)
                entry = leaves.get(key)
                if entry is None:
                    leaves[key] = [1, duration]
                else:
                    entry[0] += 1
                    entry[1] += duration
        return wrapper

    # -- counters -----------------------------------------------------
    def _note_instances(self, init, kind):
        instances = self._instances

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances[kind].append(obj)
        return wrapper

    def _fold_instances(self) -> None:
        counters = self.counters

        def add(name, value):
            counters[name] += value

        for kind, objs in self._instances.items():
            for obj in objs:
                _FOLDERS[kind](obj, add)
            objs.clear()

    # -- installation -------------------------------------------------
    def _install(self) -> None:
        for module_name, owner, attr, name, group in STRUCTURAL:
            layer = name.split(".", 1)[0]
            self._patch(module_name, owner, attr,
                        lambda fn, n=name, l=layer, g=group:
                        self._structural(fn, n, l, g))
        for module_name, owner, methods, prefix in LEAVES:
            layer = prefix.split(".", 1)[0]
            for method in methods:
                self._patch(module_name, owner, method,
                            lambda fn, n=f"{prefix}.{method}", l=layer:
                            self._leaf(fn, n, l))
        for module_name, owner, kind in INSTANCES:
            self._patch(module_name, owner, "__init__",
                        lambda fn, k=kind: self._note_instances(fn, k))

    def _patch(self, module_name, owner, attr, make) -> None:
        module = importlib.import_module(module_name)
        target = module if owner is None else getattr(module, owner, None)
        if not hasattr(target, attr):
            # The program no longer has this entry point: its spans read
            # zero, and the run says so.
            self.missing.add(f"{module_name}:{owner or ''}.{attr}")
            return
        if owner is None:
            original = getattr(module, attr)
            wrapper = make(original)
            self._wrapped[id(wrapper)] = (wrapper, original)
            # Every module that imported the function by name holds its
            # own binding; rebind them all.
            for holder in _program_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
            return
        cls = target
        raw = cls.__dict__.get(attr, _MISSING)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(getattr(cls, attr))
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _uninstall(self) -> None:
        while self._patches:
            holder, key, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(holder, key)
            else:
                setattr(holder, key, raw)
        # A module imported while the wrappers were installed bound a
        # wrapper by name; give it the original back as well.
        for holder in _program_modules():
            for key, value in list(vars(holder).items()):
                entry = self._wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(holder, key, entry[1])
        self._wrapped.clear()

    # -- results ------------------------------------------------------
    @property
    def wall_s(self) -> float:
        """Traced wall time: the sum of every region's."""
        return sum(self.region_s.values())

    def leaf_totals(self, names) -> tuple:
        """(calls, inclusive seconds) of the leaf spans named ``names``."""
        calls, seconds = 0, 0.0
        for (_, name), (count, total) in self.leaves.items():
            if name in names:
                calls += count
                seconds += total
        return calls, seconds

    def write(self, path) -> None:
        """Write every span and leaf record as JSON."""
        leaves = [{"parent": parent, "name": name, "count": count,
                   "total_s": total}
                  for (parent, name), (count, total) in self.leaves.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "leaves": leaves}, fh)
            fh.write("\n")


def _program_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and name.split(".", 1)[0] in ("repro", "perfbench")]
