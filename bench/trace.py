"""Outside-in tracer: spans around each layer's public functions.

Nothing under ``src/`` is edited. While :meth:`Tracer.installed` is
active, the public callables named in :data:`SITES` are replaced by
timing wrappers (class attributes for methods, module attributes for
functions — both are looked up at call time by their callers, compiled
replay segments included), ``DetailedSimulator.run`` hands out a
generator whose ``.send`` is timed, and the ``memo.record`` /
``memo.replay`` spans come from the public ``obs=`` observer surface.

Every span has a name, start, end and parent. Hot spans (hundreds of
thousands per run) are folded into per-name ``[calls, total, self]``
on exit; coarse spans are also kept individually and written with the
record. A span's self time is its duration minus its direct children,
so self times sum to the root span exactly.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

from repro.obs import NullObserver

#: (module, class or None, attribute, span name, kept individually?)
SITES = [
    ("repro.emulator.frontend", "SpeculativeFrontend", "run_one_event",
     "emulator.frontend", False),
    ("repro.emulator.frontend", "SpeculativeFrontend", "rollback_to",
     "emulator.frontend", False),
    ("repro.cache.hierarchy", "MemorySystem", "issue_load",
     "cache.memsys", False),
    ("repro.cache.hierarchy", "MemorySystem", "poll_load",
     "cache.memsys", False),
    ("repro.cache.hierarchy", "MemorySystem", "issue_store",
     "cache.memsys", False),
    ("repro.cache.hierarchy", "MemorySystem", "cancel_load",
     "cache.memsys", False),
    # Functions imported by name are patched where they are called.
    ("repro.memo.engine", None, "encode_config", "uarch.codec", False),
    ("repro.memo.engine", None, "compile_segment", "memo.compile", False),
    ("repro.memo.engine", None, "revalidate", "memo.compile", False),
    ("repro.memo.pcache", "PActionCache", "lookup", "memo.pcache", False),
    ("repro.memo.pcache", "PActionCache", "alloc_config",
     "memo.pcache", False),
    ("repro.memo.pcache", "PActionCache", "alloc_action",
     "memo.pcache", False),
    ("repro.memo.pcache", "PActionCache", "attach", "memo.pcache", False),
    ("repro.memo.policies", "UnboundedPolicy", "maybe_collect",
     "memo.policy", False),
    ("repro.memo.policies", "FlushOnFullPolicy", "maybe_collect",
     "memo.policy", False),
    ("repro.memo.engine", "FastForwardEngine", "run", "memo.engine", True),
    ("repro.sim.fastsim", "FastSim", "run", "sim.glue", True),
    ("repro.sim.slowsim", "SlowSim", "run", "sim.glue", True),
    ("repro.memo.persist", None, "read_pcache", "memo.persist.read", True),
    ("repro.memo.persist", None, "write_pcache",
     "memo.persist.write", True),
    ("repro.memo.segstore", None, "install", "memo.segstore.install", True),
    ("repro.memo.segstore", None, "capture", "memo.segstore.capture", True),
    ("repro.memo.segstore", None, "load_segments",
     "memo.segstore.load", True),
    ("repro.workloads.suite", "Workload", "executable",
     "isa.assemble", True),
    ("repro.campaign.cachedir", "CacheStore", "load",
     "campaign.cachedir.load", True),
    ("repro.campaign.cachedir", "CacheStore", "load_segments",
     "campaign.cachedir.load", True),
    ("repro.campaign.cachedir", "CacheStore", "store",
     "campaign.cachedir.store", True),
    ("repro.campaign.cachedir", "CacheStore", "store_segments",
     "campaign.cachedir.store", True),
]

#: Observer span names folded into the two memo modes (a resync is the
#: fall-back from replay into recording).
_OBSERVER_SPANS = {"memo.record": "memo.record",
                   "memo.replay": "memo.replay",
                   "memo.resync": "memo.record"}


class _Span:
    """Re-enterable context manager; all state lives on the tracer."""

    __slots__ = ("_tracer", "_name", "_keep")

    def __init__(self, tracer: "Tracer", name: str, keep: bool):
        self._tracer = tracer
        self._name = name
        self._keep = keep

    def __enter__(self) -> None:
        self._tracer._enter(self._name, self._keep)

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._exit()
        return False


class _SpanObserver(NullObserver):
    """The public observer surface, keeping only the memo-mode spans.

    ``enabled`` is True because a serial campaign hands its observer to
    the simulators only when it is live; every other hook stays the
    inherited no-op.
    """

    enabled = True

    def __init__(self, tracer: "Tracer"):
        self._spans = {name: _Span(tracer, target, False)
                       for name, target in _OBSERVER_SPANS.items()}

    def span(self, name, /, cat="obs", **args):
        span = self._spans.get(name)
        return span if span is not None else super().span(name)


class _TimedGenerator:
    """The detailed simulator's generator with a timed ``send``."""

    def __init__(self, generator, tracer: "Tracer"):
        self._generator = generator
        self.send = tracer.wrap(generator.send, "uarch.detailed")

    def __getattr__(self, name):
        return getattr(self._generator, name)


class Tracer:
    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        #: kept spans: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        #: counts read off simulator instances at the same boundaries
        self.counters: Counter = Counter()
        self.observer = _SpanObserver(self)
        self._stack: List[list] = []  # [name, start, child_s, kept index]
        self._kept: List[int] = [-1]

    # -- span primitives -------------------------------------------------

    def _enter(self, name: str, keep: bool) -> None:
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._kept[-1]])
            self._kept.append(index)
        self._stack.append([name, perf_counter(), 0.0, index])

    def _exit(self) -> None:
        end = perf_counter()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            span = self.spans[index]
            span[1], span[2] = start, end
            self._kept.pop()

    def span(self, name: str) -> _Span:
        """A kept span around bench-side code (items, the root)."""
        return _Span(self, name, True)

    def wrap(self, fn, name: str, keep: bool = False, after=None):
        """*fn* timed as span *name*; *after(tracer, args, result)*
        reads counters off the instance once the call returns."""
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every site; restore the originals on exit."""
        from repro.uarch.detailed import DetailedSimulator

        undo = []

        def patch(owner, attr, replacement):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        try:
            for module, cls, attr, name, keep in SITES:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                patch(owner, attr, self.wrap(
                    owner.__dict__[attr], name, keep,
                    _AFTER.get((cls, attr))))
            run = DetailedSimulator.run
            patch(DetailedSimulator, "run",
                  lambda sim: _TimedGenerator(run(sim), self))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def as_record(self) -> Dict[str, object]:
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "aggregate": {
                name: {"calls": int(calls), "total_s": total,
                       "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.agg.items())
            },
            # Seconds since the first kept span (the root) began.
            "span_fields": ["name", "start", "end", "parent"],
            "spans": [
                [name, round(start - origin, 6), round(end - origin, 6),
                 parent]
                for name, start, end, parent in self.spans
            ],
            "counters": dict(sorted(self.counters.items())),
        }


def _after_sim_run(tracer: Tracer, args, result) -> None:
    """Host-side counters of the simulator instance that just ran."""
    sim = args[0]
    counters = tracer.counters
    for key, value in sim.world.frontend.frontend_stats().items():
        counters[f"frontend.{key}"] += value
    for key, value in sim.world.cache.filter_stats().items():
        counters[f"filter.{key}"] += value
    table = getattr(getattr(sim, "pcache", None), "turbo", None)
    if table is not None:
        for key, value in table.snapshot().items():
            counters[f"turbo.{key}"] += value
    for key, value in (getattr(sim, "segstore_stats", None) or {}).items():
        counters[f"segstore.{key}"] += value


def _after_read(tracer: Tracer, args, result) -> None:
    tracer.counters["persist.bytes"] += args[0].tell()


def _after_write(tracer: Tracer, args, result) -> None:
    tracer.counters["persist.bytes"] += args[1].tell()


_AFTER = {
    ("FastSim", "run"): _after_sim_run,
    ("SlowSim", "run"): _after_sim_run,
    (None, "read_pcache"): _after_read,
    (None, "write_pcache"): _after_write,
}


def layer_metrics(tracer: Tracer, results, root: str = "sweep"
                  ) -> Dict[str, float]:
    """The per-layer rows a traced sweep supports.

    *results* are the sweep's ``SimulationResult`` objects; every
    ``*.s`` / ``*_s`` row is a **self** time, so the rows (with
    ``api.glue.self_s``, the bench-side item and root spans) add up to
    ``trace.root_s``.
    """
    self_s, calls, counters = tracer.self_s, tracer.calls, tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    frontend_instr = sum(r.frontend_instructions or 0 for r in results)
    retired = sum(r.instructions for r in results)
    loads = sum(r.cache_stats.loads for r in results)
    detailed_cycles = sum(
        r.memo.detailed_cycles if r.name == "FastSim" else r.cycles
        for r in results)
    replayed = sum(r.memo.replayed_instructions for r in results)
    detailed = sum(r.memo.detailed_instructions for r in results)
    filter_seen = counters["filter.hits"] + counters["filter.misses"]
    glue = sum(entry[2] for name, entry in tracer.agg.items()
               if name == root or name.startswith("item."))
    return {
        "emulator.frontend.s": self_s("emulator.frontend"),
        "emulator.frontend.events": calls("emulator.frontend"),
        "emulator.frontend.rollbacks": sum(r.rollbacks for r in results),
        "emulator.frontend.instr": frontend_instr,
        "emulator.frontend.ns_per_instr": ratio(
            1e9 * self_s("emulator.frontend"), frontend_instr),
        "emulator.threaded.block_runs": counters["frontend.block_runs"],
        "emulator.threaded.instr_share": ratio(
            counters["frontend.threaded_instructions"], frontend_instr),
        "cache.memsys.s": self_s("cache.memsys"),
        "cache.memsys.calls": calls("cache.memsys"),
        "cache.memsys.ns_per_call": ratio(
            1e9 * self_s("cache.memsys"), calls("cache.memsys")),
        "cache.filter.hit_ratio": ratio(counters["filter.hits"],
                                        filter_seen),
        "cache.l1.miss_ratio": ratio(
            sum(r.cache_stats.l1_load_misses for r in results), loads),
        "uarch.detailed.s": self_s("uarch.detailed"),
        "uarch.detailed.cycles": detailed_cycles,
        "uarch.detailed.us_per_cycle": ratio(
            1e6 * self_s("uarch.detailed"), detailed_cycles),
        "uarch.codec.s": self_s("uarch.codec"),
        "uarch.codec.calls": calls("uarch.codec"),
        "memo.record.s": self_s("memo.record"),
        "memo.replay.s": self_s("memo.replay"),
        "memo.engine.self_s": self_s("memo.engine"),
        "memo.pcache.s": self_s("memo.pcache"),
        "memo.pcache.calls": calls("memo.pcache"),
        "memo.policy.s": self_s("memo.policy"),
        "memo.policy.collections": sum(r.memo.evictions for r in results),
        "memo.compile.s": self_s("memo.compile"),
        "memo.compile.segments": counters["turbo.segments_compiled"],
        "memo.compile.side_exits": counters["turbo.side_exits"],
        "memo.compile.revalidations": counters["turbo.revalidations"],
        "memo.detailed_fraction": ratio(detailed, detailed + replayed),
        "memo.actions_per_config": ratio(
            sum(r.memo.actions_replayed for r in results),
            sum(r.memo.configs_replayed for r in results)),
        "memo.peak_cache_bytes": max(
            (r.memo.peak_cache_bytes for r in results), default=0),
        "memo.persist.read_s": self_s("memo.persist.read"),
        "memo.persist.write_s": self_s("memo.persist.write"),
        "memo.persist.bytes": counters["persist.bytes"],
        "memo.segstore.install_s": self_s("memo.segstore.install"),
        "memo.segstore.capture_s": self_s("memo.segstore.capture"),
        "memo.segstore.load_s": self_s("memo.segstore.load"),
        "memo.segstore.installed": counters["segstore.installed"],
        "memo.segstore.stale": counters["segstore.stale"],
        "sim.glue.self_s": self_s("sim.glue"),
        "isa.assemble.s": self_s("isa.assemble"),
        "isa.assemble.calls": calls("isa.assemble"),
        "campaign.cachedir.load_s": self_s("campaign.cachedir.load"),
        "campaign.cachedir.store_s": self_s("campaign.cachedir.store"),
        "api.glue.self_s": glue,
        "trace.root_s": tracer.total_s(root),
        "sim.retired_instr": retired,
    }


#: The rows of :func:`layer_metrics` that partition ``trace.root_s``.
SELF_TIME_ROWS = (
    "emulator.frontend.s", "cache.memsys.s", "uarch.detailed.s",
    "uarch.codec.s", "memo.record.s", "memo.replay.s",
    "memo.engine.self_s", "memo.pcache.s", "memo.policy.s",
    "memo.compile.s", "memo.persist.read_s", "memo.persist.write_s",
    "memo.segstore.install_s", "memo.segstore.capture_s",
    "memo.segstore.load_s", "sim.glue.self_s", "isa.assemble.s",
    "campaign.cachedir.load_s", "campaign.cachedir.store_s",
    "api.glue.self_s",
)
