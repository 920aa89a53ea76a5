"""FastSim reproduction — fast out-of-order processor simulation using memoization.

Reimplementation of Schnarr & Larus, "Fast Out-Of-Order Processor
Simulation Using Memoization" (ASPLOS-VIII, 1998), as a pure-Python
library. See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-versus-measured results.

Quick start::

    from repro import simulate, run_campaign

    fast = simulate("compress", engine="fast", scale="tiny")
    slow = simulate("compress", engine="slow", scale="tiny")
    assert fast.cycles == slow.cycles        # memoization is exact

    # The whole suite, in parallel, with a warm-start cache directory:
    campaign = run_campaign(workers=4, cache_dir=".fastsim-cache")

The documented entry points live in :mod:`repro.api` (``simulate``,
``run_campaign``); the top-level namespace re-exports those plus the
pieces power users need, and each subpackage (``repro.isa``,
``repro.uarch``, ``repro.memo``, ``repro.campaign``, …) exposes its
full API.
"""

from repro.isa import Executable, Instruction, Opcode, assemble

__version__ = "1.0.0"

__all__ = [
    "assemble",
    "Executable",
    "Instruction",
    "Opcode",
    "simulate",
    "run_campaign",
    "Campaign",
    "CampaignRunner",
    "Job",
    "PolicySpec",
    "HostOptions",
    "FastSim",
    "SlowSim",
    "IntegratedSimulator",
    "ProcessorParams",
    "SimulationResult",
    "load_workload",
    "make_observer",
    "Observer",
    "__version__",
]


def __getattr__(name):
    """Lazily re-export the heavyweight simulator entry points.

    Importing ``repro`` alone stays cheap; ``repro.FastSim`` etc. pull in
    the simulator stack on first use.
    """
    lazy = {
        "simulate": ("repro.api", "simulate"),
        "run_campaign": ("repro.api", "run_campaign"),
        "Campaign": ("repro.campaign.engine", "Campaign"),
        "CampaignRunner": ("repro.campaign.engine", "CampaignRunner"),
        "CampaignResult": ("repro.campaign.engine", "CampaignResult"),
        "Job": ("repro.campaign.jobs", "Job"),
        "PolicySpec": ("repro.campaign.jobs", "PolicySpec"),
        "HostOptions": ("repro.options", "HostOptions"),
        "FastSim": ("repro.sim.fastsim", "FastSim"),
        "SlowSim": ("repro.sim.slowsim", "SlowSim"),
        "IntegratedSimulator": ("repro.sim.baseline", "IntegratedSimulator"),
        "SamplingSimulator": ("repro.sim.sampling", "SamplingSimulator"),
        "ProcessorParams": ("repro.uarch.params", "ProcessorParams"),
        "SimulationResult": ("repro.sim.results", "SimulationResult"),
        "load_workload": ("repro.workloads.suite", "load_workload"),
        "WORKLOADS": ("repro.workloads.suite", "WORKLOADS"),
        "trace_pipeline": ("repro.uarch.trace", "trace_pipeline"),
        "profile_pipeline": ("repro.uarch.profile", "profile_pipeline"),
        "make_observer": ("repro.obs.core", "make_observer"),
        "Observer": ("repro.obs.core", "Observer"),
        "NULL_OBS": ("repro.obs.core", "NULL_OBS"),
    }
    if name in lazy:
        import importlib

        module_name, attr = lazy[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
