"""Command-line interface: ``fastsim-repro``.

``fastsim-repro --help`` lists the commands and ``fastsim-repro
<command> --help`` each command's own options; the parser is the
command table. Each subparser carries its handler
(``set_defaults(handler=...)``), so :func:`main` is parse-then-call.

Option groups shared between commands: ``--scale {tiny,test,train}``
and ``--workloads a,b,c`` on everything that runs the suite;
``--workers N`` / ``--backend`` / ``--cache-dir DIR`` on ``campaign``
and the table/figure commands (docs/distributed.md); one flag per
:class:`~repro.options.HostOptions` field on ``run`` and ``campaign``
(docs/performance.md, docs/robustness.md); ``--obs`` / ``--obs-out
BASE`` / ``--obs-sample N`` for telemetry, off by default and free
when off (docs/observability.md). ``lint`` takes its flags from
:func:`repro.lint.runner.add_arguments` (docs/lint.md).

A name that resolves to nothing — an unknown workload, an unreadable
or malformed program file, an option value out of range — is a usage
error: one ``error:`` line, exit 2. Anything raised once a simulation
is running propagates.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import List, Optional

from repro.campaign.backends import BACKEND_NAMES, DEFAULT_BACKEND
from repro.campaign.progress import SINK_MODES
from repro.lint import runner as lint_runner
from repro.options import HostOptions
from repro.workloads.suite import (
    SCALES,
    WORKLOAD_ORDER,
    WORKLOADS,
    load_workload,
)

#: Paper table / figure commands: name -> (help text, the
#: :mod:`repro.analysis` function that measures it, its renderer).
_TABLES = {
    "table2": ("FastSim vs SlowSim performance",
               "table2", "render_table2"),
    "table3": ("FastSim vs the integrated baseline",
               "table3", "render_table3"),
    "table4": ("detailed vs replayed instructions",
               "table4", "render_table4"),
    "table5": ("p-action cache statistics",
               "table5", "render_table5"),
    "figure7": ("speedup vs cache-size limit",
                "figure7", "render_figure7"),
    "gc-study": ("GC replacement-policy comparison",
                 "gc_policy_study", "render_policy_study"),
}


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------

def _scale_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--scale", default="test", choices=SCALES)
    return parent


def _workload_argument() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("workload", choices=WORKLOAD_ORDER,
                        metavar="workload",
                        help="workload name (see `list`)")
    return parent


def _quiet_option() -> argparse.ArgumentParser:
    # Historically a global flag, so every subcommand accepts it (it
    # only affects commands that report progress).
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--quiet", action="store_true",
                        help="suppress progress messages")
    return parent


def _suite_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workloads",
                        help="comma-separated subset of the suite")
    return parent


def _obs_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--obs", action="store_true",
                        help="enable telemetry (counters, sampled "
                             "series, phase spans); off by default")
    parent.add_argument("--obs-out", metavar="BASE",
                        help="write BASE.trace.json (Chrome trace) and "
                             "BASE.metrics.jsonl; implies --obs")
    parent.add_argument("--obs-sample", type=int, metavar="N",
                        help="sampling period in simulated cycles "
                             "(default 256)")
    return parent


def _host_options() -> argparse.ArgumentParser:
    """One flag per :class:`HostOptions` field (``--no-<name>`` for the
    on-by-default layers, ``--<name> N`` for the rest), plus ``--guard``."""
    parent = argparse.ArgumentParser(add_help=False)
    for knob in fields(HostOptions):
        flag = knob.name.replace("_", "-")
        text = knob.metadata["help"]
        if isinstance(knob.default, bool):
            parent.add_argument(f"--no-{flag}", dest=knob.name,
                                action="store_false",
                                default=knob.default,
                                help=f"do not {text}; bit-identical "
                                     "either way")
        else:
            parent.add_argument(f"--{flag}", dest=knob.name, type=int,
                                metavar="N", default=knob.default,
                                help=text)
    parent.add_argument("--guard", action="store_true",
                        help="audit every replay episode against "
                             "detailed re-execution (shorthand for "
                             "--audit-every 1)")
    return parent


def _host_from_args(args: argparse.Namespace) -> HostOptions:
    """The :class:`HostOptions` a parsed command line asks for."""
    host = HostOptions(**{knob.name: getattr(args, knob.name)
                          for knob in fields(HostOptions)})
    if args.guard and host.audit_every is None:
        host = replace(host, audit_every=1)
    return host


def _pool_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = serial in-process)")
    parent.add_argument("--cache-dir",
                        help="shared p-action cache directory "
                             "(warm-starts FastSim runs)")
    parent.add_argument("--timeout", type=float,
                        help="per-job timeout in seconds "
                             "(parallel runs only)")
    parent.add_argument("--retries", type=int, default=2,
                        help="retry budget per job after worker "
                             "crashes/timeouts (default 2)")
    parent.add_argument("--backend", default=DEFAULT_BACKEND,
                        choices=BACKEND_NAMES,
                        help="executor backend for parallel runs: fork "
                             "(per-job forked workers, default), "
                             "subprocess (spawn-isolated stdio "
                             "workers), queue (in-process "
                             "work-stealing threads)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastsim-repro",
        description="FastSim (ASPLOS '98) reproduction driver",
    )
    # Handlers report a name that resolves to nothing through this.
    parser.set_defaults(usage_error=parser.error)
    commands = parser.add_subparsers(dest="command", metavar="command",
                                     required=True)
    workload = _workload_argument()
    scale = _scale_options()
    quiet = _quiet_option()
    suite = _suite_options()
    pool = _pool_options()
    obs = _obs_options()
    host = _host_options()

    def command(name, handler, parents, help):
        sub = commands.add_parser(name, parents=parents + [quiet],
                                  help=help)
        sub.set_defaults(handler=handler)
        return sub

    command("list", _cmd_list, [], "show the workload suite")
    command("params", _cmd_params, [], "print the processor model")
    command("run", _cmd_run, [workload, scale, obs, host],
            "simulate one workload under all simulators")

    campaign = command("campaign", _cmd_campaign,
                       [scale, suite, pool, obs, host],
                       "run a parallel simulation campaign")
    campaign.add_argument(
        "--simulators", default="fast,slow,baseline",
        help="comma-separated simulators "
             "(fast, slow, baseline, native)")
    campaign.add_argument(
        "--progress", default="text", choices=list(SINK_MODES),
        help="progress event format (default text)")
    campaign.add_argument(
        "--out", help="write the merged canonical JSON document here "
                      "(byte-identical across worker counts)")
    campaign.add_argument(
        "--metrics", help="write per-job JSON-lines metrics here")
    campaign.add_argument(
        "--journal", metavar="FILE",
        help="keep a durable crash journal at FILE (CRC-framed, "
             "fsync'd per record); a killed run can be resumed with "
             "--resume FILE (see docs/robustness.md)")
    campaign.add_argument(
        "--resume", metavar="FILE",
        help="resume from the journal at FILE: completed jobs are "
             "verified and skipped, the merged document stays "
             "byte-identical to an uninterrupted run (implies "
             "--journal FILE)")
    campaign.add_argument(
        "--hang-after", type=float, metavar="SECONDS",
        help="supervise workers with heartbeats: one silent for "
             "SECONDS is presumed hung and replaced (distinct from "
             "--timeout deadline expiry)")

    chaos = command(
        "chaos", _cmd_chaos, [scale, suite],
        "deterministic fault-injection drill (byte-identical output "
        "under disk corruption, forced divergence, and a worker crash)")
    chaos.add_argument("--workers", type=int, default=2,
                       help="worker processes for the chaotic run "
                            "(default 2; must be >= 1)")
    chaos.add_argument("--backend", default=DEFAULT_BACKEND,
                       choices=BACKEND_NAMES,
                       help="executor backend for the chaotic run "
                            "(queue refuses the crash injection: no "
                            "process isolation)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (default 0)")
    chaos.add_argument("--disk-bit-flips", type=int, default=1,
                       help="persisted cache files to bit-flip")
    chaos.add_argument("--disk-truncations", type=int, default=1,
                       help="persisted cache files to truncate")
    chaos.add_argument("--no-divergence", action="store_true",
                       help="skip the forced in-memory divergence")
    chaos.add_argument("--no-crash", action="store_true",
                       help="skip the injected worker crash")
    chaos.add_argument("--hang", action="store_true",
                       help="also wedge one worker mid-job; the "
                            "supervisor must detect the silent worker "
                            "and replace it (heartbeat hang "
                            "detection)")
    chaos.add_argument("--resume-drill", action="store_true",
                       help="run the engine-kill drill instead: kill "
                            "the journaled engine mid-campaign, "
                            "resume from the journal, byte-compare "
                            "against a clean cold run")
    chaos.add_argument("--kill-after", type=int, default=1,
                       help="(with --resume-drill) durable outcomes "
                            "to allow before the engine is killed "
                            "(default 1)")
    chaos.add_argument("--work-dir",
                       help="directory for caches and crash markers "
                            "(default: a fresh temporary directory)")
    chaos.add_argument("--json", dest="chaos_json", metavar="FILE",
                       help="write the machine-readable drill summary")

    command("mix", _cmd_mix, [scale, suite],
            "dynamic instruction-mix table")

    trace = command("trace", _cmd_trace, [workload, scale],
                    "per-cycle pipeline dump")
    trace.add_argument("--cycles", type=int, default=20,
                       help="cycles to trace")

    command("profile", _cmd_profile, [workload, scale],
            "pipeline utilization report")

    asm = command("asm", _cmd_asm, [], "assemble a .s source file")
    asm.add_argument("source", help="assembly source file")
    asm.add_argument("--output", "-o", help="output .fsx path")

    disasm = command("disasm", _cmd_disasm, [],
                     "disassemble an .fsx binary")
    disasm.add_argument("binary", help=".fsx file")

    run_binary = command("run-binary", _cmd_run_binary, [],
                         "simulate an assembled binary with FastSim")
    run_binary.add_argument("binary", help=".fsx file")

    command("calibrate", _cmd_calibrate, [], "host-speed calibration")

    lint_runner.add_arguments(command(
        "lint", lint_runner.run, [],
        "determinism lint (no paths: the whole-program "
        "gate; FILE.s: the assembly checks)"))

    obs_cmd = command(
        "obs", _cmd_obs, [],
        "validate telemetry files, or `obs report` a dashboard")
    obs_cmd.add_argument("files", nargs="+", metavar="FILE.jsonl",
                         help="metric / trace-event / job-metrics "
                              "streams (or Chrome trace JSON); prefix "
                              "with `report` to render the campaign "
                              "dashboard instead of validating")

    trace_export = command(
        "trace-export", _cmd_trace_export, [],
        "convert a trace-event .jsonl stream to Chrome trace JSON")
    trace_export.add_argument("input", metavar="FILE.jsonl",
                              help="stream written by a JSON-lines "
                                   "trace sink")
    trace_export.add_argument("--output", "-o",
                              help="output path (default: input with "
                                   "a .trace.json suffix)")

    for name, (description, _, _) in _TABLES.items():
        command(name, _cmd_tables, [scale, suite, pool, obs], description)
    return parser


def _selected(args: argparse.Namespace) -> Optional[List[str]]:
    if not getattr(args, "workloads", None):
        return None
    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    for name in names:
        if name not in WORKLOADS:
            args.usage_error(
                f"unknown workload {name!r}; choose from {WORKLOAD_ORDER}")
    return names


def _make_obs(args: argparse.Namespace):
    """Build an observer when telemetry was requested, else None."""
    if not (getattr(args, "obs", False)
            or getattr(args, "obs_out", None)):
        return None
    from repro.obs import make_observer

    sample = getattr(args, "obs_sample", None)
    if sample is not None:
        return make_observer(sample_every=sample)
    return make_observer()


def _finish_obs(obs, args: argparse.Namespace) -> None:
    """Write --obs-out artifacts and print the telemetry digest."""
    if obs is None:
        return
    base = getattr(args, "obs_out", None)
    if base:
        trace_path = base + ".trace.json"
        metrics_path = base + ".metrics.jsonl"
        obs.write_trace(trace_path)
        with open(metrics_path, "w") as stream:
            stream.write(obs.metrics_jsonl())
        print(f"wrote {trace_path} and {metrics_path}")
    if not getattr(args, "quiet", False):
        print(obs.summary())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'name':10s} {'SPEC95':14s} {'cat':4s} description")
    for name in WORKLOAD_ORDER:
        w = WORKLOADS[name]
        print(f"{w.name:10s} {w.spec_name:14s} {w.category:4s} "
              f"{w.description}")
    return 0


def _cmd_params(_args: argparse.Namespace) -> int:
    from repro.uarch.params import ProcessorParams

    print(ProcessorParams.r10k().describe())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import simulate

    try:
        host = _host_from_args(args)
    except ValueError as exc:
        args.usage_error(str(exc))
    executable = load_workload(args.workload, args.scale)
    print(f"workload {args.workload} [{args.scale}]: "
          f"{len(executable.text) // 4} static instructions")
    obs = _make_obs(args)
    fast = simulate(args.workload, engine="fast", scale=args.scale,
                    obs=obs, host=host)
    slow = simulate(args.workload, engine="slow", scale=args.scale,
                    obs=obs)
    base = simulate(args.workload, engine="baseline", scale=args.scale,
                    obs=obs)
    for result in (fast, slow, base):
        print(f"  {result.summary()}")
    exact = "yes" if fast.timing_equal(slow) else "NO (bug!)"
    print(f"  FastSim == SlowSim cycle-exact: {exact}")
    if host.audit_every is not None:
        print(f"  replay audits: every {host.audit_every} episode(s)")
    print(f"  memoization speedup: "
          f"{slow.host_seconds / fast.host_seconds:.1f}x "
          f"(detailed fraction "
          f"{100 * fast.memo.detailed_fraction:.3f}%)")
    _finish_obs(obs, args)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.api import run_campaign
    from repro.errors import CampaignUsageError

    simulators = [s.strip() for s in args.simulators.split(",")
                  if s.strip()]
    native = "native" in simulators
    simulators = [s for s in simulators if s != "native"]
    progress = "silent" if args.quiet else args.progress
    obs = _make_obs(args)
    try:
        host = _host_from_args(args)
    except ValueError as exc:
        args.usage_error(str(exc))
    try:
        result = run_campaign(
            workloads=_selected(args),
            simulators=simulators,
            scale=args.scale,
            include_native=native,
            workers=args.workers,
            cache_dir=args.cache_dir,
            timeout=args.timeout,
            retries=args.retries,
            backend=args.backend,
            progress=progress,
            name=f"suite-{args.scale}",
            obs=obs,
            host=host,
            journal=args.journal,
            resume=args.resume,
            hang_after=args.hang_after,
        )
    except CampaignUsageError as exc:
        # Refused before any job ran (an option value out of range, a
        # --resume file that is not this campaign's journal): a usage
        # error, not a traceback. Anything raised later propagates.
        args.usage_error(str(exc))
    if args.out:
        with open(args.out, "w") as stream:
            stream.write(result.canonical_json())
    if args.metrics:
        with open(args.metrics, "w") as stream:
            stream.write(result.metrics_jsonl())
    _finish_obs(obs, args)
    print(f"campaign: {len(result)} jobs, "
          f"{len(result.failed)} failed, "
          f"{result.wall_seconds:.2f}s wall, "
          f"workers={result.workers}")
    for job_result in result.results:
        if job_result.result is not None:
            line = (f"{job_result.result.cycles} cycles, "
                    f"{job_result.result.instructions} insts, "
                    f"{job_result.host_seconds:.2f}s")
        elif job_result.native is not None:
            line = (f"{job_result.native.instructions} insts "
                    f"(native), {job_result.native.seconds:.2f}s")
        else:
            line = f"FAILED: {job_result.error}"
        print(f"  {job_result.key:32s} {line}")
    return 0 if result.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.campaign.progress import NullSink, TextSink
    from repro.guard.chaos import main_json, run_chaos, run_resume_drill

    sink = NullSink() if args.quiet else TextSink()
    if args.resume_drill:
        try:
            resume_report = run_resume_drill(
                workloads=_selected(args),
                scale=args.scale,
                workers=max(args.workers, 1),
                backend=args.backend,
                kill_after=args.kill_after,
                work_dir=args.work_dir,
                sink=sink,
            )
        except ValueError as exc:
            print(f"chaos: {exc}", file=sys.stderr)
            return 2
        print(resume_report.render())
        if args.chaos_json:
            import json

            payload = {
                "ok": resume_report.ok,
                "identical": resume_report.identical,
                "jobs": resume_report.jobs,
                "resumed": resume_report.resumed,
                "kill_after": resume_report.kill_after,
                "exit_code": resume_report.exit_code,
                "killed": resume_report.killed,
                "backend": resume_report.backend,
            }
            with open(args.chaos_json, "w") as stream:
                json.dump(payload, stream, sort_keys=True, indent=2)
                stream.write("\n")
        return 0 if resume_report.ok else 1
    try:
        report = run_chaos(
            workloads=_selected(args),
            scale=args.scale,
            workers=args.workers,
            seed=args.seed,
            disk_bit_flips=args.disk_bit_flips,
            disk_truncations=args.disk_truncations,
            force_divergence=not args.no_divergence,
            crash=not args.no_crash,
            work_dir=args.work_dir,
            sink=sink,
            backend=args.backend,
            hang=args.hang,
        )
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.chaos_json:
        with open(args.chaos_json, "w") as stream:
            stream.write(main_json(report))
    return 0 if report.ok else 1


def _cmd_mix(args: argparse.Namespace) -> int:
    from repro.analysis.mixes import render_mix_table

    print(render_mix_table(scale=args.scale, workloads=_selected(args)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.uarch.trace import trace_pipeline

    for cycle_text in trace_pipeline(
        load_workload(args.workload, args.scale), max_cycles=args.cycles
    ):
        print(cycle_text)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.uarch.profile import profile_pipeline
    from repro.uarch.params import ProcessorParams

    profile = profile_pipeline(load_workload(args.workload, args.scale))
    print(profile.render(ProcessorParams.r10k()))
    return 0


def _load_binary(args: argparse.Namespace):
    """The ``.fsx`` executable a command names; one that cannot be
    read or decoded is a usage error."""
    from repro.errors import EncodingError
    from repro.isa.objfile import load_executable

    try:
        return load_executable(args.binary)
    except (OSError, EncodingError) as exc:
        args.usage_error(f"cannot load {args.binary}: {exc}")


def _cmd_asm(args: argparse.Namespace) -> int:
    from repro.errors import AssemblerError
    from repro.isa.assembler import assemble
    from repro.isa.objfile import save_executable

    try:
        with open(args.source) as handle:
            executable = assemble(handle.read(), name=args.source)
    except (OSError, AssemblerError) as exc:
        args.usage_error(str(exc))  # both name the file
    output = args.output or args.source.rsplit(".", 1)[0] + ".fsx"
    save_executable(executable, output)
    print(f"wrote {output}: {len(executable.text) // 4} instructions, "
          f"{len(executable.data)} data bytes")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.isa.disasm import disassemble

    print(disassemble(_load_binary(args).instructions()))
    return 0


def _cmd_run_binary(args: argparse.Namespace) -> int:
    from repro.api import simulate

    result = simulate(_load_binary(args), engine="fast")
    print(result.summary())
    print(f"output: {result.output}")
    return 0


def _cmd_calibrate(_args: argparse.Namespace) -> int:
    from repro.analysis.calibrate import calibrate, render_calibration

    print(render_calibration(calibrate()))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    files = list(args.files)
    if files and files[0] == "report":
        from repro.obs.report import main as report_main

        return report_main(files[1:])
    from repro.obs.__main__ import main as validate_main

    return validate_main(files)


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import json

    from repro.obs.chrome import render_chrome_trace
    from repro.obs.schema import SCHEMA_KEY, TRACE_SCHEMA, validate_record
    from repro.obs.spans import TraceEvent

    events = []
    skipped = 0
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    print(f"{args.input}:{number}: not JSON, skipped",
                          file=sys.stderr)
                    skipped += 1
                    continue
                if (not isinstance(record, dict)
                        or record.get(SCHEMA_KEY) != TRACE_SCHEMA):
                    skipped += 1  # mixed stream: ignore other schemas
                    continue
                problems = validate_record(record)
                if problems:
                    print(f"{args.input}:{number}: {problems[0]}",
                          file=sys.stderr)
                    skipped += 1
                    continue
                events.append(TraceEvent(
                    record["name"], record["ph"], record["ts"],
                    cat=record.get("cat", "obs"),
                    dur=record.get("dur"),
                    clock=record.get("clock", "host"),
                    args=record.get("args"),
                    lane=record.get("lane"),
                ))
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    output = args.output
    if not output:
        stem = args.input
        if stem.endswith(".jsonl"):
            stem = stem[:-len(".jsonl")]
        output = stem + ".trace.json"
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(render_chrome_trace(events))
    print(f"wrote {output}: {len(events)} events"
          + (f" ({skipped} non-trace lines skipped)" if skipped else ""))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro import analysis
    from repro.campaign.progress import TextSink
    from repro.errors import CampaignUsageError

    obs = _make_obs(args)
    _, measure, render = _TABLES[args.command]
    try:
        rows = getattr(analysis, measure)(
            _selected(args),
            scale=args.scale,
            workers=args.workers,
            cache_dir=args.cache_dir,
            timeout=args.timeout,
            retries=args.retries,
            backend=args.backend,
            # stdout carries the table and nothing else.
            progress=None if args.quiet else TextSink(sys.stderr),
            obs=obs,
        )
    except CampaignUsageError as exc:
        # As for `campaign`: refused before any job ran.
        args.usage_error(str(exc))
    print(getattr(analysis, render)(rows))
    _finish_obs(obs, args)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def _main_guarded(argv: Optional[List[str]] = None) -> int:
    """Entry point that tolerates a closed stdout (e.g. ``| head``)."""
    try:
        return main(argv)
    except BrokenPipeError:
        import os

        # Re-open stdout on devnull so the interpreter's shutdown flush
        # doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(_main_guarded())
