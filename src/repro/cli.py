"""Command-line interface: ``fastsim-repro``.

Subcommands (``fastsim-repro <command> --help`` for each)::

    list                      show the workload suite
    params                    print the processor model (paper Table 1)
    run WORKLOAD              simulate one workload under all simulators
                              (--guard / --audit-every N for online
                              replay audits; --no-turbo /
                              --turbo-threshold N for chain compilation)
    campaign                  parallel campaign over the suite
                              (--workers/--cache-dir/--timeout/--retries,
                              --backend {fork,subprocess,queue},
                              --guard/--audit-every,
                              --no-turbo/--turbo-threshold)
    chaos                     deterministic fault-injection drill:
                              prove a fault-riddled warm campaign is
                              byte-identical to a clean cold run
                              (--backend, --hang, --resume-drill)
    mix                       dynamic instruction-mix table
    trace WORKLOAD            per-cycle pipeline dump (--cycles N)
    profile WORKLOAD          pipeline utilization report
    asm FILE.s                assemble to an .fsx binary (--output)
    disasm FILE.fsx           disassemble an .fsx binary
    run-binary FILE.fsx       simulate an assembled binary with FastSim
    calibrate                 host-speed calibration report
    lint [PATH...]            determinism/memo-safety lint (--format
                              json, --strict; default path src/repro)
    lint-asm FILE.s [...]     static checks on assembly programs
    obs FILE.jsonl [...]      validate schema-stamped telemetry streams
    trace-export FILE.jsonl   convert a trace-event stream to Chrome
                              trace JSON (chrome://tracing / Perfetto)
    table2 | table3 | table4 | table5
                              regenerate a paper table
    figure7                   regenerate the cache-limit sweep
    gc-study                  regenerate the GC-policy comparison

Table/figure commands accept ``--workers N`` to shard the underlying
measurements across a campaign worker pool (placed by ``--backend``)
and ``--cache-dir DIR`` to warm-start FastSim runs; common options are
``--scale {tiny,test,train}`` and ``--workloads a,b,c``. See
docs/distributed.md for the backend capability matrix.

``run``, ``campaign``, and the table/figure commands also accept
``--obs`` (enable telemetry; off by default and free when off),
``--obs-out BASE`` (write ``BASE.trace.json`` + ``BASE.metrics.jsonl``),
and ``--obs-sample N`` (sampling period in simulated cycles). See
docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import List, Optional

from repro.options import HostOptions
from repro.workloads.suite import WORKLOAD_ORDER, WORKLOADS, load_workload


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------

def _scale_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--scale", default="test",
                        choices=["tiny", "test", "train"])
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
    parent.add_argument("--backend", default="fork",
                        choices=["fork", "subprocess", "queue"],
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
    commands = parser.add_subparsers(dest="command", metavar="command",
                                     required=True)
    scale = _scale_options()
    quiet = _quiet_option()
    suite = _suite_options()
    pool = _pool_options()
    obs = _obs_options()
    host = _host_options()

    commands.add_parser("list", parents=[quiet],
                        help="show the workload suite")
    commands.add_parser("params", parents=[quiet],
                        help="print the processor model")

    run = commands.add_parser("run",
                              parents=[scale, quiet, obs, host],
                              help="simulate one workload under all "
                                   "simulators")
    run.add_argument("workload", help="workload name")

    campaign = commands.add_parser(
        "campaign",
        parents=[scale, suite, quiet, pool, obs, host],
        help="run a parallel simulation campaign",
    )
    campaign.add_argument(
        "--simulators", default="fast,slow,baseline",
        help="comma-separated simulators "
             "(fast, slow, baseline, native)")
    campaign.add_argument(
        "--progress", default="text",
        choices=["text", "jsonl", "silent"],
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

    chaos = commands.add_parser(
        "chaos", parents=[scale, suite, quiet],
        help="deterministic fault-injection drill (byte-identical "
             "output under disk corruption, forced divergence, and a "
             "worker crash)")
    chaos.add_argument("--workers", type=int, default=2,
                       help="worker processes for the chaotic run "
                            "(default 2; must be >= 1)")
    chaos.add_argument("--backend", default="fork",
                       choices=["fork", "subprocess", "queue"],
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

    commands.add_parser("mix", parents=[scale, suite, quiet],
                        help="dynamic instruction-mix table")

    trace = commands.add_parser("trace", parents=[scale, quiet],
                                help="per-cycle pipeline dump")
    trace.add_argument("workload", help="workload name")
    trace.add_argument("--cycles", type=int, default=20,
                       help="cycles to trace")

    profile = commands.add_parser("profile", parents=[scale, quiet],
                                  help="pipeline utilization report")
    profile.add_argument("workload", help="workload name")

    asm = commands.add_parser("asm", parents=[quiet],
                              help="assemble a .s source file")
    asm.add_argument("source", help="assembly source file")
    asm.add_argument("--output", "-o", help="output .fsx path")

    disasm = commands.add_parser("disasm", parents=[quiet],
                                 help="disassemble an .fsx binary")
    disasm.add_argument("binary", help=".fsx file")

    run_binary = commands.add_parser(
        "run-binary", parents=[quiet],
        help="simulate an assembled binary with FastSim")
    run_binary.add_argument("binary", help=".fsx file")

    commands.add_parser("calibrate", parents=[quiet],
                        help="host-speed calibration")

    lint = commands.add_parser(
        "lint", parents=[quiet],
        help="determinism & memo-safety lint")
    lint.add_argument("paths", nargs="*",
                      help="files/directories (default src/repro)")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      dest="lint_format", help="report format")
    # The two ways to scope the record/replay-path rules — everywhere,
    # or by computed reachability — are alternatives.
    scope = lint.add_mutually_exclusive_group()
    scope.add_argument("--strict", action="store_true",
                       help="apply record/replay-path rules to every "
                            "module")
    scope.add_argument("--flow", action="store_true",
                       help="whole-program flow analysis over "
                            "directories (call-graph reachability "
                            "scopes the strict rules; taint, effects, "
                            "codegen contracts on top)")
    lint.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="lint files on N worker processes")
    lint.add_argument("--baseline", metavar="FILE",
                      help="subtract findings accepted by FILE")
    lint.add_argument("--write-baseline", metavar="FILE",
                      dest="write_baseline",
                      help="accept current findings into FILE")

    lint_asm = commands.add_parser(
        "lint-asm", parents=[quiet],
        help="static checks on assembly programs")
    lint_asm.add_argument("paths", nargs="+", metavar="file.s",
                          help="assembly sources")
    lint_asm.add_argument("--format", default="text",
                          choices=["text", "json", "sarif"],
                          dest="lint_format", help="report format")

    obs_cmd = commands.add_parser(
        "obs", parents=[quiet],
        help="validate telemetry files, or `obs report` a dashboard")
    obs_cmd.add_argument("files", nargs="+", metavar="FILE.jsonl",
                         help="metric / trace-event / job-metrics "
                              "streams (or Chrome trace JSON); prefix "
                              "with `report` to render the campaign "
                              "dashboard instead of validating")

    trace_export = commands.add_parser(
        "trace-export", parents=[quiet],
        help="convert a trace-event .jsonl stream to Chrome trace JSON")
    trace_export.add_argument("input", metavar="FILE.jsonl",
                              help="stream written by a JSON-lines "
                                   "trace sink")
    trace_export.add_argument("--output", "-o",
                              help="output path (default: input with "
                                   "a .trace.json suffix)")

    for name, description in (
        ("table2", "FastSim vs SlowSim performance"),
        ("table3", "FastSim vs the integrated baseline"),
        ("table4", "detailed vs replayed instructions"),
        ("table5", "p-action cache statistics"),
        ("figure7", "speedup vs cache-size limit"),
        ("gc-study", "GC replacement-policy comparison"),
    ):
        commands.add_parser(name,
                            parents=[scale, suite, quiet, pool, obs],
                            help=description)
    return parser


def _selected(args: argparse.Namespace) -> Optional[List[str]]:
    if not getattr(args, "workloads", None):
        return None
    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {name!r}; choose from {WORKLOAD_ORDER}"
            )
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

def _cmd_list() -> int:
    print(f"{'name':10s} {'SPEC95':14s} {'cat':4s} description")
    for name in WORKLOAD_ORDER:
        w = WORKLOADS[name]
        print(f"{w.name:10s} {w.spec_name:14s} {w.category:4s} "
              f"{w.description}")
    return 0


def _cmd_params() -> int:
    from repro.uarch.params import ProcessorParams

    print(ProcessorParams.r10k().describe())
    return 0


def _cmd_run(args: argparse.Namespace,
             parser: argparse.ArgumentParser) -> int:
    from repro.api import simulate

    try:
        host = _host_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
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
        print(f"  replay audits: every {host.audit_every} episode(s), "
              f"seed {host.audit_seed}")
    print(f"  memoization speedup: "
          f"{slow.host_seconds / fast.host_seconds:.1f}x "
          f"(detailed fraction "
          f"{100 * fast.memo.detailed_fraction:.3f}%)")
    _finish_obs(obs, args)
    return 0


def _cmd_campaign(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> int:
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
        parser.error(str(exc))
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
        parser.error(str(exc))
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


def _cmd_asm(args: argparse.Namespace) -> int:
    from repro.isa.assembler import assemble
    from repro.isa.objfile import save_executable

    with open(args.source) as handle:
        executable = assemble(handle.read(), name=args.source)
    output = args.output or args.source.rsplit(".", 1)[0] + ".fsx"
    save_executable(executable, output)
    print(f"wrote {output}: {len(executable.text) // 4} instructions, "
          f"{len(executable.data)} data bytes")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.isa.disasm import disassemble
    from repro.isa.objfile import load_executable

    executable = load_executable(args.binary)
    print(disassemble(executable.instructions()))
    return 0


def _cmd_run_binary(args: argparse.Namespace) -> int:
    from repro.api import simulate

    result = simulate(args.binary, engine="fast")
    print(result.summary())
    print(f"output: {result.output}")
    return 0


def _cmd_calibrate() -> int:
    from repro.analysis.calibrate import calibrate, render_calibration

    print(render_calibration(calibrate()))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.lint import (
        apply_baseline,
        exit_code,
        lint_flow,
        lint_paths,
        load_baseline,
        report,
        save_baseline,
    )

    def usage_error(message: str) -> "SystemExit":
        # Usage and I/O problems exit 2 so CI can tell "findings"
        # (1) from "the lint never ran" (see docs/lint.md).
        print(message, file=sys.stderr)
        return SystemExit(2)

    paths = list(args.paths)
    if args.command == "lint-asm":
        for path in paths:
            if not path.endswith(".s"):
                raise usage_error(f"lint-asm expects .s files: {path}")
    elif not paths:
        paths = ["src/repro"]
    strict = getattr(args, "strict", False)
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise usage_error("--jobs must be >= 1")
    try:
        if getattr(args, "flow", False):
            findings = lint_flow(paths, jobs=jobs)
        else:
            findings = lint_paths(paths, strict=True if strict else None,
                                  jobs=jobs)
    except FileNotFoundError as exc:
        raise usage_error(f"no such path: {exc}")
    except OSError as exc:
        raise usage_error(f"cannot lint: {exc}")
    if getattr(args, "write_baseline", None):
        save_baseline(args.write_baseline, findings)
        print(f"baseline: accepted {len(findings)} finding(s) into "
              f"{args.write_baseline}")
        return 0
    if getattr(args, "baseline", None):
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError,
                json_module.JSONDecodeError) as exc:
            raise usage_error(str(exc))
        findings, absorbed = apply_baseline(findings, baseline)
        if absorbed:
            print(f"baseline: {absorbed} accepted finding(s) hidden",
                  file=sys.stderr)
    print(report(findings, args.lint_format))
    return exit_code(findings)


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
    from repro.analysis import (
        figure7,
        gc_policy_study,
        render_figure7,
        render_policy_study,
        render_table2,
        render_table3,
        render_table4,
        render_table5,
        table2,
        table3,
        table4,
        table5,
    )
    from repro.api import suite_runner

    obs = _make_obs(args)
    runner = suite_runner(
        scale=args.scale,
        verbose=not args.quiet,
        workers=args.workers,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        obs=obs,
        backend=args.backend,
    )
    names = _selected(args)
    if args.command == "table2":
        print(render_table2(table2(runner, names)))
    elif args.command == "table3":
        print(render_table3(table3(runner, names)))
    elif args.command == "table4":
        print(render_table4(table4(runner, names)))
    elif args.command == "table5":
        print(render_table5(table5(runner, names)))
    elif args.command == "figure7":
        print(render_figure7(figure7(runner, names)))
    elif args.command == "gc-study":
        print(render_policy_study(gc_policy_study(runner, names)))
    _finish_obs(obs, args)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "params":
        return _cmd_params()
    if args.command == "run":
        return _cmd_run(args, parser)
    if args.command == "campaign":
        return _cmd_campaign(args, parser)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "mix":
        return _cmd_mix(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "asm":
        return _cmd_asm(args)
    if args.command == "disasm":
        return _cmd_disasm(args)
    if args.command == "run-binary":
        return _cmd_run_binary(args)
    if args.command == "calibrate":
        return _cmd_calibrate()
    if args.command in ("lint", "lint-asm"):
        return _cmd_lint(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "trace-export":
        return _cmd_trace_export(args)
    return _cmd_tables(args)


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
