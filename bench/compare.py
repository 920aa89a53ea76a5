"""Compare two ``repro.bench/v1`` records, or render one.

    python3 bench/compare.py BASE.json NEW.json [--layers]
    python3 bench/compare.py --where TRACED.json

One row per (end-to-end metric, workload): both values, the ratio with
its base named, the bound from ``BENCHMARK.json`` and a verdict —
``ok``, ``regressed``, ``improved`` or ``unresolved``. A timing metric
is *unresolved*, not unchanged, when either run's ``host.noise_ratio``
(Σ median / Σ min of the item times) exceeds 1.15: the host moved more
than the bound can tell apart. Exit status 1 on any ``regressed``.
``--layers`` adds per-layer deltas from two traced records, largest
self-time change first, so a moved number arrives with the layer that
moved it. ``--where`` prints the where-the-time-goes table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

SCHEMA = "repro.bench/v1"
NOISE_LIMIT = 1.15
#: Derived from the timed sweeps, so host noise applies to them.
TIMED = ("sim_kips", "jobs_per_s")
#: A set-up regression must also be this large in absolute terms.
SETUP_FLOOR_S = 0.25


def load_spec() -> Dict[str, object]:
    with open(Path(__file__).resolve().parent.parent
              / "BENCHMARK.json") as stream:
        return json.load(stream)


def validate(record: Dict[str, object], spec: Dict[str, object]) -> None:
    """Raise ValueError unless *record* is a ``repro.bench/v1`` record
    naming exactly the metrics and workloads of ``BENCHMARK.json``."""

    def expect(condition: bool, what: str) -> None:
        if not condition:
            raise ValueError(f"not a {SCHEMA} record: {what}")

    expect(record.get("schema") == SCHEMA, "schema id")
    for key, kind in (("host", dict), ("git_rev", str), ("seed", int),
                      ("traced", bool), ("workloads", dict),
                      ("self_time_rows", list)):
        expect(isinstance(record.get(key), kind), key)
    for key in ("nproc", "python"):
        expect(key in record["host"], f"host.{key}")
    known = {w["name"] for w in spec["workloads"]}
    expect(set(record["workloads"]) <= known, "unknown workload")
    tables = {"metrics": spec["end_to_end"]}
    if record["traced"]:
        tables["layers"] = spec["per_layer"]
    for name, workload in record["workloads"].items():
        for key in ("items", "setup", "host", "attempted", "failed",
                    "failed_frac", "failures", "repeats", "why"):
            expect(key in workload, f"{name}.{key}")
        for key, metrics in tables.items():
            want = {m["name"]: m["unit"] for m in metrics}
            got = {m: cell["unit"] for m, cell in workload[key].items()}
            expect(got == want, f"{name}.{key} names or units")
        for item in workload["items"].values():
            expect(isinstance(item["samples_s"], list), "item samples")
            if item["samples_s"]:
                expect(item["min_s"] <= item["median_s"], "item spread")


def load(path: str) -> Dict[str, object]:
    with open(path) as stream:
        record = json.load(stream)
    try:
        validate(record, load_spec())
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}")
    return record


def verdict(metric: Dict[str, object], base: float, new: float,
            noisy: bool) -> str:
    if not base:
        return "unresolved"
    change = new / base - 1.0
    if metric["better"] == "higher":
        change = -change  # positive = worse
    worse = change > metric["bound"]
    if metric["name"] == "setup_s":
        worse = worse and new - base > SETUP_FLOOR_S
    better = -change > metric["bound"]
    if metric["name"] in TIMED and noisy:
        return "unresolved"
    return "regressed" if worse else "improved" if better else "ok"


def compare(base: Dict[str, object], new: Dict[str, object],
            spec: Dict[str, object]) -> List[List[str]]:
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        noisy = max(a["host"]["noise_ratio"],
                    b["host"]["noise_ratio"]) > NOISE_LIMIT
        for metric in spec["end_to_end"]:
            x = a["metrics"][metric["name"]]["value"]
            y = b["metrics"][metric["name"]]["value"]
            rows.append([
                name, metric["name"], f"{x:.4g}", f"{y:.4g}",
                f"{y / x:.3f}x of base" if x else "-",
                f"{100 * metric['bound']:.0f} %",
                verdict(metric, x, y, noisy)])
        x, y = a["failed_frac"], b["failed_frac"]
        rows.append([name, "failed_frac", f"{x:.4g}", f"{y:.4g}", "-",
                     "any increase", "regressed" if y > x else "ok"])
    return rows


def layer_deltas(base: Dict[str, object],
                 new: Dict[str, object]) -> List[List[str]]:
    rows = []
    for name in base["workloads"]:
        a = base["workloads"][name].get("layers")
        b = new["workloads"].get(name, {}).get("layers")
        if not a or not b:
            continue
        deltas = [(b[row]["value"] - a[row]["value"], row)
                  for row in base["self_time_rows"]]
        for delta, row in sorted(deltas, key=lambda d: -abs(d[0])):
            x = a[row]["value"]
            rows.append([name, row, f"{x:.4g}", f"{b[row]['value']:.4g}",
                         f"{delta:+.4g} s",
                         f"{100 * delta / x:+.1f} % of base" if x else "-"])
    return rows


def where_the_time_goes(record: Dict[str, object]) -> str:
    """Markdown: self-time share per layer and workload."""
    # Records sort their keys; show the workloads in benchmark order.
    workloads = {w["name"]: record["workloads"][w["name"]]
                 for w in load_spec()["workloads"]
                 if w["name"] in record["workloads"]}
    lines = [
        "# Where the time goes",
        "",
        "Generated by `python3 bench/compare.py --where` from a traced "
        f"record (git `{record['git_rev']}`, seed {record['seed']}); do "
        "not edit. Each cell is the layer's self time as a share of the "
        "traced sweep's root span (campaign workloads: the serial "
        "`workers=0` pass). Tracing inflates call-heavy layers; "
        "`trace.overhead_frac` says by how much overall.",
        "",
        "| layer | " + " | ".join(workloads) + " |",
        "|---|" + "---:|" * len(workloads),
    ]
    for row in record["self_time_rows"] + ["trace.overhead_frac"]:
        cells = []
        for workload in workloads.values():
            value = workload["layers"][row]["value"]
            if row != "trace.overhead_frac":
                root = workload["layers"]["trace.root_s"]["value"]
                value = value / root if root else 0.0
            cells.append(f"{100 * value:.1f} %")
        lines.append(f"| `{row}` | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def table(header: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in [header] + rows)
              for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in [header] + rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="*", help="BASE.json NEW.json")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--where", metavar="TRACED.json")
    args = parser.parse_args(argv)
    if args.where:
        sys.stdout.write(where_the_time_goes(load(args.where)))
        return 0
    if len(args.records) != 2:
        parser.error("give BASE.json and NEW.json")
    base, new = (load(path) for path in args.records)
    rows = compare(base, new, load_spec())
    print(table(["workload", "metric", "base", "new", "ratio", "bound",
                 "verdict"], rows))
    if args.layers:
        print()
        print(table(["workload", "layer", "base", "new", "delta", "share"],
                    layer_deltas(base, new)))
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
