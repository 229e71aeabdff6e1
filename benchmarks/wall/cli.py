"""Command line of the wall-clock observatory.

Two shapes of invocation::

    python -m benchmarks.wall [--seed N] [--quick | --selfcheck] [--out DIR]
    python benchmarks/wall/__main__.py --workload W --seed N --seconds S --trace 0|1

The first runs the suite: every workload in a fresh interpreter (the
second shape), the gated pass first and then the layer pass, and writes
``result.json``.  The second is one pass over one workload and is what
``BENCHMARK.json`` names; its last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from benchmarks.wall import harness
from benchmarks.wall.metrics import END_TO_END, EXACT_END_TO_END, PER_LAYER
from benchmarks.wall.workloads import BY_NAME, WORKLOADS

PACKAGE_DIR = Path(__file__).resolve().parent
DEFAULT_OUT = PACKAGE_DIR / "out"
#: Seconds the gated pass measures for (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 15
DEFAULT_SEED = 42


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.wall", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result.json and trace/ (default: %(default)s)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="smoke run: 1 repeat, quarter load, no layer pass")
    mode.add_argument("--selfcheck", action="store_true",
                      help="run the suite twice and compare within the bounds")
    one = parser.add_argument_group("one pass over one workload (the BENCHMARK.json command)")
    one.add_argument("--workload", choices=sorted(BY_NAME))
    one.add_argument("--seconds", type=float, default=RUN_SECONDS)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


# -- one pass ----------------------------------------------------------------


def _detail_path(out: Path, workload: str, trace: int) -> Path:
    return out / f"{workload}.trace{trace}.json"


def run_pass(
    workload_name: str, seed: int, seconds: float, trace: int, quick: bool, out: Path
) -> int:
    """Measure, write the detail under ``out``, print; returns the exit code."""
    workload = BY_NAME[workload_name]
    declared = PER_LAYER if trace else END_TO_END
    if trace:
        result = harness.per_layer(workload, seed, quick=quick)
        values = result["per_layer"]
        trace_dir = out / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{workload.name}.spans.json").write_text(
            json.dumps(result.pop("spans"), indent=1) + "\n"
        )
        (trace_dir / f"{workload.name}.collapsed.txt").write_text(
            result.pop("collapsed")
        )
    else:
        result = harness.end_to_end(workload, seed, seconds, quick=quick)
        values = {
            name: summary["value"] for name, summary in result["end_to_end"].items()
        }
    out.mkdir(parents=True, exist_ok=True)
    _detail_path(out, workload.name, trace).write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    metrics = {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in declared
    }
    for name, entry in metrics.items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}")
    for metric in EXACT_END_TO_END:
        print(f"{workload.name} {metric.name} = {result[metric.name]:g} {metric.unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


# -- the suite ---------------------------------------------------------------


def _child(workload: str, seed: int, trace: int, quick: bool, out: Path) -> dict[str, Any]:
    """One pass in a fresh interpreter; returns its detail document."""
    command = [
        sys.executable, str(PACKAGE_DIR / "__main__.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--out", str(out),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode not in (0, 1):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} (trace {trace}) exited {done.returncode}")
    return json.loads(_detail_path(out, workload, trace).read_text())


def _commit() -> Optional[str]:
    """HEAD of the enclosing git checkout, if there is one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=PACKAGE_DIR,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_suite(seed: int, quick: bool, out: Path) -> dict[str, Any]:
    """Every workload, each pass in its own interpreter; prints as it goes."""
    document: dict[str, Any] = {
        "seed": seed,
        "quick": quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "workloads": {},
    }
    for workload in WORKLOADS:
        gated = _child(workload.name, seed, 0, quick, out)
        entry = {"gated": gated}
        print(f"{workload.name}: {gated['ops_per_repeat']} ops x "
              f"{len(gated['repeats'])} repeats ({workload.op})")
        for metric in END_TO_END:
            summary = gated["end_to_end"][metric.name]
            spread = "".join(
                f" {key} {summary[key]:.6g}" for key in ("min", "max", "n") if key in summary
            )
            print(f"  {metric.name:<38} {summary['value']:>14.6g} {metric.unit:<9}{spread}")
        for metric in EXACT_END_TO_END:
            print(f"  {metric.name:<38} {gated[metric.name]:>14.6g} {metric.unit}")
        if not quick:
            entry["layers"] = layered = _child(workload.name, seed, 1, quick, out)
            for metric in PER_LAYER:
                value = layered["per_layer"][metric.name]
                print(f"  {metric.name:<38} {value:>14.6g} {metric.unit}")
        document["workloads"][workload.name] = entry
    return document


def suite_correct(document: dict[str, Any]) -> bool:
    return all(
        run["correct"]
        for entry in document["workloads"].values()
        for run in entry.values()
    )


def selfcheck(first: dict[str, Any], second: dict[str, Any]) -> bool:
    """Compare two suite documents within the declared bounds; prints a table."""
    passed = True
    for name in first["workloads"]:
        one, two = first["workloads"][name], second["workloads"][name]
        for metric in END_TO_END:
            a = one["gated"]["end_to_end"][metric.name]["value"]
            b = two["gated"]["end_to_end"][metric.name]["value"]
            diff = abs(b - a) / a
            ok = diff <= metric.bound
            passed &= ok
            print(f"{name:<18} {metric.name:<16} {a:>12.6g} {b:>12.6g} "
                  f"{diff:>7.2%} (bound {metric.bound:.0%}) {'PASS' if ok else 'FAIL'}")
        for metric in EXACT_END_TO_END:
            a, b = one["gated"][metric.name], two["gated"][metric.name]
            ok = a == b
            passed &= ok
            print(f"{name:<18} {metric.name:<16} {a:>12g} {b:>12g} "
                  f"{'':>7} (exact)     {'PASS' if ok else 'FAIL'}")
        differing = [
            metric.name for metric in PER_LAYER
            if metric.unit == "count"
            and one["layers"]["per_layer"][metric.name]
            != two["layers"]["per_layer"][metric.name]
        ]
        passed &= not differing
        print(f"{name:<18} count metrics identical: "
              f"{'PASS' if not differing else 'FAIL ' + ', '.join(differing)}")
    return passed


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.workload is not None:
        return run_pass(
            args.workload, args.seed, args.seconds, args.trace, args.quick, args.out
        )
    document = run_suite(args.seed, args.quick, args.out)
    ok = suite_correct(document)
    if args.selfcheck:
        print("-- second set --")
        second = run_suite(args.seed, args.quick, args.out)
        document = {"first": document, "second": second}
        print("-- selfcheck --")
        ok = ok and suite_correct(second) and selfcheck(document["first"], second)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result.json").write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {args.out / 'result.json'}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1
