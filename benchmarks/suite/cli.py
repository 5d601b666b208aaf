"""Command line of the suite.

``run``      every workload (or one), each in a fresh subprocess;
             prints every metric by name with its unit
``compare``  two or more files written by ``run --out``
``pin``      rewrite ``expected.json`` from the current program
(none)       one workload in this process, the builder's contract:
             ``--workload W --seed N --seconds S --trace 0|1``
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.suite.catalog import (
    DRIVER_END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOAD_NAMES,
    unit_of,
)

ENTRY = Path(__file__).with_name("__main__.py")
DEFAULT_SEED = 19
DETAIL_PREFIX = "detail "


# -- one workload, in this process (the contract) -------------------------


def contract_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.suite")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (smoke test)")
    parser.add_argument("--no-pins", action="store_true",
                        help="ignore expected.json (used by pin)")
    parser.add_argument("--strict", action="store_true",
                        help="a missing boundary or probe is an error")
    return parser


def format_value(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def print_result(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['size']}{', traced' if result['traced'] else ''}) ==")
    for name, entry in result["end_to_end"].items():
        samples = f"  n={entry['n']}" if entry.get("n") else ""
        print(f"  {name:<34}{format_value(entry['value']):>12} "
              f"{entry['unit']}{samples}")
    if result["traced"]:
        for name, value in sorted(result["per_layer"].items()):
            print(f"  {name:<34}{format_value(value):>12} {unit_of(name)}")
        print(f"  missing_boundaries: {result['missing_boundaries']}")
        if result.get("missing_probes"):
            print(f"  missing_probes: {result['missing_probes']}")
    print(f"  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for failure in result["failures"][:10]:
        print(f"  FAILED: {failure}")


def contract_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The last line the driver reads: every end-to-end metric that
    every workload produces, or (traced) every per-layer metric — 0
    where the workload does not exercise the layer."""
    if result["traced"]:
        metrics = {
            m.name: {"value": result["per_layer"].get(m.name) or 0.0,
                     "unit": m.unit}
            for m in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name]["value"],
                   "unit": result["end_to_end"][name]["unit"]}
            for name in DRIVER_END_TO_END
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def contract_main(argv: List[str]) -> int:
    started = time.perf_counter()
    args = contract_parser().parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes seed set and dict layouts, hence timings: pin them
        os.execve(
            sys.executable, [sys.executable, str(ENTRY), *argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    from benchmarks.suite.runner import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds,
        size="quick" if args.quick else "full",
        traced=bool(args.trace),
        expected={} if args.no_pins else None,
        started=started,
    )
    print_result(result)
    unresolved = (result.get("missing_boundaries", [])
                  + result.get("missing_probes", []))
    print(DETAIL_PREFIX + json.dumps(result))
    print(json.dumps(contract_line(result)))
    if result["failed"] or (args.strict and unresolved):
        return 1
    return 0


# -- run: every workload in its own subprocess ----------------------------


def run_one(workload: str, seed: int, seconds: float, traced: bool,
            quick: bool, extra: List[str] = ()) -> Dict[str, Any]:
    """One fresh subprocess; returns its detail record."""
    command = [
        sys.executable, str(ENTRY), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0", *extra,
    ]
    if quick:
        command.append("--quick")
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    for line in completed.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            return json.loads(line[len(DETAIL_PREFIX):])
    raise RuntimeError(
        f"{workload}: no result (exit code {completed.returncode})\n"
        f"{completed.stdout[-2000:]}"
    )


def numbered(path: str, index: int, total: int) -> Path:
    target = Path(path)
    if total == 1:
        return target
    return target.with_name(f"{target.stem}.{index}{target.suffix}")


def run_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.suite run")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--traced", action="store_true",
                        help="add the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N sets; --out writes one file per set")
    parser.add_argument("--out", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    extra = ["--strict"] if args.strict else []
    failed = False
    for index in range(1, args.repeat + 1):
        results: Dict[str, Any] = {}
        for name in names:
            record = run_one(name, args.seed, args.seconds, False,
                             args.quick)
            if args.traced:
                traced = run_one(name, args.seed, args.seconds, True,
                                 args.quick, extra)
                for key in ("per_layer", "missing_boundaries",
                            "missing_probes"):
                    record[key] = traced.get(key)
                record["traced"] = True
                record["attempted"] += traced["attempted"]
                record["failed"] += traced["failed"]
                record["failures"] += traced["failures"]
                if args.strict and (traced.get("missing_boundaries")
                                    or traced.get("missing_probes")):
                    failed = True
            print_result(record)
            failed = failed or record["failed"] > 0
            results[name] = record
        if args.out:
            target = numbered(args.out, index, args.repeat)
            target.write_text(json.dumps(
                {"seed": args.seed, "seconds": args.seconds,
                 "quick": args.quick, "workloads": results}, indent=1,
            ) + "\n", encoding="utf-8")
            print(f"wrote {target}")
    return 1 if failed else 0


# -- pin -------------------------------------------------------------------


def pin_main(argv: List[str]) -> int:
    from benchmarks.suite.checks import EXPECTED_PATH, PINNED_SEED

    argparse.ArgumentParser(prog="benchmarks.suite pin").parse_args(argv)
    expected: Dict[str, Any] = {}
    for size in ("full", "quick"):
        expected[size] = {
            name: run_one(name, PINNED_SEED, RUN_SECONDS, False,
                          size == "quick", ["--no-pins"])["pins"]
            for name in WORKLOAD_NAMES
        }
    EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] == "compare":
        from benchmarks.suite.compare import compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "pin":
        return pin_main(argv[1:])
    return contract_main(argv)
