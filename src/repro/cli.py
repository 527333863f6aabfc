"""The figure-regeneration command of the ``repro`` CLI
(``repro.main`` mounts it as ``repro figure``).

Examples
--------
::

    repro figure list
    repro figure run fig3 --scale quick
    repro figure run fig3 --scale standard --workers 4 --cache .repro-cache
    repro figure run fig7 --scale standard --out results/
    repro figure run all --scale quick --out results/
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from pathlib import Path

from .experiments import EXPERIMENTS, SCALES, run_experiment


def _experiment_summary(driver) -> str:
    """One-line summary: the driver's docstring, else its module's."""
    doc = inspect.getdoc(driver)
    if not doc:
        module = sys.modules.get(driver.__module__)
        doc = inspect.getdoc(module) if module else None
    if doc:
        return doc.strip().splitlines()[0]
    return (driver.__module__ or "").rsplit(".", 1)[-1]


def _write_outputs(out_dir: Path, result) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{result.experiment_id}.txt").write_text(result.render() + "\n")
    (out_dir / f"{result.experiment_id}.csv").write_text(result.csv() + "\n")


def print_figure_list() -> None:
    for eid in sorted(EXPERIMENTS):
        print(f"{eid}  {_experiment_summary(EXPERIMENTS[eid])}")
    print()
    print("scales:")
    for name, s in SCALES.items():
        print(
            f"  {name:<9} n_queries={s.n_queries}  "
            f"eval_seeds={len(s.eval_seeds)}  "
            f"adaptive_trials={s.adaptive_trials}  "
            f"sweep_points={s.sweep_points}"
        )


def configure_figure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro figure`` subcommands."""
    sub = parser.add_subparsers(dest="figure_command", required=True)
    sub.add_parser("list", help="list experiment ids and available scales")
    run_p = sub.add_parser("run", help="run one experiment, or 'all'")
    run_p.add_argument(
        "experiment",
        help="experiment id (fig2..fig9) or 'all'",
    )
    run_p.add_argument(
        "--scale",
        default="standard",
        choices=sorted(SCALES),
        help="fidelity/runtime trade-off (default: standard)",
    )
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pipeline worker processes (default: serial; results are "
        "bit-for-bit identical either way)",
    )
    run_p.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory; re-runs and scale "
        "upgrades resume instead of recompute",
    )
    run_p.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for .txt/.csv outputs (default: print to stdout)",
    )


def run_figure_command(args) -> int:
    """Execute a parsed figure command (``list`` or ``run``)."""
    if args.figure_command == "list":
        print_figure_list()
        return 0

    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2

    for eid in ids:
        t0 = time.perf_counter()
        result = run_experiment(
            eid,
            scale=args.scale,
            seed=args.seed,
            workers=args.workers,
            cache_dir=args.cache,
        )
        elapsed = time.perf_counter() - t0
        if args.out is not None:
            _write_outputs(args.out, result)
            print(f"{eid}: wrote {args.out}/{eid}.txt (+.csv) in {elapsed:.1f}s")
        else:
            print(result.render())
            print(f"[{eid} completed in {elapsed:.1f}s]")
    return 0
