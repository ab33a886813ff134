"""Command-line runner for the experiment registry.

Usage::

    python -m repro.experiments list                      # all experiments
    python -m repro.experiments run table13               # run one
    python -m repro.experiments run all                   # run everything (slow)
    python -m repro.experiments run table11 --seeds 5     # mean ± std trials
    python -m repro.experiments run table11 --cache-dir .eva-cache
    python -m repro.experiments run all --dry-run --cache-dir .eva-cache
    python -m repro.experiments run table13 --format json --output out.json
    python -m repro.experiments report out.json           # re-render a run
    python -m repro.experiments table13                   # shorthand for run

Options (run):

* ``--seed N`` — base seed (default 0).
* ``--seeds N`` — run scenario-grid experiments across N seeds
  (``seed .. seed+N-1``) and report mean ± std; direct experiments
  (data tables, timing micro-benchmarks) ignore this.
* ``--cache-dir DIR`` — persistent result cache; re-runs with the same
  directory re-simulate nothing (content-addressed, code-token keyed).
* ``--dry-run`` — print the scenario grid (labels + fingerprints) and,
  with ``--cache-dir``, each cell's cache hit/miss status, without
  simulating anything.  Honours ``--seeds`` (shows the expanded
  scenario × seed product) and ``--param``; direct experiments have no
  grid and are reported as such.  Text-only: combining it with
  ``--format``/``--output`` is rejected.
* ``--format {text,json,csv}`` — stdout format.
* ``--output FILE`` — also write the JSON run record (any format).
* ``--workers N`` — process fan-out (default: ``EVA_BENCH_WORKERS``).
* ``--fabric URL`` — run scenario grids on a distributed sweep fabric
  (``python -m repro.sim.fabric serve`` + workers) instead of local
  processes; results come back byte-identical through the fabric's
  shared content-addressed store.  With ``--cache-dir`` the local
  directory becomes a read-through cache in front of the fabric.
* ``--fabric-timeout S`` — give up on an unresponsive fleet after S
  seconds (default: wait forever).
* ``--param k=v`` — experiment-specific size override (e.g.
  ``--param num_jobs=60``), repeatable.  A name no selected experiment
  declares, or a value of the wrong type, exits 2 before anything runs
  and lists the experiment's parameters.

``EVA_BENCH_SCALE`` scales default experiment sizes
(see :mod:`repro.experiments.common`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Sequence

from repro.experiments.registry import (
    ExperimentContext,
    ExperimentRun,
    all_specs,
    check_params,
    experiment_ids,
    get_experiment,
    run_experiment,
)

_COMMANDS = ("list", "run", "report")


def _parse_param(text: str) -> tuple[str, Any]:
    from repro.analysis.reporting import parse_cell

    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"--param expects key=value, got {text!r}"
        )
    return key, parse_cell(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's table/figure experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="show registered experiments")
    list_parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "ids", nargs="+", help="experiment ids (or 'all')"
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="run grid experiments across N seeds and report mean ± std",
    )
    run_parser.add_argument("--cache-dir", default=None)
    run_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the scenario grid and cache status without simulating",
    )
    run_parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    run_parser.add_argument(
        "--output", default=None, help="write the JSON run record here"
    )
    run_parser.add_argument("--workers", type=int, default=None)
    run_parser.add_argument(
        "--fabric",
        default=None,
        metavar="URL",
        help="run scenario grids on a sweep-fabric fleet at this URL",
    )
    run_parser.add_argument(
        "--fabric-timeout",
        type=float,
        default=None,
        metavar="S",
        help="give up on an unresponsive fleet after S seconds",
    )
    run_parser.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        default=[],
        metavar="KEY=VALUE",
        help="experiment-specific override, repeatable",
    )

    report_parser = sub.add_parser(
        "report", help="re-render a saved JSON run record"
    )
    report_parser.add_argument("file", help="JSON file written by run --output")
    report_parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    report_parser.add_argument(
        "--id",
        action="append",
        default=None,
        help="only render these experiment ids",
    )
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    specs = all_specs()
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"id": s.id, "kind": s.kind, "title": s.title}
                    for s in specs
                ],
                indent=2,
            )
        )
        return 0
    width = max(len(s.id) for s in specs)
    for spec in specs:
        print(f"{spec.id.ljust(width)}  [{spec.kind:>6}]  {spec.title}")
    return 0


def _resolve_ids(ids: Sequence[str]) -> list[str]:
    unknown = [n for n in ids if n != "all" and n not in experiment_ids()]
    if unknown:
        raise KeyError(unknown)
    if "all" in ids:
        return list(experiment_ids())
    return list(dict.fromkeys(ids))


def _csv_blocks(payload: dict) -> str:
    from repro.analysis.reporting import ExperimentTable

    lines: list[str] = []
    for table in payload["tables"]:
        title = table["title"]
        if not title.startswith(payload["id"]):
            title = f"{payload['id']}: {title}"
        lines.append(f"# {title}")
        lines.append(ExperimentTable.from_json(table).to_csv().rstrip("\n"))
        lines.append("")
    return "\n".join(lines)


def _print_run(payload: dict, fmt: str) -> None:
    if fmt == "csv":
        print(_csv_blocks(payload))
        return
    print(payload["text"])
    cache = payload.get("cache")
    if cache is not None:
        total = cache["hits"] + cache["misses"]
        print(
            f"[cache] hits={cache['hits']}/{total} misses={cache['misses']} "
            f"stores={cache['stores']} uncacheable={cache['uncacheable']}"
        )
    print(f"[{payload['id']} finished in {payload['elapsed_s']:.1f}s]\n")


def _dry_run_grid(
    spec: Any,
    ctx: "ExperimentContext",
    seeds: tuple[int, ...] | None,
    store: Any,
) -> None:
    """Print one grid experiment's planned scenarios and cache status."""
    from repro.sim.batch import reseed
    from repro.sim.fingerprint import FingerprintError

    grid = spec.build(ctx)
    scenarios = grid.scenarios
    if seeds is not None and spec.multi_seed:
        cells = [
            reseed(scenario, seed) for scenario in scenarios for seed in seeds
        ]
        shape = f"{len(scenarios)} scenario(s) x {len(seeds)} seed(s)"
    else:
        cells = scenarios
        shape = f"{len(scenarios)} scenario(s)"
    print(f"{spec.id}: {shape}")
    for scenario in cells:
        try:
            fp = scenario.fingerprint()[:16]
        except FingerprintError:
            fp = "-" * 16
        status = store.probe(scenario) if store is not None else "-"
        print(f"  {fp}  {status:<11}  {scenario.label}")


def _cmd_dry_run(
    names: Sequence[str],
    args: argparse.Namespace,
    store: Any,
    seeds: tuple[int, ...] | None,
    params: dict,
) -> int:
    for name in names:
        spec = get_experiment(name)
        if spec.kind != "grid":
            print(f"{name}: direct experiment — no scenario grid to plan")
            print()
            continue
        ctx = ExperimentContext(
            seed=args.seed,
            seeds=seeds,
            store=store,
            workers=args.workers,
            params=params,
        )
        _dry_run_grid(spec, ctx, seeds, store)
        print()
    if store is not None:
        stats = store.stats
        total = stats.hits + stats.misses
        print(
            f"[cache] hits={stats.hits}/{total} misses={stats.misses} "
            f"uncacheable={stats.uncacheable} "
            f"(code token {store.token[:16]})"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        names = _resolve_ids(args.ids)
    except KeyError as exc:
        print(f"unknown experiment(s): {exc.args[0]}; try 'list'", file=sys.stderr)
        return 2
    if args.seeds is not None and args.seeds < 1:
        print("--seeds must be >= 1", file=sys.stderr)
        return 2
    if args.dry_run and (args.format != "text" or args.output is not None):
        print(
            "--dry-run prints a text plan only; it cannot be combined "
            "with --format or --output",
            file=sys.stderr,
        )
        return 2
    params = dict(args.param)
    try:
        check_params([get_experiment(name) for name in names], params)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    store = None
    dispatcher = None
    if args.fabric is not None:
        from repro.sim.fabric.dispatch import FabricDispatcher

        dispatcher = FabricDispatcher(
            args.fabric, timeout_s=args.fabric_timeout
        )
        store = dispatcher.make_store(args.cache_dir)
    elif args.cache_dir is not None:
        from repro.sim.results import ResultStore

        store = ResultStore(args.cache_dir)
    seeds = (
        tuple(range(args.seed, args.seed + args.seeds))
        if args.seeds is not None
        else None
    )

    if args.dry_run:
        return _cmd_dry_run(names, args, store, seeds, params)

    runs: list[ExperimentRun] = []
    for name in names:
        spec = get_experiment(name)
        ctx = ExperimentContext(
            seed=args.seed,
            seeds=seeds if spec.kind == "grid" else None,
            store=store if spec.kind == "grid" else None,
            workers=args.workers,
            params=params,
            dispatcher=dispatcher if spec.kind == "grid" else None,
        )
        runs.append(run_experiment(spec, ctx))

    record = {
        "command": "run",
        "ids": names,
        "seed": args.seed,
        "seeds": list(seeds) if seeds is not None else None,
        "cache_dir": args.cache_dir,
        "fabric": args.fabric,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "experiments": [run.to_jsonable() for run in runs],
    }
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")

    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        for run in runs:
            _print_run(run.to_jsonable(), args.format)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read run record {args.file!r}: {exc}", file=sys.stderr)
        return 2
    payloads = record.get("experiments", [])
    if args.id:
        wanted = set(args.id)
        payloads = [p for p in payloads if p["id"] in wanted]
        missing = wanted - {p["id"] for p in payloads}
        if missing:
            print(f"not in record: {sorted(missing)}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps({**record, "experiments": payloads}, indent=2))
        return 0
    for payload in payloads:
        if args.format == "csv":
            print(_csv_blocks(payload))
        else:
            print(payload["text"])
            print(f"[{payload['id']} from {args.file}]\n")
    return 0


def main(argv: list[str]) -> int:
    args = argv[1:]
    if not args:
        print(__doc__)
        return 0
    # Back-compat: `python -m repro.experiments table13` means `run table13`.
    if args[0] not in _COMMANDS and args[0] not in ("-h", "--help"):
        args = ["run", *args]
    parsed = _build_parser().parse_args(args)
    if parsed.command == "list":
        return _cmd_list(parsed)
    if parsed.command == "run":
        return _cmd_run(parsed)
    return _cmd_report(parsed)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
