"""Command-line interface.

Eight subcommands cover the operational loop a downstream user needs:

* ``repro info data.csv --group outcome`` — describe a dataset;
* ``repro mine data.csv --group outcome`` — mine and print contrasts;
* ``repro compare data.csv --group outcome`` — run the Table 4 protocol;
* ``repro generate adult out.csv`` — materialise a built-in dataset;
* ``repro dataset {pack,append,info}`` — manage chunked on-disk
  datasets for out-of-core mining;
* ``repro store {put,ls,gc}`` — manage a durable pattern store;
* ``repro query STORE`` — query/match against a stored run;
* ``repro serve STORE`` — run the HTTP pattern server.

All commands read/write plain CSV and print plain text, so the tool
drops into shell pipelines.  Commands that take a CSV also accept a
chunked dataset directory (``repro dataset pack`` output) and then mine
out of core.  Every failure path prints to stderr and exits non-zero
(2 for usage/data errors), never a bare traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .analysis import (
    compare_algorithms,
    comparison_table,
    pattern_table,
    ALGORITHMS,
)
from .core import measures
from .core.config import MinerConfig
from .core.miner import ContrastSetMiner
from .dataset.io import read_csv, write_csv

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "SDAD-CS contrast pattern mining for quantitative data "
            "(Khade, Lin & Patel, EDBT 2019)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(value: str) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return n

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "csv",
            help=(
                "input CSV file, or a chunked dataset directory "
                "(see 'repro dataset pack')"
            ),
        )
        p.add_argument(
            "--group",
            help=(
                "name of the group column (required for CSV input; a "
                "chunked dataset directory already knows its group)"
            ),
        )
        p.add_argument(
            "--groups",
            nargs=2,
            metavar=("G1", "G2"),
            help="restrict to two group labels",
        )
        p.add_argument(
            "--delimiter", default=",", help="CSV delimiter (default ,)"
        )

    def add_miner_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", type=float, default=0.1,
                       help="minimum support difference (default 0.1)")
        p.add_argument("--alpha", type=float, default=0.05,
                       help="significance level (default 0.05)")
        p.add_argument("--k", type=int, default=100,
                       help="top-k patterns to keep (default 100)")
        p.add_argument("--depth", type=int, default=5,
                       help="max itemset size (default 5)")
        p.add_argument(
            "--measure",
            default="support_difference",
            choices=measures.available_measures(),
            help="interest measure to optimise",
        )
        p.add_argument(
            "--attributes",
            nargs="+",
            help="restrict the search to these attributes",
        )
        p.add_argument(
            "--backend",
            default="mask",
            choices=("mask", "bitmap"),
            help=(
                "support-counting backend: 'mask' (boolean masks; "
                "batches count each categorical combination from one "
                "contingency table) or 'bitmap' (packed bit-vectors, "
                "faster per candidate on categorical-heavy data)"
            ),
        )
        p.add_argument(
            "--cache-size",
            type=int,
            default=None,
            dest="backend_cache_size",
            metavar="N",
            help=(
                "capacity of the counting backend's memo cache "
                "(bitmap context-coverage LRU, or the per-chunk counts "
                "LRU when mining a chunked dataset); requires "
                "--backend bitmap"
            ),
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=2,
            help=(
                "parallel dispatches a failed task gets before the "
                "serial fallback (default 2)"
            ),
        )
        p.add_argument(
            "--task-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help=(
                "per-task wall-clock budget; a task running longer is "
                "abandoned and retried (default: no timeout)"
            ),
        )
        p.add_argument(
            "--retry-backoff",
            type=float,
            default=0.1,
            metavar="SECONDS",
            help=(
                "base of the exponential retry backoff "
                "(attempt n waits backoff * 2^(n-1) s; default 0.1)"
            ),
        )

    info = sub.add_parser("info", help="describe a dataset")
    add_io(info)

    mine = sub.add_parser("mine", help="mine contrast patterns")
    add_io(mine)
    add_miner_options(mine)
    mine.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="worker processes (>1 uses the level-parallel scheduler)",
    )
    mine.add_argument(
        "--all",
        action="store_true",
        dest="show_all",
        help="print the raw top-k instead of only the meaningful patterns",
    )
    mine.add_argument(
        "--top", type=int, default=20, help="rows to print (default 20)"
    )
    mine.add_argument(
        "--validate",
        type=float,
        metavar="FRACTION",
        help=(
            "hold out this fraction of rows, mine on the rest, and "
            "report only patterns that re-validate on the holdout"
        ),
    )
    mine.add_argument(
        "--briefing",
        action="store_true",
        help="print a plain-language briefing instead of the table",
    )
    mine.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the patterns as JSON (for pipelines/dashboards)",
    )
    mine.add_argument(
        "--explain-prunes",
        action="store_true",
        dest="explain_prunes",
        help=(
            "print the per-rule pruning report (checks, hits, wall time "
            "per pipeline rule)"
        ),
    )
    mine.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help=(
            "persist the mining state here after every completed search "
            "level, so an interrupted run can be continued with --resume"
        ),
    )
    mine.add_argument(
        "--resume",
        metavar="CHECKPOINT",
        help=(
            "continue an interrupted run from a checkpoint file or "
            "directory (deepest level wins); requires the same miner "
            "flags the original run used"
        ),
    )

    compare = sub.add_parser(
        "compare", help="compare algorithms (Table 4 protocol)"
    )
    add_io(compare)
    add_miner_options(compare)
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["sdad_np", "mvd", "entropy", "cortana"],
        choices=sorted(ALGORITHMS),
        help="algorithms to run (first is the WMW reference)",
    )

    def add_query_filters(p: argparse.ArgumentParser) -> None:
        p.add_argument("--min-diff", type=float,
                       help="minimum support difference")
        p.add_argument("--min-pr", type=float, help="minimum purity ratio")
        p.add_argument("--min-surprising", type=float,
                       help="minimum Surprising Measure")
        p.add_argument("--max-p", type=float, dest="max_p_value",
                       help="maximum significance p-value")
        p.add_argument("--max-level", type=int,
                       help="maximum pattern size (attributes)")
        p.add_argument("--pattern-attributes", nargs="+", metavar="ATTR",
                       help="only patterns using all of these attributes")
        p.add_argument("--dominant", metavar="GROUP",
                       help="only patterns dominated by this group")
        p.add_argument(
            "--sort",
            default="interest",
            choices=(
                "interest", "support_difference", "purity_ratio",
                "surprising", "p_value", "level",
            ),
            help="measure to sort by (default interest)",
        )
        p.add_argument("--asc", action="store_true",
                       help="sort ascending instead of descending")
        p.add_argument("--limit", type=int, help="print at most this many")

    store_p = sub.add_parser(
        "store", help="manage a durable pattern store"
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)

    store_put = store_sub.add_parser(
        "put", help="mine a CSV and persist the run into a store"
    )
    add_io(store_put)
    add_miner_options(store_put)
    store_put.add_argument(
        "--store", required=True, metavar="DIR", help="store directory"
    )
    store_put.add_argument(
        "--tags", nargs="*", default=[], help="tags recorded with the run"
    )
    store_put.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the mining run",
    )

    store_ls = store_sub.add_parser("ls", help="list a store's runs")
    store_ls.add_argument("store", metavar="DIR", help="store directory")

    store_gc = store_sub.add_parser(
        "gc", help="delete run files the manifest no longer references"
    )
    store_gc.add_argument("store", metavar="DIR", help="store directory")

    query = sub.add_parser(
        "query", help="query patterns of a stored run"
    )
    query.add_argument("store", metavar="DIR", help="store directory")
    query.add_argument(
        "--run",
        default="latest",
        help="run id to query (default: the latest run)",
    )
    add_query_filters(query)
    query.add_argument(
        "--row",
        nargs="+",
        metavar="ATTR=VALUE",
        help=(
            "point lookup instead of a query: print the patterns "
            "covering this record"
        ),
    )
    query.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit results as JSON",
    )

    serve = sub.add_parser(
        "serve", help="serve a pattern store over HTTP"
    )
    serve.add_argument("store", metavar="DIR", help="store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--run",
        default="latest",
        help="run id to activate (default: the latest run)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="query responses kept in the LRU cache (default 256)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help=(
            "serving processes sharing the port via SO_REUSEPORT "
            "(default 1: single in-process server)"
        ),
    )
    serve.add_argument(
        "--poll-interval", type=float, default=0.25,
        help=(
            "seconds between store polls in multi-worker mode; new runs "
            "appearing in the store hot-swap automatically (default 0.25)"
        ),
    )

    dataset_p = sub.add_parser(
        "dataset",
        help="manage chunked on-disk datasets (out-of-core mining)",
    )
    ds_sub = dataset_p.add_subparsers(dest="dataset_command", required=True)

    ds_pack = ds_sub.add_parser(
        "pack", help="pack a CSV into a new chunked dataset directory"
    )
    add_io(ds_pack)
    ds_pack.add_argument(
        "--store", required=True, metavar="DIR",
        help="directory to create the chunked dataset in",
    )
    ds_pack.add_argument(
        "--chunk-size", type=positive_int, default=None, metavar="ROWS",
        help="rows per chunk (default 262144)",
    )

    ds_append = ds_sub.add_parser(
        "append",
        help="append a CSV's rows to an existing chunked dataset",
    )
    add_io(ds_append)
    ds_append.add_argument(
        "--store", required=True, metavar="DIR",
        help="existing chunked dataset directory",
    )
    ds_append.add_argument(
        "--chunk-size", type=positive_int, default=None, metavar="ROWS",
        help="rows per new chunk (default: one chunk for all rows)",
    )

    ds_info = ds_sub.add_parser(
        "info", help="describe a chunked dataset directory"
    )
    ds_info.add_argument("store", metavar="DIR", help="chunked dataset")
    ds_info.add_argument(
        "--verify",
        action="store_true",
        help="re-hash every chunk file against the manifest digests",
    )

    ds_verify = ds_sub.add_parser(
        "verify",
        help=(
            "re-hash every chunk against the manifest digests; exits 2 "
            "if any chunk is corrupt"
        ),
    )
    ds_verify.add_argument("store", metavar="DIR", help="chunked dataset")

    generate = sub.add_parser(
        "generate", help="write a built-in dataset to CSV"
    )
    generate.add_argument(
        "name",
        help=(
            "dataset name: a UCI stand-in (adult, spambase, ...), "
            "'manufacturing', or simulated_dataset_1..4"
        ),
    )
    generate.add_argument("out", help="output CSV path")
    generate.add_argument(
        "--scale", type=float, help="row-count scale for UCI stand-ins"
    )
    generate.add_argument("--seed", type=int, help="generator seed")
    return parser


def _load(args) -> "object":
    from pathlib import Path

    from .dataset.table import DatasetError

    if Path(args.csv).is_dir():
        # A chunked dataset directory: mine out of core through the lazy
        # view (columns materialise on demand; counting is chunk-aware).
        from .dataset.chunked import ChunkedDataset

        store = ChunkedDataset(args.csv)
        if args.group and args.group != store.group_name:
            raise DatasetError(
                f"chunked dataset {args.csv} groups rows by "
                f"{store.group_name!r}, not {args.group!r}"
            )
        dataset = store.view()
    else:
        if not args.group:
            raise DatasetError("--group is required for CSV input")
        dataset = read_csv(
            args.csv, group_column=args.group, delimiter=args.delimiter
        )
    if args.groups:
        dataset = dataset.select_groups(args.groups)
    return dataset


def _config(args) -> MinerConfig:
    from .resilience import ResiliencePolicy

    return MinerConfig(
        delta=args.delta,
        alpha=args.alpha,
        k=args.k,
        max_tree_depth=args.depth,
        interest_measure=args.measure,
        counting_backend=args.backend,
        backend_cache_size=args.backend_cache_size,
        resilience=ResiliencePolicy(
            max_retries=args.max_retries,
            task_timeout_s=args.task_timeout,
            backoff=args.retry_backoff,
        ),
    )


def _cmd_info(args) -> int:
    dataset = _load(args)
    print(dataset.describe())
    for attr in dataset.schema:
        if attr.is_categorical:
            print(
                f"  {attr.name}: categorical "
                f"({attr.cardinality} values)"
            )
        else:
            col = dataset.column(attr.name)
            print(
                f"  {attr.name}: continuous "
                f"[{col.min():g}, {col.max():g}]"
            )
    return 0


def _cmd_mine(args) -> int:
    from .resilience import CheckpointError

    dataset = _load(args)
    config = _config(args)

    if args.resume and args.validate is not None:
        print(
            "--resume continues the original run's exact state and "
            "cannot be combined with --validate",
            file=sys.stderr,
        )
        return 2

    holdout = None
    mine_on = dataset
    if args.validate is not None:
        from .dataset.sampling import train_holdout_split

        mine_on, holdout = train_holdout_split(dataset, args.validate)

    miner = ContrastSetMiner(config)
    try:
        if args.resume:
            result = miner.resume(
                args.resume,
                dataset=mine_on,
                n_jobs=args.jobs,
                checkpoint_dir=args.checkpoint_dir,
            )
        else:
            result = miner.mine(
                mine_on,
                attributes=args.attributes,
                n_jobs=args.jobs,
                checkpoint_dir=args.checkpoint_dir,
            )
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    if args.show_all:
        patterns = result.top(args.top)
        title = f"Top {len(patterns)} contrasts (raw)"
    else:
        patterns = result.meaningful()[: args.top]
        title = f"Meaningful contrasts (top {len(patterns)})"

    if holdout is not None:
        from .analysis.validation import validate_patterns

        validation = validate_patterns(
            patterns, holdout, delta=config.delta, alpha=config.alpha
        )
        patterns = validation.survivors()
        title += f" — {validation.formatted()}"

    if args.as_json:
        import json

        from .core.serialize import patterns_to_dicts

        print(json.dumps(patterns_to_dicts(patterns), indent=2))
        return 0
    if args.briefing:
        from .analysis.explain import briefing

        print(briefing(patterns, max_items=args.top, title=title))
    else:
        print(pattern_table(patterns, title=title))
    stats = result.stats
    line = (
        f"\n{len(result)} patterns; "
        f"{stats.partitions_evaluated} partitions evaluated, "
        f"{stats.spaces_pruned} pruned, {stats.elapsed_seconds:.2f}s "
        f"[{stats.counting_backend} backend, "
        f"{stats.count_calls} count calls"
    )
    if stats.cache_hits or stats.cache_misses:
        line += (
            f", cache {stats.cache_hits} hits / "
            f"{stats.cache_misses} misses"
        )
    line += "]"
    if result.n_workers > 1:
        line += f" ({result.n_workers} workers)"
    print(line)
    events = [
        (stats.tasks_retried, "task retries"),
        (stats.task_timeouts, "timeouts"),
        (stats.worker_crashes, "worker crashes"),
        (stats.serial_fallbacks, "serial fallbacks"),
        (stats.tasks_failed, "permanent task failures"),
        (stats.checkpoints_written, "checkpoints written"),
    ]
    fired = [f"{count} {label}" for count, label in events if count]
    if stats.resumed_from_level:
        fired.insert(0, f"resumed after level {stats.resumed_from_level}")
    if fired:
        print("resilience: " + ", ".join(fired))
    if args.explain_prunes:
        print()
        print(result.explain_prunes())
    return 0


def _cmd_compare(args) -> int:
    dataset = _load(args)
    comparison = compare_algorithms(
        dataset,
        dataset_name=args.csv,
        algorithms=tuple(args.algorithms),
        config=_config(args),
    )
    print(comparison_table([comparison], args.algorithms))
    print(f"\n(k = {comparison.k_used}; '*' = WMW-indistinguishable "
          f"from {args.algorithms[0]})")
    return 0


def _cmd_generate(args) -> int:
    from .dataset import synthetic, uci
    from .dataset.manufacturing import manufacturing

    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.name in uci.DATASET_REGISTRY:
        if args.scale is not None:
            kwargs["scale"] = args.scale
        dataset = uci.load(args.name, **kwargs)
    elif args.name == "manufacturing":
        dataset = manufacturing(**kwargs)
    elif hasattr(synthetic, args.name):
        dataset = getattr(synthetic, args.name)(**kwargs)
    else:
        known = sorted(uci.DATASET_REGISTRY) + [
            "manufacturing",
            "simulated_dataset_1",
            "simulated_dataset_2",
            "simulated_dataset_3",
            "simulated_dataset_4",
            "figure2_example",
        ]
        print(
            f"unknown dataset {args.name!r}; known: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    write_csv(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows to {args.out}")
    return 0


def _align_groups(dataset, store):
    """Re-code a dataset's group column onto a store's label order.

    Append sources routinely arrive with labels in a different discovery
    order (or with only a subset of the groups present); the rows are
    still appendable as long as every label is one the store knows.
    """
    if tuple(dataset.group_labels) == store.group_labels:
        return dataset
    import numpy as np

    from .dataset.table import Dataset, DatasetError

    recode = []
    for label in dataset.group_labels:
        if label not in store.group_labels:
            raise DatasetError(
                f"group {label!r} is not among the store's groups "
                f"{list(store.group_labels)}"
            )
        recode.append(store.group_labels.index(label))
    table = np.asarray(recode, dtype=np.int64)
    return Dataset(
        dataset.schema,
        {name: dataset.column(name) for name in dataset.schema.names},
        table[np.asarray(dataset.group_codes)],
        store.group_labels,
        store.group_name,
    )


def _cmd_dataset(args) -> int:
    from .dataset.chunked import DEFAULT_CHUNK_SIZE, ChunkedDataset
    from .dataset.table import DatasetError

    if args.dataset_command == "info":
        store = ChunkedDataset(args.store)
        print(store.describe())
        if args.verify:
            store.verify()
            print(f"verified {store.n_chunks} chunks: all digests match")
        for meta in store.chunks:
            print(
                f"  {meta.chunk_id}  {meta.n_rows:8d} rows  "
                f"digest {meta.digest[:12]}"
            )
        return 0

    if args.dataset_command == "verify":
        store = ChunkedDataset(args.store)
        bad = 0
        for meta, error in store.verify_chunks():
            status = "ok" if error is None else f"CORRUPT  {error}"
            print(
                f"{meta.chunk_id}  {meta.n_rows:8d} rows  "
                f"digest {meta.digest[:12]}  {status}"
            )
            if error is not None:
                bad += 1
        if bad:
            print(
                f"error: {bad} of {store.n_chunks} chunks corrupt",
                file=sys.stderr,
            )
            return 2
        print(f"verified {store.n_chunks} chunks: all digests match")
        return 0

    if args.dataset_command == "pack":
        if not args.group:
            raise DatasetError("--group is required to pack a CSV")
        dataset = read_csv(
            args.csv, group_column=args.group, delimiter=args.delimiter
        )
        if args.groups:
            dataset = dataset.select_groups(args.groups)
        store = ChunkedDataset.pack(
            args.store,
            dataset,
            chunk_size=args.chunk_size or DEFAULT_CHUNK_SIZE,
        )
        print(
            f"packed {dataset.n_rows} rows into {store.n_chunks} chunks "
            f"at {args.store}"
        )
        return 0

    if args.dataset_command == "append":
        store = ChunkedDataset(args.store)
        dataset = read_csv(
            args.csv,
            group_column=args.group or store.group_name,
            delimiter=args.delimiter,
            schema=store.schema,
        )
        if args.groups:
            dataset = dataset.select_groups(args.groups)
        dataset = _align_groups(dataset, store)
        new_ids = store.append(dataset, chunk_size=args.chunk_size)
        print(
            f"appended {dataset.n_rows} rows as {len(new_ids)} new "
            f"chunks ({store.n_rows} rows total)"
        )
        return 0
    raise ValueError(f"unknown dataset command {args.dataset_command!r}")


def _query_from_args(args):
    from .serve.query import Query

    return Query(
        attributes=tuple(args.pattern_attributes or ()),
        group=args.dominant,
        min_diff=args.min_diff,
        min_pr=args.min_pr,
        min_surprising=args.min_surprising,
        max_p_value=args.max_p_value,
        max_level=args.max_level,
        sort_by=args.sort,
        descending=not args.asc,
        limit=args.limit,
    )


def _open_run(store_dir: str, run_ref: str):
    from .serve.store import PatternStore, StoreError

    store = PatternStore(store_dir, create=False)
    run_id = store.latest() if run_ref == "latest" else run_ref
    if run_id is None:
        raise StoreError(f"store {store_dir} holds no runs yet")
    return store, store.get(run_id)


def _cmd_store(args) -> int:
    from .serve.store import PatternStore

    if args.store_command == "put":
        dataset = _load(args)
        store = PatternStore(args.store)
        miner = ContrastSetMiner(_config(args))
        result = miner.mine(
            dataset,
            n_jobs=args.jobs,
            attributes=args.attributes,
            store=store,
            store_tags=args.tags,
        )
        print(
            f"stored run {result.run_id}: {len(result)} patterns from "
            f"{dataset.n_rows} rows"
        )
        return 0
    if args.store_command == "ls":
        store = PatternStore(args.store, create=False)
        runs = store.list_runs()
        if not runs:
            print("(store is empty)")
            return 0
        for info in runs:
            tags = f" [{', '.join(info.tags)}]" if info.tags else ""
            print(
                f"{info.run_id}  {info.created}  "
                f"{info.n_patterns:5d} patterns  "
                f"{info.n_rows:7d} rows  "
                f"groups: {', '.join(info.group_labels)}{tags}"
            )
        return 0
    if args.store_command == "gc":
        store = PatternStore(args.store, create=False)
        removed = store.gc()
        print(f"removed {len(removed)} unreferenced entries")
        for name in removed:
            print(f"  {name}")
        return 0
    raise ValueError(f"unknown store command {args.store_command!r}")


def _cmd_query(args) -> int:
    import json as _json

    from .serve.index import PatternIndex
    from .serve.query import apply_query, encode_entry

    _, run = _open_run(args.store, args.run)
    index = PatternIndex(run.patterns, run.interests)

    if args.row:
        row = {}
        for part in args.row:
            name, sep, raw = part.partition("=")
            if not sep or not name:
                raise ValueError(
                    f"--row entries must look like ATTR=VALUE, got {part!r}"
                )
            try:
                row[name] = float(raw)
            except ValueError:
                row[name] = raw
        entries = index.match(row)
        title = f"Patterns covering the record ({run.run_id})"
    else:
        entries = apply_query(index, _query_from_args(args))
        title = f"Query results ({run.run_id})"

    if args.as_json:
        print(_json.dumps([encode_entry(e) for e in entries], indent=2))
        return 0
    print(pattern_table([e.pattern for e in entries], title=title))
    print(f"\n{len(entries)} of {len(run.patterns)} patterns selected")
    return 0


def _cmd_serve(args) -> int:
    from .serve.server import PatternServer, ServeConfig
    from .serve.store import PatternStore, StoreError

    store = PatternStore(args.store, create=False)
    server = PatternServer(
        store,
        ServeConfig(
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            workers=args.workers,
            store_poll_interval=args.poll_interval,
        ),
    )
    run_id = store.latest() if args.run == "latest" else args.run
    if run_id is None:
        raise StoreError(f"store {args.store} holds no runs yet")
    if args.workers <= 1:
        # Multi-worker pools publish inside each worker (they follow the
        # store themselves); pre-publishing here only applies in-process.
        server.publish_run(run_id)
    workers = f", {args.workers} workers" if args.workers > 1 else ""
    print(
        f"serving store {args.store} (active run {run_id}{workers}) "
        f"on http://{args.host}:{args.port} — Ctrl-C to stop"
    )
    server.serve_forever()
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "mine": _cmd_mine,
    "compare": _cmd_compare,
    "generate": _cmd_generate,
    "dataset": _cmd_dataset,
    "store": _cmd_store,
    "query": _cmd_query,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Parse and run; every failure exits non-zero with a stderr line.

    Anticipated errors (missing files, malformed CSVs, store/checkpoint
    problems, bad values) exit 2 with a one-line message; only a genuine
    bug escapes as a traceback.
    """
    args = build_parser().parse_args(argv)
    from .core.serialize import SerializationError
    from .dataset.table import DatasetError
    from .resilience import CheckpointError
    from .serve.store import StoreError

    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        return 130
    except (
        DatasetError,
        StoreError,
        CheckpointError,
        SerializationError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
