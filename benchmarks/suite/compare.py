"""Summarise one set of suite runs, or compare two.

    python3 benchmarks/suite/compare.py A_DIR [B_DIR]

A set is a directory of result files written by ``run.py --out DIR``,
one per (workload, seed, traced or not); run each workload with
several seeds to make a set.  A directory that holds a run twice, or
runs of different lengths or sizes, is refused (exit code 2), and so
are two sets of different lengths or sizes.

With one directory: per (workload, metric), the median, quartiles and
spread (interquartile distance over the median) of the set, and whether
the spread of each end-to-end metric is within its bound.

With two (A the parent or first set, B the change or second set): per
(workload, metric), both sides' medians and quartiles, the share of
seed-matched pairs B won, and a verdict for each end-to-end metric:

``worse``       B's median is worse than A's by more than the bound;
``improved``    B won at least 9 in 10 pairs and its median beats A's by
                more than A's interquartile distance;
``unresolved``  neither, and a side's spread is wider than the bound;
``unchanged``   otherwise.

The two sets agree (exit code 0) when every (kind, workload, metric)
is on both sides with the same seeds, and no end-to-end metric is
``worse`` or ``unresolved``; otherwise the exit code is 1.  Per-layer
metrics of traced runs are listed with their medians and carry no
verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import load_benchmark, quartiles


class SetError(ValueError):
    """A directory that is not one comparable set of runs."""


def load_set(directory: Path) -> tuple[dict, tuple]:
    """``({(kind, workload, metric): {seed: value}}, (seconds, quick))``
    for the result files in ``directory`` (kind is ``plain`` or
    ``trace``).  Every record must share one run length and size, and
    each (kind, workload, seed) may appear once."""
    values: dict = {}
    lengths, seen = set(), set()
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if "metrics" not in record or "workload" not in record:
            continue
        kind = "trace" if record["trace"] else "plain"
        run = (kind, record["workload"], record["seed"])
        if run in seen:
            raise SetError(f"{directory}: {run} appears twice")
        seen.add(run)
        lengths.add((record["seconds"], record["quick"]))
        for metric, entry in record["metrics"].items():
            values.setdefault((kind, record["workload"], metric), {})[
                record["seed"]] = entry["value"]
    if not values:
        raise SetError(f"{directory}: no result files")
    if len(lengths) > 1:
        raise SetError(f"{directory}: runs of different lengths or sizes "
                       f"(seconds, quick): {sorted(lengths)}")
    return values, lengths.pop()


def describe(values) -> dict:
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, share of pairs B won)`` for one end-to-end metric;
    ``a`` and ``b`` map seed to value."""
    sign = 1.0 if better == "higher" else -1.0
    sa, sb = describe(a.values()), describe(b.values())
    pairs = sorted(set(a) & set(b))
    wins = sum(1 for seed in pairs if sign * (b[seed] - a[seed]) > 0)
    won = wins / len(pairs) if pairs else 0.0
    gain = sign * (sb["median"] - sa["median"])
    if gain < -bound * abs(sa["median"]):
        return "worse", won
    if pairs and won >= 0.9 and gain > sa["q3"] - sa["q1"]:
        return "improved", won
    if max(sa["spread"], sb["spread"]) > bound:
        return "unresolved", won
    return "unchanged", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarise or compare sets of suite runs."
    )
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    try:
        set_a, length_a = load_set(args.a)
        set_b, length_b = load_set(args.b) if args.b else (None, length_a)
    except SetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if length_a != length_b:
        print(f"error: the sets ran at different lengths or sizes "
              f"(seconds, quick): {length_a} and {length_b}",
              file=sys.stderr)
        return 2

    agree = True
    for key in sorted(set_a.keys() | (set_b or {}).keys()):
        kind, workload, metric = key
        line = f"{kind:5} {workload:20} {metric:28}"
        for side, values in (("A", set_a), ("B", set_b)):
            if values is None:
                continue
            if key not in values:
                line += f" | {side} missing"
                continue
            d = describe(values[key].values())
            line += (f" | {side} {d['median']:<11.5g} [{d['q1']:.5g}, "
                     f"{d['q3']:.5g}] spread {d['spread']:.3f}")
        spec = end_to_end.get(metric) if kind == "plain" else None
        if set_b is None:
            if spec is not None:
                ok = describe(set_a[key].values())["spread"] <= spec["bound"]
                line += (f" | bound {spec['bound']}"
                         f" {'ok' if ok else 'EXCEEDED'}")
        elif key not in set_a or key not in set_b:
            agree = False
        elif set_a[key].keys() != set_b[key].keys():
            agree = False
            line += " | seeds differ"
        elif spec is not None:
            found, won = verdict(set_a[key], set_b[key], spec["better"],
                                 spec["bound"])
            agree = agree and found in ("improved", "unchanged")
            line += f" | won {won:.2f} {found}"
        print(line)
    if set_b is not None:
        print(f"sets agree: {'yes' if agree else 'no'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
