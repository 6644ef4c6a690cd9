"""Chunk-native search-state smoke: pack ~1M rows, mine them and run
the meaningfulness filters in a fresh subprocess, and hold its peak RSS
under a fixed budget, with the filters adding nothing measurable.

Slow-gated (``--runslow``); CI runs it in the dedicated
``chunked-search-smoke`` job.  Where ``test_chunked_smoke.py`` pins
*parity* (chunking never changes the answer), this test pins the
*memory* contract of DESIGN.md §13: search state is packed per-chunk
covers and the working set is O(chunk), so a million-row mine must fit
in a small, fixed multiple of the interpreter's own footprint — never
in anything proportional to dense ``n_rows``-wide masks.

The pack itself streams chunk by chunk: the dense dataset never exists
in this process either.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Attribute, ChunkedDataset, Dataset, Schema

N_ROWS = 1_048_576
CHUNK_SIZE = 131_072

#: Hard subprocess peak-RSS budget for the depth-2 mine, in MB.  The
#: interpreter + numpy imports alone cost ~100 MB; the chunked search
#: adds packed covers (~n_rows/8 = 0.13 MB per live space), per-chunk
#: group stacks, and one resident chunk at a time — measured ~130 MB
#: total today.  256 MB leaves room for platform variance and still
#: fails loudly if anything starts densifying per-row search state
#: again (every dense mask copy at this scale is a visible 1 MB+).
RSS_BUDGET_MB = 256

SCHEMA = Schema.of(
    [
        Attribute.continuous("latency"),
        Attribute.continuous("throughput"),
        Attribute.categorical(
            "region", ["us-east", "us-west", "eu", "apac"]
        ),
    ]
)
GROUP_LABELS = ["ok", "degraded"]


def _chunk(rng: np.random.Generator, n: int) -> Dataset:
    group = rng.integers(0, 2, n)
    latency = rng.gamma(2.0, 1.0, n) + np.where(group == 1, 1.5, 0.0)
    throughput = rng.uniform(0.0, 100.0, n)
    region = np.where(
        group == 1,
        rng.choice(4, n, p=[0.1, 0.2, 0.6, 0.1]),
        rng.choice(4, n, p=[0.3, 0.3, 0.1, 0.3]),
    )
    return Dataset(
        SCHEMA,
        {"latency": latency, "throughput": throughput, "region": region},
        group,
        GROUP_LABELS,
    )


#: The meaningfulness filters run on packed item covers (DESIGN.md
#: §15), so they may raise the mine's peak by at most this fraction:
#: a dense mask or a gathered ``int64`` group column at this scale
#: is 1-8 MB, several percent of the peak.
FILTER_PEAK_GROWTH = 0.02

_SUBPROCESS_BODY = """
import json, resource, sys
from repro import ChunkedDataset, ContrastSetMiner, MinerConfig

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

store = ChunkedDataset(sys.argv[1])
result = ContrastSetMiner(MinerConfig(max_tree_depth=2)).mine(store)
mine_peak_mb = peak_mb()
report = result.meaningfulness()
print(json.dumps({
    "mine_peak_rss_mb": round(mine_peak_mb, 1),
    "peak_rss_mb": round(peak_mb(), 1),
    "n_patterns": len(result.patterns),
    "n_meaningful": report.n_meaningful,
}))
"""


@pytest.mark.slow
def test_million_row_mine_fits_rss_budget(tmp_path):
    rng = np.random.default_rng(20190326)
    store = ChunkedDataset.create(
        tmp_path / "store", SCHEMA, GROUP_LABELS
    )
    remaining = N_ROWS
    while remaining:
        n = min(CHUNK_SIZE, remaining)
        store.append(_chunk(rng, n), chunk_size=CHUNK_SIZE)
        remaining -= n
    assert store.n_rows == N_ROWS

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_BODY, str(tmp_path / "store")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["n_patterns"] > 0, "planted contrasts must surface"
    assert report["n_meaningful"] > 0
    assert report["peak_rss_mb"] < RSS_BUDGET_MB, (
        f"chunked mine and filters peaked at {report['peak_rss_mb']} MB, "
        f"budget is {RSS_BUDGET_MB} MB"
    )
    limit = report["mine_peak_rss_mb"] * (1 + FILTER_PEAK_GROWTH)
    assert report["peak_rss_mb"] <= limit, (
        f"the filters raised the peak from {report['mine_peak_rss_mb']} "
        f"to {report['peak_rss_mb']} MB (limit {limit:.1f} MB)"
    )
