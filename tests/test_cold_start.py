"""``scipy.stats`` stays out of every process that only mines and serves.

Loading ``scipy.stats`` costs most of a second and about 45 MB of RSS.
The miner's kernels come from ``scipy.special``; only the Fisher exact
fallback and the Table 4 Mann-Whitney test need ``scipy.stats``, and
they import it on first call.  A fresh interpreter that imports the
package, mines, filters, stores and serves must therefore never load it,
and the two first-use tests must still give scipy's values.
"""

from __future__ import annotations

import json
import subprocess
import sys

_SUBPROCESS_BODY = r"""
import http.client
import json
import sys

import repro, repro.serve, repro.cli
from repro import ContrastSetMiner, MinerConfig
from repro.dataset import uci
from repro.serve import PatternServer, PatternStore, ServeConfig

dataset = uci.adult(scale=0.2)
result = ContrastSetMiner(MinerConfig()).mine(dataset)
meaningful = result.meaningfulness()
store = PatternStore(sys.argv[1])
run_id = store.put(result)
server = PatternServer(store, ServeConfig(port=0))
server.publish_run(run_id)
host, port = server.start()
statuses = []
try:
    conn = http.client.HTTPConnection(host, port, timeout=10)
    conn.request(
        "POST", "/match", body=json.dumps({"row": {"age": 38}}),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    statuses.append(response.status)
    response.read()
    conn.request("GET", "/runs/active/patterns")
    response = conn.getresponse()
    statuses.append(response.status)
    n_served = json.loads(response.read())["count"]
    conn.close()
finally:
    server.stop()
loaded_by_work = "scipy.stats" in sys.modules

from repro.core.stats import fisher_exact_2x2, mann_whitney_u

fisher = fisher_exact_2x2([[8, 2], [1, 5]])
mann_whitney = mann_whitney_u([1.0, 2.5, 3.0, 7.0], [4.0, 5.5, 6.0, 8.0, 9.0])
from scipy import stats

print(json.dumps({
    "n_patterns": len(result.patterns),
    "n_served": n_served,
    "statuses": statuses,
    "loaded_by_work": loaded_by_work,
    "fisher": [fisher, float(stats.fisher_exact([[8, 2], [1, 5]])[1])],
    "mann_whitney": [
        mann_whitney,
        float(stats.mannwhitneyu(
            [1.0, 2.5, 3.0, 7.0], [4.0, 5.5, 6.0, 8.0, 9.0],
            alternative="two-sided",
        ).pvalue),
    ],
}))
"""


def test_mine_store_serve_never_load_scipy_stats(tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_BODY, str(tmp_path / "store")],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["n_patterns"] > 0
    assert report["n_served"] == report["n_patterns"]
    assert report["statuses"] == [200, 200]
    assert not report["loaded_by_work"], (
        "importing, mining, filtering, storing or serving loaded scipy.stats"
    )
    ours, scipy_value = report["fisher"]
    assert ours == scipy_value
    ours, scipy_value = report["mann_whitney"]
    assert ours == scipy_value
