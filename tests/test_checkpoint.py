"""Checkpoint format edge cases and fuzzing.

Every anomaly a loader can meet must surface as a clear
:class:`CheckpointError` — never an arbitrary exception and never a
silently wrong resume.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ContrastSetMiner, MinerConfig
from repro.core.serialize import patterns_to_dicts
from repro.dataset import synthetic
from repro.resilience import (
    CHECKPOINT_VERSION,
    CheckpointError,
    MiningCheckpoint,
    dataset_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

CONFIG = MinerConfig(max_tree_depth=2)

#: A level-2 checkpoint of ``mixed_dataset`` at depth 3, written by
#: release 1.6.0.
V1_6_0_CHECKPOINT = (
    Path(__file__).parent / "data" / "v1_6_0" / "checkpoint-level-02.pkl"
)


@pytest.fixture(scope="module")
def checkpoint_run(tmp_path_factory):
    """A real checkpointed run to source valid files from."""
    dataset = synthetic.simulated_dataset_2()
    directory = tmp_path_factory.mktemp("checkpoints")
    result = ContrastSetMiner(CONFIG).mine(
        dataset, checkpoint_dir=directory
    )
    return dataset, directory, result


@pytest.fixture
def checkpoint_file(checkpoint_run):
    _, directory, _ = checkpoint_run
    return directory / "checkpoint-level-01.pkl"


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.pkl")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="no .* files"):
            load_checkpoint(tmp_path)

    def test_truncated_file(self, checkpoint_file, tmp_path):
        clipped = tmp_path / "truncated.pkl"
        clipped.write_bytes(checkpoint_file.read_bytes()[:100])
        with pytest.raises(
            CheckpointError, match="truncated or not a pickle"
        ):
            load_checkpoint(clipped)

    def test_random_bytes(self, tmp_path):
        garbage = tmp_path / "garbage.pkl"
        garbage.write_bytes(b"\x93NUMPY\x01\x00 not a pickle at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(garbage)

    def test_foreign_pickle(self, tmp_path):
        foreign = tmp_path / "foreign.pkl"
        foreign.write_bytes(
            pickle.dumps({"hello": "world", "version": 1})
        )
        with pytest.raises(
            CheckpointError, match="not a repro mining checkpoint"
        ):
            load_checkpoint(foreign)

    def test_non_dict_pickle(self, tmp_path):
        foreign = tmp_path / "list.pkl"
        foreign.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(
            CheckpointError, match="not a repro mining checkpoint"
        ):
            load_checkpoint(foreign)

    def test_wrong_schema_version(self, checkpoint_file, tmp_path):
        with checkpoint_file.open("rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = CHECKPOINT_VERSION + 1
        tampered = tmp_path / "future.pkl"
        tampered.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match="schema version"):
            load_checkpoint(tampered)

    def test_malformed_state(self, checkpoint_file, tmp_path):
        with checkpoint_file.open("rb") as handle:
            payload = pickle.load(handle)
        payload["state"] = {"not": "a checkpoint"}
        tampered = tmp_path / "malformed.pkl"
        tampered.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(tampered)

    @pytest.mark.parametrize("n_bytes", [0, 1, 17, 64])
    def test_fuzz_prefixes_never_leak_raw_errors(
        self, checkpoint_file, tmp_path, n_bytes
    ):
        """Any prefix of a real checkpoint fails cleanly."""
        clipped = tmp_path / f"prefix-{n_bytes}.pkl"
        clipped.write_bytes(checkpoint_file.read_bytes()[:n_bytes])
        with pytest.raises(CheckpointError):
            load_checkpoint(clipped)


class TestCompatibility:
    def test_different_config_rejected(self, checkpoint_file):
        other = MinerConfig(max_tree_depth=2, delta=0.2)
        with pytest.raises(
            CheckpointError, match="different MinerConfig"
        ):
            ContrastSetMiner(other).resume(checkpoint_file)

    def test_different_dataset_rejected(self, checkpoint_file):
        other = synthetic.simulated_dataset_1()
        with pytest.raises(
            CheckpointError, match="different dataset"
        ):
            ContrastSetMiner(CONFIG).resume(
                checkpoint_file, dataset=other
            )

    def test_matching_config_and_dataset_accepted(
        self, checkpoint_run, checkpoint_file
    ):
        dataset, _, result = checkpoint_run
        resumed = ContrastSetMiner(CONFIG).resume(
            checkpoint_file, dataset=dataset
        )
        assert patterns_to_dicts(resumed.patterns) == patterns_to_dicts(
            result.patterns
        )


class TestOlderRelease:
    def test_checkpoint_written_by_1_6_0_resumes_exactly(
        self, mixed_dataset
    ):
        config = MinerConfig(max_tree_depth=3)
        resumed = ContrastSetMiner(config).resume(
            V1_6_0_CHECKPOINT, dataset=mixed_dataset
        )
        assert resumed.stats.resumed_from_level == 2
        full = ContrastSetMiner(config).mine(mixed_dataset)
        assert patterns_to_dicts(resumed.patterns) == patterns_to_dicts(
            full.patterns
        )
        assert (
            resumed.meaningfulness().meaningful
            == full.meaningfulness().meaningful
        )


class TestFormat:
    def test_roundtrip_preserves_state(self, checkpoint_file, tmp_path):
        state = load_checkpoint(checkpoint_file)
        assert isinstance(state, MiningCheckpoint)
        assert state.completed_level == 1
        assert state.config == CONFIG
        assert state.fingerprint == dataset_fingerprint(state.dataset)
        resaved = save_checkpoint(tmp_path / "resaved", state)
        reloaded = load_checkpoint(resaved)
        assert reloaded.completed_level == state.completed_level
        assert reloaded.fingerprint == state.fingerprint
        assert reloaded.topk.patterns() == state.topk.patterns()

    def test_latest_checkpoint_picks_deepest(self, checkpoint_run):
        _, directory, result = checkpoint_run
        deepest = latest_checkpoint(directory)
        assert deepest is not None
        assert deepest.name == (
            f"checkpoint-level-"
            f"{result.summary().n_checkpoints:02d}.pkl"
        )

    def test_no_temp_files_left_behind(self, checkpoint_run):
        """Atomic writes: only final checkpoint names in the directory."""
        _, directory, _ = checkpoint_run
        names = [p.name for p in directory.iterdir()]
        assert all(
            name.startswith("checkpoint-level-")
            and name.endswith(".pkl")
            for name in names
        )


_CROSS_PROCESS_SCRIPT = """
import json, sys
from repro import ContrastSetMiner, MinerConfig
from repro.core.serialize import patterns_to_dicts
from repro.dataset import synthetic

mode, ckpt_dir, out = sys.argv[1], sys.argv[2], sys.argv[3]
config = MinerConfig(max_tree_depth=2)
if mode == "write":
    dataset = synthetic.simulated_dataset_2()
    result = ContrastSetMiner(config).mine(
        dataset, checkpoint_dir=ckpt_dir
    )
else:
    result = ContrastSetMiner(config).resume(
        ckpt_dir + "/checkpoint-level-01.pkl"
    )
with open(out, "w") as handle:
    json.dump(patterns_to_dicts(result.patterns), handle)
"""


class TestCrossProcessResume:
    def test_resume_in_fresh_interpreter_is_exact(self, tmp_path):
        """Regression: ``Itemset`` pickled its *cached hash*, which is
        salted per interpreter (PYTHONHASHSEED) — a checkpoint resumed
        in a new process silently lost redundancy prunes because
        restored itemsets no longer matched freshly built equal ones in
        dict lookups.  Write and resume under explicitly different hash
        seeds and demand identical output."""

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))

        def run(mode, seed, out):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [env.get("PYTHONPATH"), src_dir])
            )
            subprocess.run(
                [
                    sys.executable,
                    "-c",
                    _CROSS_PROCESS_SCRIPT,
                    mode,
                    str(tmp_path / "ckpt"),
                    str(out),
                ],
                check=True,
                timeout=300,
                env=env,
            )
            with open(out) as handle:
                return json.load(handle)

        full = run("write", 1, tmp_path / "full.json")
        resumed = run("resume", 2, tmp_path / "resumed.json")
        assert resumed == full
