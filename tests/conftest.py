"""Shared fixtures and pytest/hypothesis wiring for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro import Attribute, Dataset, Schema

try:
    from hypothesis import settings as _hyp_settings

    _hyp_settings.register_profile("fast", max_examples=10)
    _hyp_settings.register_profile("slow", max_examples=50)
except ImportError:  # pragma: no cover - hypothesis always in the image
    _hyp_settings = None


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help=(
            "run slow tests (multi-process fault drills, deeper "
            "hypothesis profiles)"
        ),
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: slow test, only runs with --runslow"
    )
    if _hyp_settings is not None:
        profile = "slow" if config.getoption("--runslow") else "fast"
        _hyp_settings.load_profile(profile)


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow test: needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def src_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports this checkout's
    ``repro`` from ``src/``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def mixed_dataset(rng) -> Dataset:
    """A small mixed dataset with one planted contrast on ``x``.

    Group "A" has x in [0, 0.5), group "B" in [0.5, 1); ``noise`` and
    ``color`` are group-independent.
    """
    n = 600
    group = rng.integers(0, 2, n)
    x = np.where(
        group == 0, rng.uniform(0, 0.5, n), rng.uniform(0.5, 1.0, n)
    )
    noise = rng.uniform(0, 1, n)
    color = rng.integers(0, 3, n)
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.continuous("noise"),
            Attribute.categorical("color", ["red", "green", "blue"]),
        ]
    )
    return Dataset(
        schema,
        {"x": x, "noise": noise, "color": color},
        group,
        ["A", "B"],
    )


@pytest.fixture
def categorical_dataset(rng) -> Dataset:
    """Pure-categorical dataset with a planted contrast on ``tool``."""
    n = 800
    group = rng.integers(0, 2, n)
    # tool "T1" is strongly over-represented in group "bad"
    tool = np.where(
        group == 1,
        rng.choice([0, 1, 2], n, p=[0.7, 0.2, 0.1]),
        rng.choice([0, 1, 2], n, p=[0.2, 0.4, 0.4]),
    )
    shift = rng.integers(0, 2, n)
    schema = Schema.of(
        [
            Attribute.categorical("tool", ["T1", "T2", "T3"]),
            Attribute.categorical("shift", ["day", "night"]),
        ]
    )
    return Dataset(
        schema,
        {"tool": tool, "shift": shift},
        group,
        ["good", "bad"],
    )


def _dense_cover_group_counts(backend, cover):
    """The reference expression: count a cover as a dense boolean mask."""
    backend.count_calls += 1
    return backend.dataset.group_counts(cover.to_dense())


@pytest.fixture
def count_covers(monkeypatch):
    """Choose how the counting backend counts covers.

    ``count_covers("bitmap")`` keeps the shipped count on packed words;
    ``count_covers("mask")`` counts each cover as a dense mask with
    ``dataset.group_counts(cover.to_dense())``, the reference the packed
    count must equal.  Worker processes forked afterwards inherit the
    choice.
    """
    from repro.counting import CountingBackend

    def count(way: str) -> None:
        assert way in ("mask", "bitmap"), way
        if way == "mask":
            monkeypatch.setattr(
                CountingBackend, "cover_group_counts",
                _dense_cover_group_counts,
            )

    return count
