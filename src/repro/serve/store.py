"""Durable, append-only store of mining runs.

A :class:`PatternStore` turns a :class:`~repro.core.miner.MiningResult`
into a versioned on-disk artifact the serving layer (and tomorrow's
pipeline run) can load back bit-for-bit.  Layout::

    store/
      manifest.json            # the only mutable file; atomically replaced
      .lock                    # advisory writer lock (empty)
      runs/
        run-000001-<digest>/
          meta.json            # envelope: versions, fingerprint, summary
          patterns.jsonl       # one JSON pattern record per line
      quarantine/              # corrupt runs moved aside, never deleted

Design rules:

* **Append-only + atomic visibility.**  ``put`` materialises a complete
  run directory under a temporary name, renames it into place, and only
  then rewrites the manifest (temp file + ``os.replace``).  A process
  killed at any point leaves either the previous manifest (the new run
  is invisible garbage ``gc`` collects) or the new one — never a
  manifest pointing at a half-written run.
* **Versioned content.**  ``meta.json`` embeds the store layout version
  and the pattern-schema envelope from :mod:`repro.core.serialize`, so a
  store written by an incompatible build is rejected with a clear error
  instead of mis-parsed.
* **Corruption is detected, not propagated.**  ``patterns.jsonl`` is
  checksummed in ``meta.json``; truncation, bit flips, foreign files and
  malformed JSON all raise :class:`StoreError` subclasses the server
  maps to client-visible statuses — a broken file can never take the
  serving process down or silently serve wrong patterns.
* **Serialised writers.**  Readers are safe from any number of
  processes and take no lock: the manifest is only ever replaced whole.
  Every manifest rewrite (``put``, ``remove``, ``quarantine``, ``gc``)
  holds an advisory ``fcntl.flock`` on ``<root>/.lock`` from the
  manifest read it is based on to the replace, so concurrent writers in
  any threads or processes take turns instead of losing each other's
  runs or claiming one sequence number twice.  The lock is advisory: a
  writer that edits the store's files by other means is not held off.
  Where ``fcntl`` is missing (not POSIX) writers must be serialised by
  the caller.

JSON-lines over :mod:`repro.core.serialize` keeps the artifact
greppable, diffable, and dependency-free; Python's ``repr``-based float
encoding makes the round trip exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

try:
    import fcntl
except ImportError:  # pragma: no cover - not POSIX
    fcntl = None

from ..core.contrast import ContrastPattern
from ..core.items import Itemset
from ..core.miner import MiningSummary
from ..core.serialize import (
    SerializationError,
    check_header,
    pattern_from_dict,
    pattern_to_dict,
    serialization_header,
)
from ..resilience.checkpoint import dataset_fingerprint

if TYPE_CHECKING:
    from ..core.config import MinerConfig
    from ..core.miner import MiningResult

__all__ = [
    "STORE_VERSION",
    "StoreError",
    "UnknownRunError",
    "CorruptRunError",
    "RunInfo",
    "StoredRun",
    "PatternStore",
]

STORE_VERSION = 1
_STORE_MAGIC = "repro-pattern-store"
_RUN_MAGIC = "repro-pattern-store-run"
_MANIFEST = "manifest.json"
_RUNS_DIR = "runs"
_QUARANTINE_DIR = "quarantine"
_META = "meta.json"
_PATTERNS = "patterns.jsonl"
_TMP_PREFIX = ".tmp-"
_LOCK = ".lock"


class StoreError(RuntimeError):
    """A pattern store or one of its runs cannot be used."""


class UnknownRunError(StoreError):
    """The requested run id is not in the store manifest."""


class CorruptRunError(StoreError):
    """A run's files are truncated, altered, or from another writer."""


@dataclass(frozen=True)
class RunInfo:
    """Manifest-level summary of one stored run."""

    run_id: str
    created: str
    tags: tuple[str, ...]
    n_patterns: int
    n_rows: int
    group_labels: tuple[str, ...]
    content_digest: str
    """SHA-256 of the source dataset (the checkpoint fingerprint digest)."""

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "created": self.created,
            "tags": list(self.tags),
            "n_patterns": self.n_patterns,
            "n_rows": self.n_rows,
            "group_labels": list(self.group_labels),
            "content_digest": self.content_digest,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunInfo":
        try:
            return cls(
                run_id=str(payload["run_id"]),
                created=str(payload["created"]),
                tags=tuple(payload.get("tags", ())),
                n_patterns=int(payload["n_patterns"]),
                n_rows=int(payload["n_rows"]),
                group_labels=tuple(payload["group_labels"]),
                content_digest=str(payload["content_digest"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"malformed run entry in manifest: {exc}"
            ) from exc


@dataclass
class StoredRun:
    """A fully loaded run: everything ``put`` persisted."""

    run_id: str
    patterns: list[ContrastPattern]
    interests: dict[Itemset, float]
    summary: MiningSummary
    config: dict[str, Any]
    tags: tuple[str, ...]
    created: str
    fingerprint: dict[str, Any]
    library_version: str

    def miner_config(self) -> "MinerConfig":
        """Rebuild the :class:`MinerConfig` the run was mined under."""
        from ..core.config import MinerConfig
        from ..resilience.policy import ResiliencePolicy

        payload = dict(self.config)
        payload.pop("batch_evaluation", None)  # retired in 1.6.0
        payload.pop("counting_backend", None)  # retired in 1.7.0
        payload.pop("backend_cache_size", None)  # retired in 1.7.0
        resilience = payload.pop("resilience", None)
        if resilience is not None:
            payload["resilience"] = ResiliencePolicy(**resilience)
        return MinerConfig(**payload)

    def __len__(self) -> int:
        return len(self.patterns)


def _atomic_write_json(path: Path, payload: Any) -> None:
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=_TMP_PREFIX, suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class PatternStore:
    """Append-only, versioned on-disk store of mining runs."""

    def __init__(self, root: str | os.PathLike, create: bool = True) -> None:
        self.root = Path(root)
        self._manifest_path = self.root / _MANIFEST
        self._runs_dir = self.root / _RUNS_DIR
        self._quarantine_dir = self.root / _QUARANTINE_DIR
        if not self._manifest_path.exists():
            if not create:
                raise StoreError(f"no pattern store at {self.root}")
            if self.root.exists() and not self.root.is_dir():
                raise StoreError(f"{self.root} exists and is not a directory")
            self._runs_dir.mkdir(parents=True, exist_ok=True)
            with self._writer_lock():
                if not self._manifest_path.exists():
                    self._write_manifest({"next_seq": 1, "runs": {}})
        else:
            self._read_manifest()  # validate eagerly: fail at open time

    # -- manifest -------------------------------------------------------

    def _read_manifest(self) -> dict[str, Any]:
        try:
            with self._manifest_path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError as exc:
            raise StoreError(f"no pattern store at {self.root}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"unreadable store manifest {self._manifest_path}: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("magic") != _STORE_MAGIC:
            raise StoreError(
                f"{self._manifest_path} is not a repro pattern store manifest"
            )
        version = payload.get("version")
        if version != STORE_VERSION:
            raise StoreError(
                f"store {self.root} has layout version {version!r}; "
                f"this build reads version {STORE_VERSION}"
            )
        if not isinstance(payload.get("runs"), dict):
            raise StoreError(f"store manifest {self._manifest_path} is malformed")
        return payload

    def _write_manifest(self, body: dict[str, Any]) -> None:
        payload = {"magic": _STORE_MAGIC, "version": STORE_VERSION, **body}
        _atomic_write_json(self._manifest_path, payload)

    @contextmanager
    def _writer_lock(self) -> Iterator[None]:
        """Hold the store's exclusive writer lock (``<root>/.lock``).

        Taken around each read-modify-write of the manifest.  The lock
        is released explicitly rather than by closing, so a child forked
        while it was held cannot keep it.
        """
        if fcntl is None:  # pragma: no cover - not POSIX
            yield
            return
        fd = os.open(self.root / _LOCK, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # -- writing --------------------------------------------------------

    def put(
        self,
        result: "MiningResult",
        tags: Sequence[str] = (),
    ) -> str:
        """Persist a mining run; returns its new immutable run id.

        The run becomes visible (in ``list_runs`` and to servers) only
        once its files are completely on disk — a crash mid-``put``
        leaves unreferenced garbage for :meth:`gc`, never a readable
        half-run.  The pattern records are serialised before the writer
        lock is taken; the lock covers the sequence number, the run's
        files and the manifest rewrite.
        """
        fingerprint = dataset_fingerprint(result.dataset)
        tags = tuple(str(tag) for tag in tags)

        records = []
        for pattern in result.patterns:
            record = {"pattern": pattern_to_dict(pattern)}
            interest = result.interests.get(pattern.itemset)
            if interest is not None:
                record["interest"] = float(interest)
            records.append(json.dumps(record, sort_keys=True))
        patterns_blob = ("\n".join(records) + "\n") if records else ""
        patterns_bytes = patterns_blob.encode("utf-8")

        meta = {
            "magic": _RUN_MAGIC,
            "store_version": STORE_VERSION,
            "serialization": serialization_header(),
            "tags": list(tags),
            "n_patterns": len(result.patterns),
            "patterns_sha256": hashlib.sha256(patterns_bytes).hexdigest(),
            "fingerprint": fingerprint,
            "config": asdict(result.config),
            "summary": asdict(result.summary()),
        }

        with self._writer_lock():
            manifest = self._read_manifest()
            seq = int(manifest.get("next_seq", 1))
            run_id = f"run-{seq:06d}-{fingerprint['content'][:12]}"
            created = _utc_now()
            meta.update(run_id=run_id, created=created)

            self._runs_dir.mkdir(parents=True, exist_ok=True)
            tmp_dir = Path(
                tempfile.mkdtemp(dir=self._runs_dir, prefix=_TMP_PREFIX)
            )
            try:
                (tmp_dir / _PATTERNS).write_bytes(patterns_bytes)
                _atomic_write_json(tmp_dir / _META, meta)
                final_dir = self._runs_dir / run_id
                os.replace(tmp_dir, final_dir)
            except BaseException:
                shutil.rmtree(tmp_dir, ignore_errors=True)
                raise

            info = RunInfo(
                run_id=run_id,
                created=created,
                tags=tags,
                n_patterns=len(result.patterns),
                n_rows=int(fingerprint["n_rows"]),
                group_labels=tuple(fingerprint["group_labels"]),
                content_digest=str(fingerprint["content"]),
            )
            manifest["runs"][run_id] = info.to_dict()
            manifest["next_seq"] = seq + 1
            self._write_manifest(
                {"next_seq": manifest["next_seq"], "runs": manifest["runs"]}
            )
        return run_id

    # -- reading --------------------------------------------------------

    def list_runs(self) -> list[RunInfo]:
        """All visible runs, oldest first (run ids sort by sequence)."""
        manifest = self._read_manifest()
        return [
            RunInfo.from_dict(entry)
            for _, entry in sorted(manifest["runs"].items())
        ]

    def latest(self) -> str | None:
        """Id of the most recently put run, or ``None`` for an empty store."""
        runs = self.list_runs()
        return runs[-1].run_id if runs else None

    def get(self, run_id: str) -> StoredRun:
        """Load a run completely, verifying integrity along the way.

        Raises :class:`UnknownRunError` for an id the manifest does not
        reference and :class:`CorruptRunError` for any on-disk anomaly
        (missing files, checksum mismatch, truncation, foreign or
        version-mismatched content).
        """
        manifest = self._read_manifest()
        entry = manifest["runs"].get(run_id)
        if entry is None:
            raise UnknownRunError(
                f"run {run_id!r} is not in store {self.root}"
            )
        info = RunInfo.from_dict(entry)
        run_dir = self._runs_dir / run_id

        meta_path = run_dir / _META
        try:
            with meta_path.open("r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptRunError(
                f"run {run_id!r}: unreadable {_META} ({exc})"
            ) from exc
        if not isinstance(meta, dict) or meta.get("magic") != _RUN_MAGIC:
            raise CorruptRunError(
                f"run {run_id!r}: {_META} is not a pattern-store run record"
            )
        if meta.get("store_version") != STORE_VERSION:
            raise CorruptRunError(
                f"run {run_id!r} has store version "
                f"{meta.get('store_version')!r}; this build reads "
                f"version {STORE_VERSION}"
            )
        try:
            check_header(
                meta.get("serialization", {}), what=f"run {run_id!r}"
            )
        except SerializationError as exc:
            raise CorruptRunError(str(exc)) from exc

        patterns_path = run_dir / _PATTERNS
        try:
            blob = patterns_path.read_bytes()
        except OSError as exc:
            raise CorruptRunError(
                f"run {run_id!r}: unreadable {_PATTERNS} ({exc})"
            ) from exc
        digest = hashlib.sha256(blob).hexdigest()
        if digest != meta.get("patterns_sha256"):
            raise CorruptRunError(
                f"run {run_id!r}: {_PATTERNS} checksum mismatch "
                f"(file is truncated or altered)"
            )

        patterns: list[ContrastPattern] = []
        interests: dict[Itemset, float] = {}
        for lineno, line in enumerate(blob.decode("utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                pattern = pattern_from_dict(record["pattern"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptRunError(
                    f"run {run_id!r}: bad record on line {lineno} "
                    f"of {_PATTERNS}: {exc}"
                ) from exc
            patterns.append(pattern)
            if "interest" in record:
                interests[pattern.itemset] = float(record["interest"])
        if len(patterns) != int(meta.get("n_patterns", -1)):
            raise CorruptRunError(
                f"run {run_id!r}: {_PATTERNS} holds {len(patterns)} "
                f"patterns, meta records {meta.get('n_patterns')}"
            )

        try:
            summary_payload = dict(meta["summary"])
            summary_payload.pop("prune_rule_batched", None)  # retired in 1.6.0
            for retired in ("counting_backend", "cache_hits", "cache_misses"):
                summary_payload.pop(retired, None)  # retired in 1.9.0
            # JSON has no tuples; restore the dataclass's declared type.
            summary_payload["group_labels"] = tuple(
                summary_payload["group_labels"]
            )
            summary = MiningSummary(**summary_payload)
        except (KeyError, TypeError) as exc:
            raise CorruptRunError(
                f"run {run_id!r}: malformed summary in {_META}: {exc}"
            ) from exc

        return StoredRun(
            run_id=run_id,
            patterns=patterns,
            interests=interests,
            summary=summary,
            config=dict(meta.get("config", {})),
            tags=info.tags,
            created=info.created,
            fingerprint=dict(meta.get("fingerprint", {})),
            library_version=str(
                meta.get("serialization", {}).get("library_version", "")
            ),
        )

    # -- maintenance ----------------------------------------------------

    def remove(self, run_id: str) -> None:
        """Drop a run from the manifest (its files remain until :meth:`gc`)."""
        with self._writer_lock():
            manifest = self._read_manifest()
            if run_id not in manifest["runs"]:
                raise UnknownRunError(
                    f"run {run_id!r} is not in store {self.root}"
                )
            del manifest["runs"][run_id]
            self._write_manifest(
                {"next_seq": manifest["next_seq"], "runs": manifest["runs"]}
            )

    def quarantine(self, run_id: str) -> Path:
        """Move a (corrupt) run's files aside and drop it from the manifest.

        The files go to ``quarantine/<run_id>`` for post-mortem rather
        than being deleted; the run stops being visible immediately.
        Idempotent enough for the serving path: a run already quarantined
        by a racing thread just gets dropped from the manifest.
        """
        with self._writer_lock():
            manifest = self._read_manifest()
            run_dir = self._runs_dir / run_id
            if run_dir.exists():
                self._quarantine_dir.mkdir(parents=True, exist_ok=True)
                target = self._quarantine_dir / run_id
                if target.exists():
                    shutil.rmtree(run_dir, ignore_errors=True)
                else:
                    try:
                        os.replace(run_dir, target)
                    except OSError:
                        pass  # racing quarantine; manifest drop still applies
            if run_id in manifest["runs"]:
                del manifest["runs"][run_id]
                self._write_manifest(
                    {"next_seq": manifest["next_seq"],
                     "runs": manifest["runs"]}
                )
        return self._quarantine_dir / run_id

    def gc(self) -> list[str]:
        """Delete run directories the manifest no longer references.

        Collects leftovers of crashed ``put`` calls (temporary
        directories) and runs dropped with :meth:`remove`.  Quarantined
        runs are kept — they were moved aside deliberately.  Returns the
        names removed.
        """
        with self._writer_lock():
            manifest = self._read_manifest()
            referenced = set(manifest["runs"])
            removed: list[str] = []
            for stray in sorted(self.root.glob(f"{_TMP_PREFIX}*")):
                stray.unlink(missing_ok=True)  # crashed manifest rewrites
                removed.append(stray.name)
            if not self._runs_dir.exists():
                return removed
            for entry in sorted(self._runs_dir.iterdir()):
                if entry.name in referenced:
                    continue
                if entry.is_dir():
                    shutil.rmtree(entry, ignore_errors=True)
                else:
                    entry.unlink(missing_ok=True)
                removed.append(entry.name)
        return removed
