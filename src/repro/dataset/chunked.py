"""Out-of-core chunked columnar dataset store (``repro.dataset.chunked``).

Every miner in this package historically required the whole dataset
resident in RAM as dense numpy columns, capping scale far below the
100M+-row workloads the streaming/serving layers are shaped for (the
Facebook continuous contrast-set mining deployment mines an ever-growing
stream of structured crash events).  This module removes that cap with a
chunked, append-able, on-disk columnar store:

* a dataset lives in a directory: a ``manifest.json`` plus one
  subdirectory per *immutable* chunk, each holding one little-endian
  binary file per column;
* categorical columns are dictionary-encoded (the schema's category
  list is the dictionary) and stored at the narrowest code width that
  fits the cardinality (``<u1`` / ``<u2`` / ``<u4``) — the *codec*;
  continuous columns are stored as ``<f8``;
* every column file carries a sha256 digest in the manifest, and every
  chunk a content digest derived from them (the same content-digest
  idea as the checkpoint/store fingerprints) — so caches keyed by chunk
  digest are never invalidated by appends, and corruption is detectable;
* reads are memory-mapped: a chunk materialises at most chunk-sized
  arrays, and parallel workers share chunk bytes through the page cache
  by opening the same files instead of receiving pickled arrays.

Two read-side facades cover the two access patterns:

:meth:`ChunkedDataset.iter_chunks`
    yields ordinary in-memory :class:`~repro.dataset.table.Dataset`
    views of each chunk (mmap-backed) — the substrate for per-chunk
    support counting, which is embarrassingly additive across row
    chunks (chi-square, PR and diff bounds are exact after a per-chunk
    merge of group-count vectors).
:meth:`ChunkedDataset.view`
    a :class:`ChunkedView` — a lazy :class:`Dataset` subclass over the
    full row range that materialises *columns* on demand (LRU-bounded),
    so the SDAD-CS continuous splits and the meaningfulness filters run
    unchanged with peak memory bounded by a few columns, never the full
    table.  ``ContrastSetMiner.mine`` accepts a :class:`ChunkedDataset`
    directly and mines through this view.

Appends are atomic (chunk directory renamed into place, then the
manifest rewritten via the temp-file + ``os.replace`` idiom shared with
the pattern store); a view pins the chunk list it was created with, so
concurrent appends never change what an in-flight mining run sees.
Single writer, many readers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .schema import Attribute, AttributeKind, Schema
from .table import Dataset, DatasetError

__all__ = [
    "CHUNKED_FORMAT",
    "CHUNKED_VERSION",
    "ChunkMeta",
    "ChunkedDataset",
    "ChunkedDatasetError",
    "ChunkedView",
    "DEFAULT_CHUNK_SIZE",
    "GROUP_FILE",
    "categorical_codec",
]

CHUNKED_FORMAT = "repro-chunked-dataset"
CHUNKED_VERSION = 1
MANIFEST_NAME = "manifest.json"
CHUNKS_DIR = "chunks"
#: File name of the group-code column inside a chunk directory (column
#: files are ``<attribute>.bin``; attribute names may not collide with
#: this because it starts with a dot-free reserved prefix).
GROUP_FILE = "__group__"
DEFAULT_CHUNK_SIZE = 262_144

#: Continuous columns are always stored as little-endian float64 — the
#: canonical in-memory dtype, byte-stable across platforms.
CONTINUOUS_CODEC = "<f8"
_CODE_CODECS = ("<u1", "<u2", "<u4")


class ChunkedDatasetError(DatasetError):
    """Raised for malformed stores, incompatible appends, or corruption."""


def categorical_codec(cardinality: int) -> str:
    """Narrowest little-endian unsigned code dtype for a category count."""
    for codec in _CODE_CODECS:
        if cardinality <= np.iinfo(np.dtype(codec)).max + 1:
            return codec
    raise ChunkedDatasetError(
        f"cardinality {cardinality} exceeds the supported code width"
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    """Write a file so it appears complete under its final name or not
    at all (same idiom as the pattern store and checkpoints)."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ChunkMeta:
    """Manifest record of one immutable chunk."""

    __slots__ = ("chunk_id", "n_rows", "group_sizes", "column_digests",
                 "group_digest", "digest")

    def __init__(
        self,
        chunk_id: str,
        n_rows: int,
        group_sizes: tuple[int, ...],
        column_digests: dict[str, str],
        group_digest: str,
        digest: str,
    ) -> None:
        self.chunk_id = chunk_id
        self.n_rows = n_rows
        self.group_sizes = group_sizes
        self.column_digests = column_digests
        self.group_digest = group_digest
        self.digest = digest

    def to_payload(self) -> dict:
        return {
            "id": self.chunk_id,
            "n_rows": self.n_rows,
            "group_sizes": list(self.group_sizes),
            "columns": dict(self.column_digests),
            "group_sha256": self.group_digest,
            "digest": self.digest,
        }

    @staticmethod
    def from_payload(payload: dict) -> "ChunkMeta":
        try:
            return ChunkMeta(
                chunk_id=str(payload["id"]),
                n_rows=int(payload["n_rows"]),
                group_sizes=tuple(int(s) for s in payload["group_sizes"]),
                column_digests={
                    str(k): str(v) for k, v in payload["columns"].items()
                },
                group_digest=str(payload["group_sha256"]),
                digest=str(payload["digest"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ChunkedDatasetError(
                f"malformed chunk record in manifest: {exc}"
            ) from None


def _chunk_digest(
    schema_names: Sequence[str],
    codecs: dict[str, str],
    n_rows: int,
    column_digests: dict[str, str],
    group_digest: str,
) -> str:
    """Content digest of a chunk: a stable hash over the per-column
    digests in schema order (plus the group column and the codecs), so
    two chunks holding the same values under the same encoding always
    share a digest regardless of platform."""
    digest = hashlib.sha256()
    digest.update(f"v{CHUNKED_VERSION}\nrows={n_rows}\n".encode())
    for name in schema_names:
        digest.update(
            f"{name}:{codecs[name]}:{column_digests[name]}\n".encode()
        )
    digest.update(
        f"{GROUP_FILE}:{codecs[GROUP_FILE]}:{group_digest}\n".encode()
    )
    return digest.hexdigest()


def _schema_payload(schema: Schema) -> list[dict]:
    return [
        {
            "name": attr.name,
            "kind": attr.kind.value,
            "categories": list(attr.categories),
        }
        for attr in schema
    ]


def _schema_from_payload(payload: list) -> Schema:
    attributes = []
    for entry in payload:
        kind = AttributeKind(entry["kind"])
        attributes.append(
            Attribute(
                str(entry["name"]), kind, tuple(entry.get("categories", ()))
            )
        )
    return Schema.of(attributes)


class ChunkedDataset:
    """A chunked, append-able, on-disk columnar dataset.

    Open an existing store with ``ChunkedDataset(path)``; create one
    with :meth:`create` or :meth:`pack`.  ``cache_chunks`` bounds how
    many chunk :class:`Dataset` views stay materialised at once.
    """

    def __init__(self, path: str | os.PathLike, cache_chunks: int = 4) -> None:
        self.path = Path(path)
        if cache_chunks < 1:
            raise ChunkedDatasetError("cache_chunks must be >= 1")
        self.cache_chunks = cache_chunks
        manifest = self.path / MANIFEST_NAME
        if not manifest.is_file():
            raise ChunkedDatasetError(
                f"{self.path} is not a chunked dataset (no {MANIFEST_NAME})"
            )
        self._chunk_cache: "OrderedDict[str, Dataset]" = OrderedDict()
        # (chunk id, chunk digest, column) -> checked file path
        self._checked_files: dict[tuple[str, str, str], str] = {}
        self.reload()

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        schema: Schema,
        group_labels: Sequence[str],
        group_name: str = "group",
        cache_chunks: int = 4,
    ) -> "ChunkedDataset":
        """Initialise an empty store for the given row layout."""
        root = Path(path)
        if (root / MANIFEST_NAME).exists():
            raise ChunkedDatasetError(f"{root} already holds a store")
        group_labels = tuple(str(g) for g in group_labels)
        if len(group_labels) < 1:
            raise ChunkedDatasetError("at least one group label required")
        if len(set(group_labels)) != len(group_labels):
            raise ChunkedDatasetError("duplicate group labels")
        codecs = {
            attr.name: (
                categorical_codec(attr.cardinality)
                if attr.is_categorical
                else CONTINUOUS_CODEC
            )
            for attr in schema
        }
        codecs[GROUP_FILE] = categorical_codec(len(group_labels))
        root.mkdir(parents=True, exist_ok=True)
        (root / CHUNKS_DIR).mkdir(exist_ok=True)
        payload = {
            "format": CHUNKED_FORMAT,
            "version": CHUNKED_VERSION,
            "group_name": group_name,
            "group_labels": list(group_labels),
            "schema": _schema_payload(schema),
            "codecs": codecs,
            "chunks": [],
        }
        _atomic_write_text(
            root / MANIFEST_NAME,
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
        )
        return cls(root, cache_chunks=cache_chunks)

    @classmethod
    def pack(
        cls,
        path: str | os.PathLike,
        dataset: Dataset,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_chunks: int = 4,
    ) -> "ChunkedDataset":
        """Create a store from an in-memory dataset, split into chunks."""
        store = cls.create(
            path,
            dataset.schema,
            dataset.group_labels,
            dataset.group_name,
            cache_chunks=cache_chunks,
        )
        store.append(dataset, chunk_size=chunk_size)
        return store

    # ------------------------------------------------------------------
    # Manifest state
    # ------------------------------------------------------------------

    def reload(self) -> None:
        """Re-read the manifest (picks up chunks appended elsewhere)."""
        try:
            payload = json.loads((self.path / MANIFEST_NAME).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ChunkedDatasetError(f"unreadable manifest: {exc}") from None
        if payload.get("format") != CHUNKED_FORMAT:
            raise ChunkedDatasetError(
                f"{self.path} is not a {CHUNKED_FORMAT} store"
            )
        if payload.get("version") != CHUNKED_VERSION:
            raise ChunkedDatasetError(
                f"unsupported store version {payload.get('version')!r} "
                f"(this build reads version {CHUNKED_VERSION})"
            )
        self.schema = _schema_from_payload(payload["schema"])
        self.group_name = str(payload["group_name"])
        self.group_labels = tuple(
            str(g) for g in payload["group_labels"]
        )
        self.codecs = {str(k): str(v) for k, v in payload["codecs"].items()}
        self.chunks = tuple(
            ChunkMeta.from_payload(entry) for entry in payload["chunks"]
        )

    def _write_manifest(self) -> None:
        payload = {
            "format": CHUNKED_FORMAT,
            "version": CHUNKED_VERSION,
            "group_name": self.group_name,
            "group_labels": list(self.group_labels),
            "schema": _schema_payload(self.schema),
            "codecs": dict(self.codecs),
            "chunks": [meta.to_payload() for meta in self.chunks],
        }
        _atomic_write_text(
            self.path / MANIFEST_NAME,
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def n_rows(self) -> int:
        return sum(meta.n_rows for meta in self.chunks)

    def __len__(self) -> int:
        return self.n_rows

    @property
    def n_groups(self) -> int:
        return len(self.group_labels)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        sizes = np.zeros(self.n_groups, dtype=np.int64)
        for meta in self.chunks:
            sizes += np.asarray(meta.group_sizes, dtype=np.int64)
        return tuple(int(s) for s in sizes)

    def chunk_digests(self) -> tuple[str, ...]:
        """Content digests of the chunks, in row order."""
        return tuple(meta.digest for meta in self.chunks)

    def describe(self) -> str:
        disk = sum(
            f.stat().st_size
            for f in (self.path / CHUNKS_DIR).glob("*/*")
            if f.is_file()
        )
        parts = [
            f"{self.n_rows} rows in {self.n_chunks} chunks",
            f"{len(self.schema)} attributes "
            f"({len(self.schema.continuous_names)} continuous, "
            f"{len(self.schema.categorical_names)} categorical)",
            "groups: "
            + ", ".join(
                f"{lbl}={size}"
                for lbl, size in zip(self.group_labels, self.group_sizes)
            ),
            f"{disk / 1e6:.1f} MB on disk",
        ]
        return "; ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChunkedDataset({self.path}: {self.describe()})"

    # ------------------------------------------------------------------
    # Appending (the write path)
    # ------------------------------------------------------------------

    def _check_compatible(self, dataset: Dataset) -> None:
        if dataset.schema != self.schema:
            raise ChunkedDatasetError(
                "appended dataset's schema does not match the store "
                "(names, kinds and category lists must be identical)"
            )
        if tuple(dataset.group_labels) != self.group_labels:
            raise ChunkedDatasetError(
                f"appended dataset's group labels "
                f"{list(dataset.group_labels)} do not match the store's "
                f"{list(self.group_labels)}"
            )

    def append(
        self, dataset: Dataset, chunk_size: int | None = None
    ) -> list[str]:
        """Append a dataset's rows as one or more new immutable chunks.

        Existing chunks (and their digests) are never touched — appends
        only add manifest entries, so every cache keyed by chunk digest
        stays valid.  Returns the new chunk ids.
        """
        self._check_compatible(dataset)
        if chunk_size is not None and chunk_size < 1:
            raise ChunkedDatasetError("chunk_size must be >= 1")
        if dataset.n_rows == 0:
            return []
        step = chunk_size or dataset.n_rows
        new_ids: list[str] = []
        metas = list(self.chunks)
        seq = self.n_chunks
        for start in range(0, dataset.n_rows, step):
            stop = min(start + step, dataset.n_rows)
            meta = self._write_chunk(dataset, start, stop, seq)
            metas.append(meta)
            new_ids.append(meta.chunk_id)
            seq += 1
        self.chunks = tuple(metas)
        self._write_manifest()
        return new_ids

    def _write_chunk(
        self, dataset: Dataset, start: int, stop: int, seq: int
    ) -> ChunkMeta:
        chunk_id = f"chunk-{seq:06d}"
        final_dir = self.path / CHUNKS_DIR / chunk_id
        if final_dir.exists():
            raise ChunkedDatasetError(
                f"chunk directory {final_dir} already exists"
            )
        tmp_dir = Path(
            tempfile.mkdtemp(dir=str(self.path / CHUNKS_DIR), prefix=".tmp-")
        )
        try:
            column_digests: dict[str, str] = {}
            for attr in self.schema:
                codec = self.codecs[attr.name]
                values = np.asarray(dataset.column(attr.name))[start:stop]
                encoded = np.ascontiguousarray(
                    values.astype(np.dtype(codec), casting="same_kind")
                    if attr.is_continuous
                    else values.astype(np.dtype(codec), casting="unsafe")
                )
                column_digests[attr.name] = self._write_file(
                    tmp_dir / f"{attr.name}.bin", encoded
                )
            codes = np.asarray(dataset.group_codes)[start:stop]
            encoded = np.ascontiguousarray(
                codes.astype(np.dtype(self.codecs[GROUP_FILE]),
                             casting="unsafe")
            )
            group_digest = self._write_file(
                tmp_dir / f"{GROUP_FILE}.bin", encoded
            )
            os.replace(tmp_dir, final_dir)
        except BaseException:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            raise
        n_rows = stop - start
        group_sizes = tuple(
            int(c) for c in np.bincount(codes, minlength=self.n_groups)
        )
        digest = _chunk_digest(
            self.schema.names, self.codecs, n_rows, column_digests,
            group_digest,
        )
        return ChunkMeta(
            chunk_id, n_rows, group_sizes, column_digests, group_digest,
            digest,
        )

    @staticmethod
    def _write_file(path: Path, encoded: np.ndarray) -> str:
        data = encoded.tobytes()
        with path.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        return _sha256(data)

    # ------------------------------------------------------------------
    # Reading (the mmap path)
    # ------------------------------------------------------------------

    def _chunk_meta(self, index: int) -> ChunkMeta:
        try:
            return self.chunks[index]
        except IndexError:
            raise ChunkedDatasetError(
                f"chunk index {index} out of range "
                f"(store holds {self.n_chunks})"
            ) from None

    def _check_file(self, meta: ChunkMeta, name: str) -> str:
        """Path of one chunk column file, as ``str``, after checking its
        size against the manifest."""
        path = self.path / CHUNKS_DIR / meta.chunk_id / f"{name}.bin"
        expected = meta.n_rows * np.dtype(self.codecs[name]).itemsize
        try:
            actual = path.stat().st_size
        except OSError:
            raise ChunkedDatasetError(f"missing chunk file {path}") from None
        if actual != expected:
            raise ChunkedDatasetError(
                f"chunk file {path} is {actual} bytes, expected {expected}"
            )
        return str(path)

    def _mmap_file(self, meta: ChunkMeta, name: str) -> np.ndarray:
        """Map one chunk column file read-only.

        Chunk files are immutable, so each one's size is checked once
        per store object, keyed by chunk id and digest so that a
        :meth:`reload` never reuses another chunk's check.  Later
        accesses map the checked ``str`` path: ``np.memmap`` resolves a
        ``Path`` with one ``lstat`` per component.  Every access still
        maps afresh, and the map goes with the last array using it, so
        resident memory stays O(chunk).  A file truncated or removed
        after its check fails to map, and is reported as the check
        reports it.
        """
        key = (meta.chunk_id, meta.digest, name)
        path = self._checked_files.get(key)
        if path is None:
            path = self._checked_files[key] = self._check_file(meta, name)
        dtype = np.dtype(self.codecs[name])
        if meta.n_rows == 0:
            return np.empty(0, dtype=dtype)
        try:
            return np.memmap(
                path, dtype=dtype, mode="r", shape=(meta.n_rows,)
            )
        except (OSError, ValueError) as exc:
            error = exc
        self._checked_files.pop(key, None)
        self._check_file(meta, name)
        raise ChunkedDatasetError(f"unreadable chunk file {path}: {error}")

    def chunk_dataset(self, index: int) -> Dataset:
        """In-memory :class:`Dataset` view of one chunk (mmap-backed).

        Continuous columns stay zero-copy memory maps; categorical code
        columns are widened to the canonical ``int64`` (a chunk-sized
        copy).  Views are LRU-cached up to ``cache_chunks``.
        """
        meta = self._chunk_meta(index)
        cached = self._chunk_cache.get(meta.chunk_id)
        if cached is not None:
            self._chunk_cache.move_to_end(meta.chunk_id)
            return cached
        columns = {
            attr.name: self._mmap_file(meta, attr.name)
            for attr in self.schema
        }
        codes = self._mmap_file(meta, GROUP_FILE).astype(np.int64)
        chunk = Dataset(
            self.schema, columns, codes, self.group_labels, self.group_name
        )
        self._chunk_cache[meta.chunk_id] = chunk
        while len(self._chunk_cache) > self.cache_chunks:
            self._chunk_cache.popitem(last=False)
        return chunk

    def iter_chunks(self) -> Iterator[Dataset]:
        """Yield each chunk as an ordinary :class:`Dataset` view."""
        for index in range(self.n_chunks):
            yield self.chunk_dataset(index)

    def gather_column(
        self, name: str, chunk_indices: Sequence[int] | None = None
    ) -> np.ndarray:
        """Materialise one full column (canonical dtype) across chunks."""
        attr = self.schema[name]
        indices = (
            range(self.n_chunks) if chunk_indices is None else chunk_indices
        )
        metas = [self._chunk_meta(i) for i in indices]
        total = sum(m.n_rows for m in metas)
        dtype = np.float64 if attr.is_continuous else np.int64
        out = np.empty(total, dtype=dtype)
        offset = 0
        for meta in metas:
            raw = self._mmap_file(meta, name)
            out[offset:offset + meta.n_rows] = raw
            offset += meta.n_rows
        return out

    def gather_group_codes(
        self, chunk_indices: Sequence[int] | None = None
    ) -> np.ndarray:
        """Materialise the full ``int64`` group-code column."""
        indices = (
            range(self.n_chunks) if chunk_indices is None else chunk_indices
        )
        metas = [self._chunk_meta(i) for i in indices]
        out = np.empty(sum(m.n_rows for m in metas), dtype=np.int64)
        offset = 0
        for meta in metas:
            raw = self._mmap_file(meta, GROUP_FILE)
            out[offset:offset + meta.n_rows] = raw
            offset += meta.n_rows
        return out

    def to_dataset(self) -> Dataset:
        """Fully materialise the store as one in-memory dataset."""
        columns = {
            name: self.gather_column(name) for name in self.schema.names
        }
        return Dataset(
            self.schema,
            columns,
            self.gather_group_codes(),
            self.group_labels,
            self.group_name,
        )

    def view(self, max_resident_columns: int = 2) -> "ChunkedView":
        """Lazy full-range :class:`Dataset` facade (see module docs)."""
        return ChunkedView(
            self, max_resident_columns=max_resident_columns
        )

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def verify_chunks(self):
        """Re-hash every chunk's files against the manifest digests.

        Yields ``(meta, error)`` per chunk in row order, where ``error``
        is ``None`` for an intact chunk or a one-line description of the
        first problem found in it (unreadable file, per-file digest
        mismatch, or stale chunk content digest).  All chunks are always
        visited — callers that want fail-fast semantics use
        :meth:`verify`; the CLI ``dataset verify`` subcommand reports
        every chunk.
        """
        for meta in self.chunks:
            chunk_dir = self.path / CHUNKS_DIR / meta.chunk_id
            error: str | None = None
            for name, expected in list(meta.column_digests.items()) + [
                (GROUP_FILE, meta.group_digest)
            ]:
                path = chunk_dir / f"{name}.bin"
                try:
                    actual = _sha256(path.read_bytes())
                except OSError as exc:
                    error = f"unreadable chunk file {path}: {exc}"
                    break
                if actual != expected:
                    error = (
                        f"digest mismatch in {path}: manifest says "
                        f"{expected[:12]}…, file hashes to {actual[:12]}…"
                    )
                    break
            if error is None:
                recomputed = _chunk_digest(
                    self.schema.names, self.codecs, meta.n_rows,
                    meta.column_digests, meta.group_digest,
                )
                if recomputed != meta.digest:
                    error = f"chunk digest mismatch for {meta.chunk_id}"
            yield meta, error

    def verify(self) -> None:
        """Re-hash every chunk file against the manifest digests.

        Raises :class:`ChunkedDatasetError` on the first mismatch;
        completing silently means the store's bytes are exactly what the
        manifest promised.
        """
        for _meta, error in self.verify_chunks():
            if error is not None:
                raise ChunkedDatasetError(error)


def _reopen_view(
    path: str, chunk_ids: tuple[str, ...], max_resident_columns: int
) -> "ChunkedView":
    """Unpickle hook: re-open the store and pin the pickled chunk list.

    Workers receive (path, chunk ids) — a few hundred bytes — and read
    chunk bytes through the shared page cache, never a pickled table.
    """
    store = ChunkedDataset(path)
    return ChunkedView(
        store,
        chunk_ids=chunk_ids,
        max_resident_columns=max_resident_columns,
    )


class ChunkedView(Dataset):
    """Lazy, mmap-backed :class:`Dataset` over a :class:`ChunkedDataset`.

    The view pins the store's chunk list at construction time, so a
    mining run sees a stable snapshot even while new chunks are being
    appended.  Columns materialise on first access (at canonical dtype,
    so every consumer — SDAD-CS splits, fingerprints, bitmap indexes —
    sees byte-identical values to an in-memory dataset) and at most
    ``max_resident_columns`` stay resident.  Group codes are lazy too:
    row totals and group sizes come from the chunk manifests, the
    chunk-native counting path never widens them to ``int64``, and
    consumers that need the full column (fingerprints, ``restrict``)
    gather it on first access.  :meth:`column` is an LRU of gathered
    columns; :meth:`iter_chunk_columns` maps the chunk files on every
    call and keeps nothing.

    Pickling a view captures only ``(path, chunk ids)``; workers
    re-open the store and share chunk bytes via the page cache.
    """

    def __init__(
        self,
        store: ChunkedDataset,
        chunk_ids: Sequence[str] | None = None,
        max_resident_columns: int = 2,
    ) -> None:
        # Deliberately does NOT call Dataset.__init__: columns are lazy.
        if max_resident_columns < 1:
            raise ChunkedDatasetError("max_resident_columns must be >= 1")
        self._store = store
        if chunk_ids is None:
            self._chunk_ids = tuple(m.chunk_id for m in store.chunks)
        else:
            known = {m.chunk_id: m for m in store.chunks}
            missing = [c for c in chunk_ids if c not in known]
            if missing:
                raise ChunkedDatasetError(
                    f"store {store.path} no longer holds chunks {missing}"
                )
            self._chunk_ids = tuple(chunk_ids)
        by_id = {m.chunk_id: i for i, m in enumerate(store.chunks)}
        self._chunk_indices = tuple(by_id[c] for c in self._chunk_ids)
        self.max_resident_columns = max_resident_columns
        self._schema = store.schema
        self._group_name = store.group_name
        self._group_labels = store.group_labels
        # Group codes are lazy: row totals and group sizes come from the
        # chunk manifests, and the chunk-native counting path (packed
        # covers + per-chunk group bit-stacks) never reads the int64
        # column at all.  Consumers that do (fingerprints, restrict)
        # trigger a one-off gather through the ``_group_codes`` property.
        self._resident_codes: np.ndarray | None = None
        metas = [store._chunk_meta(i) for i in self._chunk_indices]
        self._n_rows = sum(m.n_rows for m in metas)
        sizes = np.zeros(len(self._group_labels), dtype=np.int64)
        for meta in metas:
            sizes += np.asarray(meta.group_sizes, dtype=np.int64)
        self._group_sizes = tuple(int(c) for c in sizes)
        self._columns: dict[str, np.ndarray] = {}  # unused; lazy instead
        self._column_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()

    # -- chunk-level surface (used by the chunk-aware counting backend)

    @property
    def chunk_store(self) -> ChunkedDataset:
        return self._store

    @property
    def chunk_ids(self) -> tuple[str, ...]:
        return self._chunk_ids

    @property
    def chunk_indices(self) -> tuple[int, ...]:
        return self._chunk_indices

    @property
    def n_chunks(self) -> int:
        return len(self._chunk_ids)

    def chunk_metas(self) -> tuple[ChunkMeta, ...]:
        return tuple(
            self._store._chunk_meta(i) for i in self._chunk_indices
        )

    def iter_chunks(self) -> Iterator[Dataset]:
        for index in self._chunk_indices:
            yield self._store.chunk_dataset(index)

    def iter_chunk_columns(self, name: str) -> Iterator[np.ndarray]:
        """Yield one canonical-dtype array per chunk for ``name``.

        Continuous columns are stored at canonical ``float64`` width, so
        each yield is the chunk's memory-mapped file directly — nothing
        full-length (and for continuous data nothing at all) is
        materialised, and every call maps the files again.
        Concatenating the yields equals :meth:`column` exactly.
        """
        if name not in self._schema:
            raise KeyError(name)
        attr = self._schema[name]
        dtype = np.float64 if attr.is_continuous else np.int64
        for index in self._chunk_indices:
            meta = self._store._chunk_meta(index)
            raw = self._store._mmap_file(meta, name)
            yield raw if raw.dtype == dtype else raw.astype(dtype)

    def resident_columns(self) -> tuple[str, ...]:
        """Names of the currently materialised columns (oldest first)."""
        return tuple(self._column_cache)

    # -- Dataset overrides ------------------------------------------------

    @property
    def _group_codes(self) -> np.ndarray:
        """Lazily gathered ``int64`` group codes (8 bytes/row — only
        consumers outside the chunk-native counting path pay for it)."""
        codes = self._resident_codes
        if codes is None:
            codes = self._store.gather_group_codes(self._chunk_indices)
            self._resident_codes = codes
        return codes

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def group_counts(self, mask: np.ndarray | None = None) -> np.ndarray:
        if mask is None:
            # Manifest-derived totals; no reason to touch the codes.
            return np.asarray(self._group_sizes, dtype=np.int64)
        return super().group_counts(mask)

    def column(self, name: str) -> np.ndarray:
        """One full column at canonical dtype, read-only, through an LRU
        of ``max_resident_columns`` gathered columns.

        A miss fills the column chunk by chunk from
        :meth:`iter_chunk_columns`.  The least recently used columns
        leave the cache *before* a new one is gathered, so the cache
        never holds more than ``max_resident_columns`` columns, even
        during the gather.  A name outside the schema raises
        ``KeyError`` and leaves the cache as it was.
        """
        cached = self._column_cache.get(name)
        if cached is None:
            if name not in self._schema:
                raise KeyError(name)
            while len(self._column_cache) >= self.max_resident_columns:
                self._column_cache.popitem(last=False)
            continuous = self._schema[name].is_continuous
            cached = np.empty(
                self._n_rows, dtype=np.float64 if continuous else np.int64
            )
            offset = 0
            for chunk in self.iter_chunk_columns(name):
                cached[offset:offset + chunk.size] = chunk
                offset += chunk.size
            self._column_cache[name] = cached
        else:
            self._column_cache.move_to_end(name)
        view = cached.view()
        view.flags.writeable = False
        return view

    def _materialised(self) -> dict[str, np.ndarray]:
        return {name: self.column(name) for name in self._schema.names}

    def restrict(self, mask: np.ndarray) -> Dataset:
        """Materialising restriction: the kept rows become an ordinary
        in-memory dataset (callers narrow *before* going out of core)."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != self._group_codes.shape:
            raise DatasetError("mask must be a boolean array over rows")
        columns = {
            name: self.column(name)[mask] for name in self._schema.names
        }
        return Dataset(
            self._schema,
            columns,
            self._group_codes[mask],
            self._group_labels,
            self._group_name,
        )

    def select_groups(self, labels: Sequence[str]) -> Dataset:
        labels = tuple(labels)
        if len(labels) < 1:
            raise DatasetError("need at least one group")
        indices = [self.group_index(g) for g in labels]
        keep = np.isin(self._group_codes, indices)
        recode = np.full(self.n_groups, -1, dtype=np.int64)
        for new, old in enumerate(indices):
            recode[old] = new
        columns = {
            name: self.column(name)[keep] for name in self._schema.names
        }
        return Dataset(
            self._schema,
            columns,
            recode[self._group_codes[keep]],
            labels,
            self._group_name,
        )

    def project(self, names: Sequence[str]) -> "ChunkedView":
        """Projection stays lazy: a new view over the same chunks."""
        sub = self._schema.subset(names)
        view = ChunkedView(
            self._store,
            chunk_ids=self._chunk_ids,
            max_resident_columns=self.max_resident_columns,
        )
        view._schema = sub
        return view

    def missing_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_rows, dtype=bool)
        for attr in self._schema:
            if attr.is_continuous:
                mask |= np.isnan(self.column(attr.name))
        return mask

    # -- pickling ---------------------------------------------------------

    def __reduce__(self):
        return (
            _reopen_view,
            (
                str(self._store.path),
                self._chunk_ids,
                self.max_resident_columns,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChunkedView({self._store.path}: {self.n_rows} rows, "
            f"{self.n_chunks} chunks)"
        )
