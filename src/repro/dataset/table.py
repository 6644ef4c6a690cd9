"""Columnar dataset with a group attribute, backed by numpy arrays.

This is the substrate the miners operate on.  It stores categorical columns
as ``int64`` code arrays (indexing the attribute's category labels) and
continuous columns as ``float64`` arrays.  The group attribute (Section 3 of
the paper: every row belongs to exactly one group) is stored separately.

The class is deliberately small and immutable-ish: miners never mutate a
dataset; they compute boolean coverage masks over it and count group
membership inside the mask with :meth:`Dataset.group_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .schema import Attribute, AttributeKind, Schema, SchemaError

__all__ = ["Dataset", "DatasetError", "GroupInfo"]


class DatasetError(ValueError):
    """Raised for inconsistent dataset construction or misuse."""


@dataclass(frozen=True)
class GroupInfo:
    """Summary of the group attribute of a dataset."""

    name: str
    labels: tuple[str, ...]
    sizes: tuple[int, ...]

    @property
    def n_groups(self) -> int:
        return len(self.labels)

    def size_of(self, label: str) -> int:
        return self.sizes[self.labels.index(label)]


class Dataset:
    """A mixed categorical/continuous table with one group column.

    Parameters
    ----------
    schema:
        Describes the ordinary (non-group) attributes.
    columns:
        Mapping from attribute name to a numpy array.  Categorical columns
        must be integer codes into the attribute's categories; continuous
        columns are cast to ``float64``.
    group_codes:
        Integer array of group membership codes, one per row.
    group_labels:
        Ordered labels for the group codes.
    group_name:
        Name of the group attribute (display only).
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        group_codes: np.ndarray,
        group_labels: Sequence[str],
        group_name: str = "group",
    ) -> None:
        self._schema = schema
        self._group_name = group_name
        self._group_labels = tuple(group_labels)
        if len(self._group_labels) < 1:
            raise DatasetError("at least one group label required")
        if len(set(self._group_labels)) != len(self._group_labels):
            raise DatasetError("duplicate group labels")

        group_codes = np.asarray(group_codes)
        if group_codes.ndim != 1:
            raise DatasetError("group_codes must be 1-dimensional")
        if not np.issubdtype(group_codes.dtype, np.integer):
            raise DatasetError("group_codes must be integers")
        n_rows = group_codes.shape[0]
        if n_rows and (
            group_codes.min() < 0 or group_codes.max() >= len(self._group_labels)
        ):
            raise DatasetError("group code out of range")
        self._group_codes = group_codes.astype(np.int64, copy=False)

        self._columns: dict[str, np.ndarray] = {}
        missing = set(schema.names) - set(columns)
        if missing:
            raise DatasetError(f"missing columns: {sorted(missing)}")
        extra = set(columns) - set(schema.names)
        if extra:
            raise DatasetError(f"columns not in schema: {sorted(extra)}")
        for attr in schema:
            col = np.asarray(columns[attr.name])
            if col.ndim != 1:
                raise DatasetError(f"column {attr.name!r} must be 1-d")
            if col.shape[0] != n_rows:
                raise DatasetError(
                    f"column {attr.name!r} has {col.shape[0]} rows, "
                    f"expected {n_rows}"
                )
            if attr.is_categorical:
                if not np.issubdtype(col.dtype, np.integer):
                    raise DatasetError(
                        f"categorical column {attr.name!r} must hold codes"
                    )
                if col.size and (
                    col.min() < 0 or col.max() >= attr.cardinality
                ):
                    raise DatasetError(
                        f"code out of range in column {attr.name!r}"
                    )
                self._columns[attr.name] = col.astype(np.int64, copy=False)
            else:
                self._columns[attr.name] = col.astype(np.float64, copy=False)

        self._group_sizes = tuple(
            int(c)
            for c in np.bincount(
                self._group_codes, minlength=len(self._group_labels)
            )
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_records(
        records: Iterable[Mapping[str, object]],
        schema: Schema,
        group_name: str = "group",
        group_labels: Sequence[str] | None = None,
    ) -> "Dataset":
        """Build a dataset from an iterable of dict-like rows.

        Each record must have a value for every schema attribute plus the
        group column ``group_name``.  Categorical values and group values
        are given as labels, not codes.
        """
        rows = list(records)
        raw_groups = [str(r[group_name]) for r in rows]
        if group_labels is None:
            group_labels = tuple(dict.fromkeys(raw_groups))
        label_index = {g: i for i, g in enumerate(group_labels)}
        try:
            group_codes = np.array(
                [label_index[g] for g in raw_groups], dtype=np.int64
            )
        except KeyError as exc:
            raise DatasetError(f"unknown group label {exc.args[0]!r}") from None

        columns: dict[str, np.ndarray] = {}
        for attr in schema:
            if attr.is_categorical:
                columns[attr.name] = np.array(
                    [attr.code_of(str(r[attr.name])) for r in rows],
                    dtype=np.int64,
                )
            else:
                columns[attr.name] = np.array(
                    [float(r[attr.name]) for r in rows], dtype=np.float64
                )
        return Dataset(schema, columns, group_codes, group_labels, group_name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return int(self._group_codes.shape[0])

    def __len__(self) -> int:
        return self.n_rows

    @property
    def group_name(self) -> str:
        return self._group_name

    @property
    def group_labels(self) -> tuple[str, ...]:
        return self._group_labels

    @property
    def n_groups(self) -> int:
        return len(self._group_labels)

    @property
    def group_codes(self) -> np.ndarray:
        """Read-only view of the group code array."""
        view = self._group_codes.view()
        view.flags.writeable = False
        return view

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return self._group_sizes

    @property
    def group_info(self) -> GroupInfo:
        return GroupInfo(self._group_name, self._group_labels, self._group_sizes)

    def column(self, name: str) -> np.ndarray:
        """Read-only view of a column (codes for categorical attributes)."""
        try:
            view = self._columns[name].view()
        except KeyError:
            raise KeyError(name) from None
        view.flags.writeable = False
        return view

    def attribute(self, name: str) -> Attribute:
        return self._schema[name]

    # ------------------------------------------------------------------
    # Chunk protocol: how the counting backend reads any layout
    # ------------------------------------------------------------------

    @property
    def chunk_sizes(self) -> tuple[int, ...]:
        """Row counts of the dataset's chunks; in memory, one chunk."""
        return (self.n_rows,)

    def chunk(self, i: int) -> "Dataset":
        """Chunk ``i`` as an in-memory dataset: here, the dataset itself."""
        if i != 0:
            raise IndexError(f"chunk {i} of a one-chunk dataset")
        return self

    def chunk_group_codes(self, i: int) -> np.ndarray:
        """Group codes of chunk ``i``'s rows (any integer width)."""
        return self.chunk(i).group_codes

    def iter_chunk_columns(self, name: str) -> Iterator[np.ndarray]:
        """Yield column ``name`` chunk by chunk; here, the one column."""
        yield self.column(name)

    # ------------------------------------------------------------------
    # Counting primitives used by the miners
    # ------------------------------------------------------------------

    def group_counts(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Per-group row counts, optionally restricted to a boolean mask.

        This is the core counting primitive: ``group_counts(cover(itemset))``
        yields ``count_k(c)`` for every group ``k`` (Eq. 1).  A masked
        count ANDs the mask with each group's row mask and counts the
        hits: no gather of the masked ``int64`` group codes (DESIGN.md
        §7).
        """
        if mask is None:
            return np.bincount(self._group_codes, minlength=self.n_groups)
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (self.n_rows,):
            raise DatasetError("mask must be a boolean array over rows")
        hits = np.empty_like(mask)
        counts = np.empty(self.n_groups, dtype=np.int64)
        for k, in_group in enumerate(self._in_group()):
            np.logical_and(mask, in_group, out=hits)
            counts[k] = np.count_nonzero(hits)
        return counts

    def _in_group(self) -> tuple[np.ndarray, ...]:
        """One boolean row mask per group (G bytes per row), built on
        first use and kept for the dataset's lifetime; pickles leave it
        out (see :meth:`__getstate__`)."""
        masks = self.__dict__.get("_group_row_masks")
        if masks is None:
            codes = self._group_codes
            masks = tuple(codes == k for k in range(self.n_groups))
            self._group_row_masks = masks
        return masks

    def __getstate__(self) -> dict:
        # The row masks are a cache over the group codes: pickles stay
        # as small as (and byte-compatible with) those of 1.6.0, which
        # had no such attribute and rebuild it on first use.
        state = self.__dict__.copy()
        state.pop("_group_row_masks", None)
        return state

    def supports(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Per-group supports ``supp_k = count_k / |g_k|`` (Eq. 1).

        Groups with zero rows get support 0.
        """
        counts = self.group_counts(mask).astype(np.float64)
        sizes = np.array(self._group_sizes, dtype=np.float64)
        out = np.zeros_like(counts)
        np.divide(counts, sizes, out=out, where=sizes > 0)
        return out

    def group_index(self, label: str) -> int:
        try:
            return self._group_labels.index(label)
        except ValueError:
            raise DatasetError(f"unknown group {label!r}") from None

    def group_mask(self, label: str) -> np.ndarray:
        """Boolean mask of rows belonging to one group."""
        return self._group_codes == self.group_index(label)

    # ------------------------------------------------------------------
    # Restriction / projection
    # ------------------------------------------------------------------

    def restrict(self, mask: np.ndarray) -> "Dataset":
        """New dataset containing only rows where ``mask`` is True.

        Group labels are preserved (groups may become empty).
        """
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != self._group_codes.shape:
            raise DatasetError("mask must be a boolean array over rows")
        columns = {name: col[mask] for name, col in self._columns.items()}
        return Dataset(
            self._schema,
            columns,
            self._group_codes[mask],
            self._group_labels,
            self._group_name,
        )

    def select_groups(self, labels: Sequence[str]) -> "Dataset":
        """Dataset restricted to the named groups, re-coding membership.

        This is how a multi-group dataset is narrowed to the two groups of
        interest before mining (e.g. Doctorate vs Bachelors in the Adult
        experiments).
        """
        labels = tuple(labels)
        if len(labels) < 1:
            raise DatasetError("need at least one group")
        indices = [self.group_index(g) for g in labels]
        keep = np.isin(self._group_codes, indices)
        recode = np.full(self.n_groups, -1, dtype=np.int64)
        for new, old in enumerate(indices):
            recode[old] = new
        columns = {name: col[keep] for name, col in self._columns.items()}
        return Dataset(
            self._schema,
            columns,
            recode[self._group_codes[keep]],
            labels,
            self._group_name,
        )

    def project(self, names: Sequence[str]) -> "Dataset":
        """Dataset keeping only the named attribute columns."""
        sub = self._schema.subset(names)
        columns = {a.name: self._columns[a.name] for a in sub}
        return Dataset(
            sub,
            columns,
            self._group_codes,
            self._group_labels,
            self._group_name,
        )

    # ------------------------------------------------------------------
    # Missing values
    # ------------------------------------------------------------------

    def missing_mask(self) -> np.ndarray:
        """Boolean mask of rows with a missing (NaN) continuous value.

        Continuous columns may hold NaN for missing readings; such rows
        are simply never covered by a numeric item (NaN fails every
        range comparison), which matches the paper's observation that
        real data contains missing values without requiring imputation.
        Categorical missing values should be modelled as an explicit
        category.
        """
        mask = np.zeros(self.n_rows, dtype=bool)
        for attr in self._schema:
            if attr.is_continuous:
                mask |= np.isnan(self._columns[attr.name])
        return mask

    @property
    def has_missing(self) -> bool:
        return bool(self.missing_mask().any())

    def drop_missing_rows(self) -> "Dataset":
        """Dataset without the rows flagged by :meth:`missing_mask`."""
        return self.restrict(~self.missing_mask())

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-paragraph human summary (used by examples and reports)."""
        parts = [
            f"{self.n_rows} rows",
            f"{len(self._schema)} attributes "
            f"({len(self._schema.continuous_names)} continuous, "
            f"{len(self._schema.categorical_names)} categorical)",
            "groups: "
            + ", ".join(
                f"{lbl}={size}"
                for lbl, size in zip(self._group_labels, self._group_sizes)
            ),
        ]
        return "; ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Dataset({self.describe()})"
