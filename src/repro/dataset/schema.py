"""Schema description for mixed (categorical + continuous) tabular data.

The paper operates on datasets ``DB`` with ``m`` rows and ``n`` attributes,
where each attribute is either *categorical* (finite value domain) or
*continuous* (real-valued), plus one extra *group* attribute assigning each
row to exactly one group (Section 3 of the paper).

This module defines the lightweight, immutable schema objects used by
:class:`repro.dataset.table.Dataset`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

__all__ = ["AttributeKind", "Attribute", "Schema", "SchemaError"]


class SchemaError(ValueError):
    """Raised when a schema is internally inconsistent or misused."""


class AttributeKind(enum.Enum):
    """Kind of an attribute: categorical or continuous.

    The group column is modeled as a categorical attribute that is held
    separately by the :class:`~repro.dataset.table.Dataset`, not as a kind.
    """

    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"

    @property
    def is_continuous(self) -> bool:
        return self is AttributeKind.CONTINUOUS

    @property
    def is_categorical(self) -> bool:
        return self is AttributeKind.CATEGORICAL


@dataclass(frozen=True)
class Attribute:
    """A single attribute (column) of a dataset.

    Parameters
    ----------
    name:
        Unique column name.
    kind:
        Whether the column holds categorical codes or real numbers.
    categories:
        For categorical attributes, the ordered tuple of category labels.
        Values in the column are integer codes indexing this tuple.
        Empty for continuous attributes.
    """

    name: str
    kind: AttributeKind
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.kind.is_categorical:
            if len(self.categories) == 0:
                raise SchemaError(
                    f"categorical attribute {self.name!r} needs categories"
                )
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(
                    f"attribute {self.name!r} has duplicate categories"
                )
        elif self.categories:
            raise SchemaError(
                f"continuous attribute {self.name!r} cannot have categories"
            )

    @property
    def is_continuous(self) -> bool:
        return self.kind.is_continuous

    @property
    def is_categorical(self) -> bool:
        return self.kind.is_categorical

    @property
    def cardinality(self) -> int:
        """Number of category labels (0 for continuous attributes)."""
        return len(self.categories)

    def code_of(self, label: str) -> int:
        """Return the integer code of a category label.

        Raises :class:`SchemaError` for continuous attributes or unknown
        labels.
        """
        try:
            return self._codes[label]
        except (KeyError, TypeError):
            if self.is_continuous:
                raise SchemaError(
                    f"{self.name!r} is continuous; no categories"
                ) from None
            raise SchemaError(
                f"unknown category {label!r} for attribute {self.name!r}"
            ) from None

    @cached_property
    def _codes(self) -> dict[str, int]:
        """Label -> code, built on first use; pickles leave it out (see
        :meth:`__getstate__`)."""
        return {label: code for code, label in enumerate(self.categories)}

    def label_of(self, code: int) -> str:
        """Return the category label for an integer code."""
        if self.is_continuous:
            raise SchemaError(f"{self.name!r} is continuous; no categories")
        if not 0 <= code < len(self.categories):
            raise SchemaError(
                f"code {code} out of range for attribute {self.name!r}"
            )
        return self.categories[code]

    def __getstate__(self) -> dict:
        # The label -> code dict is a cache over the categories: pickles
        # stay byte-compatible with those of 1.6.0, which had no such
        # attribute and rebuild it on first use.  Equality and hashing
        # compare the fields only, so they never see it either.
        state = self.__dict__.copy()
        state.pop("_codes", None)
        return state

    @staticmethod
    def categorical(name: str, categories: Sequence[str]) -> "Attribute":
        """Convenience constructor for a categorical attribute."""
        return Attribute(name, AttributeKind.CATEGORICAL, tuple(categories))

    @staticmethod
    def continuous(name: str) -> "Attribute":
        """Convenience constructor for a continuous attribute."""
        return Attribute(name, AttributeKind.CONTINUOUS)


@dataclass(frozen=True)
class Schema:
    """Ordered collection of :class:`Attribute` objects with name lookup."""

    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names: {dupes}")

    @staticmethod
    def of(attributes: Iterable[Attribute]) -> "Schema":
        return Schema(tuple(attributes))

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Name -> position, built on first use; pickles leave it out
        (see :meth:`__getstate__`)."""
        return {a.name: i for i, a in enumerate(self.attributes)}

    def __getstate__(self) -> dict:
        # As for Attribute: the name dict is a cache, left out of pickles.
        state = self.__dict__.copy()
        state.pop("_positions", None)
        return state

    def __contains__(self, name: object) -> bool:
        try:
            return name in self._positions
        except TypeError:  # an unhashable name is no attribute's
            return False

    def __getitem__(self, name: str) -> Attribute:
        return self.attributes[self.index_of(name)]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def continuous_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.is_continuous)

    @property
    def categorical_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.is_categorical)

    def index_of(self, name: str) -> int:
        """Position of an attribute in the schema order."""
        try:
            return self._positions[name]
        except (KeyError, TypeError):
            raise KeyError(name) from None

    def subset(self, names: Iterable[str]) -> "Schema":
        """Schema restricted to the given names, preserving schema order."""
        wanted = set(names)
        missing = wanted - set(self.names)
        if missing:
            raise KeyError(f"unknown attributes: {sorted(missing)}")
        return Schema(tuple(a for a in self.attributes if a.name in wanted))

    def with_attribute(self, attribute: Attribute) -> "Schema":
        """Return a new schema with one more attribute appended."""
        return Schema(self.attributes + (attribute,))
