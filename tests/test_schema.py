"""Tests for repro.dataset.schema."""

import pickle
from pathlib import Path

import pytest

from repro.dataset.schema import Attribute, AttributeKind, Schema, SchemaError

V1_6_0 = Path(__file__).parent / "data" / "v1_6_0"


class TestAttributeKind:
    def test_continuous_flag(self):
        assert AttributeKind.CONTINUOUS.is_continuous
        assert not AttributeKind.CONTINUOUS.is_categorical

    def test_categorical_flag(self):
        assert AttributeKind.CATEGORICAL.is_categorical
        assert not AttributeKind.CATEGORICAL.is_continuous


class TestAttribute:
    def test_continuous_constructor(self):
        attr = Attribute.continuous("age")
        assert attr.name == "age"
        assert attr.is_continuous
        assert attr.cardinality == 0

    def test_categorical_constructor(self):
        attr = Attribute.categorical("color", ["r", "g", "b"])
        assert attr.is_categorical
        assert attr.cardinality == 3
        assert attr.categories == ("r", "g", "b")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute.continuous("")

    def test_categorical_needs_categories(self):
        with pytest.raises(SchemaError):
            Attribute("c", AttributeKind.CATEGORICAL, ())

    def test_continuous_rejects_categories(self):
        with pytest.raises(SchemaError):
            Attribute("c", AttributeKind.CONTINUOUS, ("a",))

    def test_duplicate_categories_rejected(self):
        with pytest.raises(SchemaError):
            Attribute.categorical("c", ["a", "a"])

    def test_code_label_roundtrip(self):
        attr = Attribute.categorical("c", ["x", "y", "z"])
        for code, label in enumerate(["x", "y", "z"]):
            assert attr.code_of(label) == code
            assert attr.label_of(code) == label

    def test_code_of_unknown_label(self):
        attr = Attribute.categorical("c", ["x"])
        with pytest.raises(SchemaError):
            attr.code_of("nope")

    def test_label_of_out_of_range(self):
        attr = Attribute.categorical("c", ["x"])
        with pytest.raises(SchemaError):
            attr.label_of(5)

    def test_code_of_on_continuous_fails(self):
        with pytest.raises(SchemaError):
            Attribute.continuous("a").code_of("x")

    def test_label_of_on_continuous_fails(self):
        with pytest.raises(SchemaError):
            Attribute.continuous("a").label_of(0)

    def test_frozen(self):
        attr = Attribute.continuous("a")
        with pytest.raises(AttributeError):
            attr.name = "b"

    def test_code_of_unhashable_label(self):
        attr = Attribute.categorical("c", ["x"])
        with pytest.raises(SchemaError):
            attr.code_of(["x"])

    def test_code_dict_stays_out_of_equality_and_pickles(self):
        used = Attribute.categorical("c", ["x", "y"])
        fresh = Attribute.categorical("c", ["x", "y"])
        before = pickle.dumps(used)
        assert used.code_of("y") == 1
        assert "_codes" in vars(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == before
        clone = pickle.loads(pickle.dumps(used))
        assert "_codes" not in vars(clone)
        assert clone.code_of("y") == 1


class TestSchema:
    def _schema(self):
        return Schema.of(
            [
                Attribute.continuous("age"),
                Attribute.categorical("color", ["r", "g"]),
                Attribute.continuous("weight"),
            ]
        )

    def test_len_iter(self):
        schema = self._schema()
        assert len(schema) == 3
        assert [a.name for a in schema] == ["age", "color", "weight"]

    def test_names(self):
        assert self._schema().names == ("age", "color", "weight")

    def test_continuous_and_categorical_names(self):
        schema = self._schema()
        assert schema.continuous_names == ("age", "weight")
        assert schema.categorical_names == ("color",)

    def test_contains(self):
        schema = self._schema()
        assert "age" in schema
        assert "nope" not in schema

    def test_getitem(self):
        schema = self._schema()
        assert schema["color"].is_categorical
        with pytest.raises(KeyError):
            schema["nope"]

    def test_index_of(self):
        schema = self._schema()
        assert schema.index_of("age") == 0
        assert schema.index_of("weight") == 2
        with pytest.raises(KeyError):
            schema.index_of("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(
                [Attribute.continuous("a"), Attribute.continuous("a")]
            )

    def test_subset_preserves_order(self):
        schema = self._schema()
        sub = schema.subset(["weight", "age"])
        assert sub.names == ("age", "weight")

    def test_subset_unknown_raises(self):
        with pytest.raises(KeyError):
            self._schema().subset(["nope"])

    def test_with_attribute(self):
        schema = self._schema().with_attribute(Attribute.continuous("x"))
        assert schema.names[-1] == "x"
        assert len(schema) == 4

    def test_empty_schema(self):
        schema = Schema()
        assert len(schema) == 0
        assert schema.names == ()

    def test_unhashable_name_is_absent(self):
        schema = self._schema()
        assert ["age"] not in schema
        with pytest.raises(KeyError):
            schema[["age"]]
        with pytest.raises(KeyError):
            schema.index_of(["age"])

    def test_name_dict_stays_out_of_equality_and_pickles(self):
        used, fresh = self._schema(), self._schema()
        before = pickle.dumps(used)
        assert used["weight"].name == "weight"
        assert "_positions" in vars(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == before
        clone = pickle.loads(pickle.dumps(used))
        assert "_positions" not in vars(clone)
        assert clone.index_of("weight") == 2

    def test_schema_pickled_by_1_6_0_looks_up(self):
        dataset = pickle.loads((V1_6_0 / "dataset.pkl").read_bytes())
        schema = dataset.schema
        assert "_positions" not in vars(schema)
        for position, attribute in enumerate(schema):
            assert schema[attribute.name] is attribute
            assert schema.index_of(attribute.name) == position
            assert attribute.name in schema
            for code, label in enumerate(attribute.categories):
                assert attribute.code_of(label) == code
