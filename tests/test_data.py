from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microdp.data
from microdp.data import ClusterColumn
from microdp import (
    AttributeSchema,
    DataError,
    Dataset,
    MechanismConfig,
    NeighborPair,
    PrivacyBudget,
    Schema,
    SchemaError,
    Taxonomy,
    execute_release,
    jsd,
    load_dataset,
    load_schema,
    neighbor_pair,
    relative_error,
    write_dataset,
)

from conftest import make_big_numeric, traced_peak


def write_files(tmp_path, schema_text, csv_text, tax_text=None):
    if tax_text is not None:
        (tmp_path / "dom.tree").write_text(tax_text, encoding="utf-8")
    schema_path = tmp_path / "data.schema"
    schema_path.write_text(schema_text, encoding="utf-8")
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    return schema_path, csv_path


BASIC_SCHEMA = """
[age]
kind = numeric
lower = 0
upper = 120

[country]
kind = categorical
taxonomy = dom.tree
"""

BASIC_TAX = "world\nworld\teu\nworld\tus\neu\tfr\neu\tde\n"


@pytest.fixture(params=[None, 2], ids=["default-chunk", "chunk-2"])
def chunk_rows(request, monkeypatch):
    """Run a test with the default `_CHUNK_ROWS`, then with chunks of 2 rows."""
    if request.param is not None:
        monkeypatch.setattr(microdp.data, "_CHUNK_ROWS", request.param)
    return microdp.data._CHUNK_ROWS


class TestSchemaFile:
    def test_parse_order_and_kinds(self, tmp_path):
        schema_path, _ = write_files(tmp_path, BASIC_SCHEMA, "", BASIC_TAX)
        schema = load_schema(schema_path)
        assert schema.names == ("age", "country")
        assert schema.attribute("age").sensitivity == 120.0
        assert schema.attribute("country").sensitivity == 1.0
        assert schema.taxonomy_for("country").root == "world"

    def test_unknown_key_rejected(self, tmp_path):
        text = "[a]\nkind = numeric\nlower = 0\nupper = 1\nbogus = 3\n"
        schema_path, _ = write_files(tmp_path, text, "")
        with pytest.raises(SchemaError, match="unknown keys"):
            load_schema(schema_path)

    def test_missing_taxonomy_file(self, tmp_path):
        text = "[c]\nkind = categorical\ntaxonomy = nope.tree\n"
        schema_path, _ = write_files(tmp_path, text, "")
        with pytest.raises(SchemaError, match="nope.tree"):
            load_schema(schema_path)

    def test_bound_factor_only(self, tmp_path):
        text = "[v]\nkind = numeric\nbound_factor = 2.0\n"
        schema_path, _ = write_files(tmp_path, text, "")
        with pytest.raises(SchemaError, match=r"attribute 'v': unknown keys \['bound_factor'\]"):
            load_schema(schema_path)


class TestAttributeSchema:
    def test_numeric_needs_ordered_finite_bounds(self):
        with pytest.raises(SchemaError, match="lower"):
            AttributeSchema("v", "numeric", 5.0, 5.0)
        with pytest.raises(SchemaError, match="finite"):
            AttributeSchema("v", "numeric", 0.0, float("inf"))
        with pytest.raises(SchemaError, match="both bounds"):
            AttributeSchema("v", "numeric", 0.0, None)

    def test_numeric_width_must_be_finite(self, tmp_path):
        """A width of inf once scored an ir-only release at relative error 0.0,
        binned its JSD against edges starting [nan, inf, inf] and blamed
        epsilon for a noisy release's scale; now each fails at the schema."""
        message = r"^attribute 'v': bounds and their width must be finite$"

        def release(method):
            schema = Schema((AttributeSchema("v", "numeric", -1e308, 1e308),))
            data = Dataset(schema, [np.array([1.0, 2.0, 3.0, 4.0])])
            released = execute_release(MechanismConfig(method, 2, PrivacyBudget(1.0, 1), 0), data)
            return relative_error(data, released), jsd(data, released)

        for method in ("ir-only", "ir-dp"):
            with pytest.raises(SchemaError, match=message):
                release(method)
        schema_path, _ = write_files(tmp_path, "[v]\nkind = numeric\nlower = -1e308\nupper = 1e308\n", "")
        with pytest.raises(SchemaError, match=message):
            load_schema(schema_path)

    def test_categorical_needs_taxonomy(self):
        with pytest.raises(SchemaError, match="taxonomy"):
            AttributeSchema("c", "categorical")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            AttributeSchema("v", "ordinal")

    def test_duplicate_names_rejected(self):
        a = AttributeSchema("v", "numeric", 0.0, 1.0)
        with pytest.raises(SchemaError, match="duplicate"):
            Schema((a, a))


class TestLoadDataset:
    def test_small_file(self, tmp_path):
        schema_path, csv_path = write_files(
            tmp_path, BASIC_SCHEMA, "age,country\n30,fr\n41,us\n25,de\n", BASIC_TAX
        )
        data = load_dataset(csv_path, load_schema(schema_path))
        assert (data.n, data.m) == (3, 2)
        assert list(data.column("age")) == [30.0, 41.0, 25.0]
        assert data.column("country") == ("fr", "us", "de")

    def test_row_order_preserved_and_extra_columns_ignored(self, tmp_path):
        schema_path, csv_path = write_files(
            tmp_path, BASIC_SCHEMA, "junk,age,country\nx,30,fr\ny,20,us\n", BASIC_TAX
        )
        data = load_dataset(csv_path, load_schema(schema_path))
        assert list(data.column("age")) == [30.0, 20.0]

    def test_parse_error_names_row_and_column(self, tmp_path):
        schema_path, csv_path = write_files(
            tmp_path, BASIC_SCHEMA, "age,country\n30,fr\nabc,us\n", BASIC_TAX
        )
        with pytest.raises(DataError, match=r"row 3, column 'age'"):
            load_dataset(csv_path, load_schema(schema_path))

    def test_missing_column(self, tmp_path):
        schema_path, csv_path = write_files(tmp_path, BASIC_SCHEMA, "age\n30\n", BASIC_TAX)
        with pytest.raises(DataError, match="country"):
            load_dataset(csv_path, load_schema(schema_path))

    def test_missing_value_rejected(self, tmp_path):
        schema_path, csv_path = write_files(
            tmp_path, BASIC_SCHEMA, "age,country\n30,fr\n,us\n", BASIC_TAX
        )
        with pytest.raises(DataError, match="missing value"):
            load_dataset(csv_path, load_schema(schema_path))

    def test_out_of_bounds_rejected(self, tmp_path):
        schema_path, csv_path = write_files(
            tmp_path, BASIC_SCHEMA, "age,country\n150,fr\n", BASIC_TAX
        )
        with pytest.raises(DataError, match="outside"):
            load_dataset(csv_path, load_schema(schema_path))

    def test_unknown_label_rejected(self, tmp_path):
        schema_path, csv_path = write_files(
            tmp_path, BASIC_SCHEMA, "age,country\n30,mars\n", BASIC_TAX
        )
        with pytest.raises(DataError, match="mars"):
            load_dataset(csv_path, load_schema(schema_path))

    def test_schema_without_bounds_rejected(self, tmp_path):
        text = "[income]\nkind = numeric\n"
        schema_path, _ = write_files(tmp_path, text, "income\n-5\n200\n")
        with pytest.raises(SchemaError, match="attribute 'income': numeric attributes need both"):
            load_schema(schema_path)

    def test_loaded_dataset_keeps_the_given_schema(self, tmp_path):
        schema_path, csv_path = write_files(
            tmp_path, BASIC_SCHEMA, "age,country\n30,fr\n", BASIC_TAX
        )
        schema = load_schema(schema_path)
        assert load_dataset(csv_path, schema).schema is schema

    def test_adult_scale_file(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 30162
        ages = rng.integers(17, 91, size=n)
        hours = rng.integers(1, 100, size=n)
        lines = ["age,hours"] + [f"{a},{h}" for a, h in zip(ages, hours)]
        csv_path = tmp_path / "adult.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema = Schema((
            AttributeSchema("age", "numeric", 0.0, 150.0),
            AttributeSchema("hours", "numeric", 0.0, 150.0),
        ))
        data = load_dataset(csv_path, schema)
        assert (data.n, data.m) == (30162, 2)


# Labels with a comma, a newline and a two-byte character, for quoting and
# block-boundary cases.
QUOTE_TAX = Taxonomy(
    "world",
    {"eu": "world", "us": "world", "fr": "eu", "de": "eu", "a,b": "world",
     "x\ny": "world", "zürich": "eu"},
)
EXPLICIT = Schema(
    (AttributeSchema("age", "numeric", 0.0, 120.0),
     AttributeSchema("country", "categorical", taxonomy_ref="t")),
    {"t": QUOTE_TAX},
)
HEAD = "age,country\n30,fr\n31,us\n32,de\n"

# (csv text, schema, exception type, message): each pair was produced by
# the whole-file loader this module replaced, and must not change.
LOADER_ERRORS = {
    "ragged_row_beats_earlier_bad_cell": (
        HEAD + "abc,fr\n33,us\n34\n35,de\n", EXPLICIT,
        DataError, "row 7: expected 2 cells, got 1"),
    "first_column_beats_earlier_bad_cell_in_second": (
        "age,country\n30,fr\n31,us\n32,mars\n33,de\n150,fr\n", EXPLICIT,
        DataError, "row 6, column 'age': value 150.0 outside [0.0, 120.0]"),
    "first_bad_cell_of_a_column_is_named": (
        HEAD + "abc,fr\n33,us\nxyz,de\n", EXPLICIT,
        DataError, "row 5, column 'age': cannot parse 'abc' as a number"),
    "missing_cell": (
        HEAD + ",fr\n", EXPLICIT, DataError, "row 5, column 'age': missing value"),
    "whitespace_only_cell": (
        HEAD + "   ,fr\n", EXPLICIT, DataError, "row 5, column 'age': missing value"),
    "unparsable_cell": (
        HEAD + "3O,fr\n", EXPLICIT,
        DataError, "row 5, column 'age': cannot parse '3O' as a number"),
    "nan_cell": (
        HEAD + "nan,fr\n", EXPLICIT, DataError, "row 5, column 'age': non-finite value"),
    "overflowing_cell": (
        HEAD + "1e400,fr\n", EXPLICIT, DataError, "row 5, column 'age': non-finite value"),
    "unknown_label": (
        HEAD + "33,mars\n", EXPLICIT,
        DataError, "row 5, column 'country': label 'mars' not in taxonomy"),
    "whitespace_only_label": (
        HEAD + "33, \n", EXPLICIT, DataError, "row 5, column 'country': missing value"),
    "blank_line": (
        HEAD + "\n33,fr\n", EXPLICIT, DataError, "row 5: expected 2 cells, got 0"),
    "out_of_range": (
        HEAD + "33,fr\n121,us\n", EXPLICIT,
        DataError, "row 6, column 'age': value 121.0 outside [0.0, 120.0]"),
    "below_lower_bound": (
        HEAD + "-4,fr\n", EXPLICIT,
        DataError, "row 5, column 'age': value -4.0 outside [0.0, 120.0]"),
    "rows_count_records_not_lines": (
        HEAD + '33,"x\ny"\n34,us\n200,fr\n', EXPLICIT,
        DataError, "row 7, column 'age': value 200.0 outside [0.0, 120.0]"),
    "extra_columns_keep_positions": (
        "id,age,note,country\n1,30,a,fr\n2,31,b,us\n3,32,c,de\n4,3x,d,fr\n", EXPLICIT,
        DataError, "row 5, column 'age': cannot parse '3x' as a number"),
    "missing_column": (
        "age,nation\n30,fr\n", EXPLICIT,
        DataError, "column 'country' missing from CSV header"),
    "empty_file": ("", EXPLICIT, DataError, "empty CSV: missing header row"),
    "repeated_schema_column": (
        "age,country,age\n30,fr,31\n", EXPLICIT,
        DataError, "column 'age' appears more than once in CSV header"),
    "second_byte_order_mark_stays": (
        "\ufeff\ufeff" + HEAD, EXPLICIT, DataError, "column 'age' missing from CSV header"),
}

# (csv text, schema, ages, countries) that must load.
LOADER_ACCEPTS = {
    "header_only_with_explicit_bounds": ("age,country\n", EXPLICIT, [], ()),
    "quoted_label_with_comma": (
        HEAD + '33,"a,b"\n34,us\n', EXPLICIT,
        [30.0, 31.0, 32.0, 33.0, 34.0], ("fr", "us", "de", "a,b", "us")),
    "quoted_label_with_newline": (
        HEAD + '33,"x\ny"\n34,us\n', EXPLICIT,
        [30.0, 31.0, 32.0, 33.0, 34.0], ("fr", "us", "de", "x\ny", "us")),
    "extra_columns": (
        "id,age,note,country\n1,30,a,fr\n2,31,b,us\n3,32,c,de\n", EXPLICIT,
        [30.0, 31.0, 32.0], ("fr", "us", "de")),
    "no_trailing_newline": (
        HEAD + "33,fr", EXPLICIT, [30.0, 31.0, 32.0, 33.0], ("fr", "us", "de", "fr")),
    "padded_and_underscored_numbers": (
        "age,country\n 30 ,fr\n1_0,us\n", EXPLICIT, [30.0, 10.0], ("fr", "us")),
    "byte_order_mark": (
        "\ufeff" + HEAD, EXPLICIT, [30.0, 31.0, 32.0], ("fr", "us", "de")),
    "repeated_column_outside_the_schema": (
        "id,age,id,country\n1,30,2,fr\n", EXPLICIT, [30.0], ("fr",)),
}


class TestLoaderContract:
    @pytest.mark.parametrize("case", sorted(LOADER_ERRORS))
    def test_error_type_and_message(self, case, chunk_rows):
        text, schema, exc_type, message = LOADER_ERRORS[case]
        with pytest.raises(exc_type) as info:
            load_dataset(text.encode("utf-8"), schema)
        assert type(info.value) is exc_type
        assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(LOADER_ACCEPTS))
    def test_accepted_input(self, case, chunk_rows):
        text, schema, ages, countries = LOADER_ACCEPTS[case]
        data = load_dataset(text.encode("utf-8"), schema)
        assert data.column("age").tolist() == ages
        assert data.column("country") == countries
        assert (data.schema.attribute("age").lower, data.schema.attribute("age").upper) == (0.0, 120.0)


class TestLabelTable:
    """Each label column is read through one table per load, which maps
    every non-blank label of the taxonomy to the taxonomy's own string."""

    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk-1", "chunk-3", "default-chunk"])
    @pytest.mark.parametrize("kind", ["path", "bytes"])
    def test_loaded_labels_are_the_taxonomy_strings(self, tmp_path, monkeypatch, chunk, kind):
        if chunk is not None:
            monkeypatch.setattr(microdp.data, "_CHUNK_ROWS", chunk)
        countries = ("fr", "world", "fr", "de", "eu", "us", "fr")
        text = "age,country\n" + "".join(f"{30 + i},{c}\n" for i, c in enumerate(countries))
        schema_path, csv_path = write_files(tmp_path, BASIC_SCHEMA, text, BASIC_TAX)
        schema = load_schema(schema_path)
        own = {label: label for label in schema.taxonomy_for("country").labels}
        loaded = load_dataset(csv_path if kind == "path" else csv_path.read_bytes(), schema)
        assert loaded.column("country") == countries
        assert all(label is own[label] for label in loaded.column("country"))

    def test_whitespace_only_node_is_a_missing_value(self, chunk_rows):
        tax = Taxonomy("world", {" ": "world", "fr": "world"})
        schema = Schema((AttributeSchema("country", "categorical", taxonomy_ref="t"),), {"t": tax})
        with pytest.raises(DataError) as info:
            load_dataset(b"country\nfr\nfr\n \nfr\n", schema)
        assert str(info.value) == "row 4, column 'country': missing value"

    def test_repeated_labels_are_held_as_references(self):
        # A fresh string per cell takes at least 51 bytes; the loaded column,
        # its chunks and the dataset's copy of it take 8 bytes a row each.
        n = 10**5
        schema = Schema((AttributeSchema("country", "categorical", taxonomy_ref="t"),), {"t": QUOTE_TAX})
        labels = ("fr", "de", "us", "eu", "world")
        raw = ("country\n" + "".join(f"{labels[i % 5]}\n" for i in range(n))).encode("utf-8")
        loaded, peak = traced_peak(lambda: load_dataset(raw, schema))
        assert loaded.n == n
        assert peak < 32 * n


NUMERIC = Schema(
    (AttributeSchema("age", "numeric", 0.0, 120.0),
     AttributeSchema("hours", "numeric", 0.0, 120.0)),
)
NHEAD = "age,hours\n30,1\n31,2\n32,3\n"


def long_rows(start: int, stop: int) -> str:
    """Rows `start` to `stop` of a plain numeric table, 10 to 14 characters and a newline each."""
    return "".join(f"{i % 120}.{i % 997:03d},{i * 7 % 120}.125\n" for i in range(start, stop))


# 255 010 characters, so the first bad cell after it, row 18 002, lies past
# three whole default read blocks that numpy's reader accepts.
LONG_HEAD = "age,hours\n" + long_rows(0, 18_000)
LONG_TAIL = long_rows(18_001, 20_000)

# (csv text, exception type, message) for an all-numeric schema: each
# message is the one the `csv.reader` path gave before numpy's reader
# parsed any block, and must not change. A repeated schema column was
# accepted then.
NUMERIC_LOADER_ERRORS = {
    "nan_cell": (NHEAD + "nan,4\n", DataError, "row 5, column 'age': non-finite value"),
    "overflowing_cell": (NHEAD + "1e400,4\n", DataError, "row 5, column 'age': non-finite value"),
    "below_lower_bound": (
        NHEAD + "-4,4\n", DataError, "row 5, column 'age': value -4.0 outside [0.0, 120.0]"),
    "blank_line": (NHEAD + "\n33,4\n", DataError, "row 5: expected 2 cells, got 0"),
    "whitespace_only_line": (NHEAD + "   \n33,4\n", DataError, "row 5: expected 2 cells, got 1"),
    "short_row": (NHEAD + "33\n", DataError, "row 5: expected 2 cells, got 1"),
    "long_row": (NHEAD + "33,4,5\n", DataError, "row 5: expected 2 cells, got 3"),
    "comment_sign": (
        NHEAD + "#1,4\n", DataError, "row 5, column 'age': cannot parse '#1' as a number"),
    "separator_that_numpy_strips": (
        NHEAD + "\x1c33,4\n", DataError,
        "row 5, column 'age': cannot parse '\\x1c33' as a number"),
    "empty_cell": (NHEAD + ",4\n", DataError, "row 5, column 'age': missing value"),
    "repeated_schema_column": (
        "age,age,hours\n1,2,3\n", DataError, "column 'age' appears more than once in CSV header"),
    "bad_cell_blocks_in": (
        LONG_HEAD + "33,x4\n" + LONG_TAIL, DataError,
        "row 18002, column 'hours': cannot parse 'x4' as a number"),
    "bad_cell_blocks_in_beats_earlier_out_of_range": (
        NHEAD + "121,4\n" + LONG_HEAD[10:] + "x33,4\n" + LONG_TAIL, DataError,
        "row 18006, column 'age': cannot parse 'x33' as a number"),
    "out_of_range_blocks_in": (
        LONG_HEAD + "33,400\n" + LONG_TAIL, DataError,
        "row 18002, column 'hours': value 400.0 outside [0.0, 120.0]"),
}

# (csv text, ages, hours) that must load against `NUMERIC`.
NUMERIC_LOADER_ACCEPTS = {
    "quoted_cell": (NHEAD + '"33",4\n', [30.0, 31.0, 32.0, 33.0], [1.0, 2.0, 3.0, 4.0]),
    "padded_cell": (NHEAD + " 30 ,4\n", [30.0, 31.0, 32.0, 30.0], [1.0, 2.0, 3.0, 4.0]),
    "underscored_cell": (NHEAD + "1_0,4\n", [30.0, 31.0, 32.0, 10.0], [1.0, 2.0, 3.0, 4.0]),
    "arabic_indic_digit": (NHEAD + "٣,4\n", [30.0, 31.0, 32.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
    "extra_text_column": ("age,hours,note\n30,1,a\n31,2,b\n", [30.0, 31.0], [1.0, 2.0]),
    "no_trailing_newline": (NHEAD + "33,4", [30.0, 31.0, 32.0, 33.0], [1.0, 2.0, 3.0, 4.0]),
    "header_only": ("age,hours\n", [], []),
    "byte_order_mark": ("\ufeff" + NHEAD, [30.0, 31.0, 32.0], [1.0, 2.0, 3.0]),
    "many_blocks": (
        LONG_HEAD,
        [float(f"{i % 120}.{i % 997:03d}") for i in range(18_000)],
        [float(f"{i * 7 % 120}.125") for i in range(18_000)]),
}


@pytest.fixture(params=[None, 1], ids=["default-block", "block-1"])
def read_block(request, monkeypatch):
    """Run a test with the default `_READ_BLOCK`, then reading one byte or character at a time."""
    if request.param is not None:
        monkeypatch.setattr(microdp.data, "_READ_BLOCK", request.param)
    return microdp.data._READ_BLOCK


def declining_every_block(text: str, width: int) -> None:
    return None


def loaded_or_error(text: str, schema: Schema):
    """The loaded columns' bytes, or the type and message of the `DataError` raised."""
    try:
        data = load_dataset(text.encode("utf-8"), schema)
    except DataError as exc:
        return type(exc), str(exc)
    return [column.tobytes() for column in data.columns]


@st.composite
def number_cells(draw):
    """One cell of a numeric column, spelled in one of many ways `float` may or may not read."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(
            ["", " ", "nan", "-inf", "Infinity", "1e400", "#1", "٣", "x", "1e", "0x10", "1,5"]))
    value = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300]),
        st.integers(-10**6, 10**6).map(float),
    ))
    text = draw(st.sampled_from(["{!r}", "{:.17g}", "{:e}", "{:E}", "{:.3f}", "{:.0f}"])).format(value)
    if text[0] != "-" and draw(st.booleans()):
        text = "+" + text
    if draw(st.integers(0, 7)) == 0 and len(text) > 2 and text[1].isdigit() and text[2].isdigit():
        text = text[:2] + "_" + text[2:]
    pad = st.sampled_from(["", "", "", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0"])
    text = draw(pad) + text + draw(pad)
    if draw(st.integers(0, 7)) == 0:
        text = '"' + text + draw(st.sampled_from(["", "\n"])) + '"'
    return text


class TestNumericLoaderContract:
    """The loader contract for an all-numeric schema, whose blocks numpy's reader parses first."""

    @pytest.mark.parametrize("case", sorted(NUMERIC_LOADER_ERRORS))
    def test_error_type_and_message(self, case, chunk_rows, read_block):
        text, exc_type, message = NUMERIC_LOADER_ERRORS[case]
        with pytest.raises(exc_type) as info:
            load_dataset(text.encode("utf-8"), NUMERIC)
        assert type(info.value) is exc_type
        assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(NUMERIC_LOADER_ACCEPTS))
    def test_accepted_input(self, case, chunk_rows, read_block):
        text, ages, hours = NUMERIC_LOADER_ACCEPTS[case]
        data = load_dataset(text.encode("utf-8"), NUMERIC)
        assert data.column("age").tolist() == ages
        assert data.column("hours").tolist() == hours

    def test_plain_blocks_take_numpys_reader(self, monkeypatch):
        parsed = []
        real = microdp.data._float_block

        def spy(text, width):
            parsed.append(real(text, width))
            return parsed[-1]

        monkeypatch.setattr(microdp.data, "_float_block", spy)
        load_dataset(LONG_HEAD.encode("utf-8"), NUMERIC)
        assert len(parsed) >= 4
        assert all(floats is not None for floats in parsed)
        assert sum(len(floats) for floats in parsed) == 18_000
        before = len(parsed)
        load_dataset(HEAD.encode("utf-8"), EXPLICIT)
        assert len(parsed) == before

    @given(
        rows=st.lists(
            st.one_of(
                st.lists(number_cells(), min_size=2, max_size=2),
                st.lists(number_cells(), min_size=0, max_size=3),
            ),
            max_size=24,
        ),
        trailing_newline=st.booleans(),
        read_block=st.sampled_from([1, 5, 16, 1 << 16]),
        chunk=st.sampled_from([1, 2, 2048]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_csv_path(self, rows, trailing_newline, read_block, chunk):
        schema = Schema(
            (AttributeSchema("a", "numeric", -1e300, 1e300),
             AttributeSchema("b", "numeric", -1e300, 1e300)),
        )
        text = "a,b\n" + "\n".join(",".join(row) for row in rows)
        if rows and trailing_newline:
            text += "\n"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(microdp.data, "_READ_BLOCK", read_block)
            patch.setattr(microdp.data, "_CHUNK_ROWS", chunk)
            ours = loaded_or_error(text, schema)
            patch.setattr(microdp.data, "_float_block", declining_every_block)
            assert ours == loaded_or_error(text, schema)


class TestSourceKinds:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("read_block", [None, 1], ids=["default-block", "block-1"])
    def test_every_source_kind_loads_the_same_dataset(
        self, tmp_path, monkeypatch, chunk_rows, newline, read_block
    ):
        if read_block is not None:
            monkeypatch.setattr(microdp.data, "_READ_BLOCK", read_block)
        text = 'age,country\n30,fr\n41,"x\ny"\n25,"a,b"\n7,zürich\n'.replace("\n", newline)
        raw = text.encode("utf-8")
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        sources = {
            "path": path, "str": str(path), "bytes": raw,
            "BytesIO": io.BytesIO(raw), "StringIO": io.StringIO(text),
        }
        for kind, source in sources.items():
            data = load_dataset(source, EXPLICIT)
            assert data.column("age").tolist() == [30.0, 41.0, 25.0, 7.0], kind
            assert data.column("country") == ("fr", "x\ny", "a,b", "zürich"), kind

    @pytest.mark.parametrize(
        "schema, csv_text",
        [(EXPLICIT, "age,country\r\n30,fr\r\n"), (NUMERIC, "age,hours\r\n30,1\r\n")],
        ids=["mixed", "numeric"],
    )
    def test_one_byte_order_mark_is_dropped_from_every_source_kind(
        self, tmp_path, read_block, schema, csv_text
    ):
        text = "\ufeff" + csv_text
        raw = text.encode("utf-8")
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        sources = {
            "path": path, "str": str(path), "bytes": raw,
            "BytesIO": io.BytesIO(raw), "StringIO": io.StringIO(text),
        }
        for kind, source in sources.items():
            assert load_dataset(source, schema).column("age").tolist() == [30.0], kind
        with pytest.raises(DataError, match="column 'age' missing from CSV header"):
            load_dataset(io.StringIO("\ufeff" + text), schema)

    def test_one_byte_order_mark_is_dropped_from_schema_and_taxonomy_files(self, tmp_path):
        schema_text = BASIC_SCHEMA.lstrip("\n")
        schema_path, _ = write_files(tmp_path, "\ufeff" + schema_text, "", "\ufeff" + BASIC_TAX)
        schema = load_schema(schema_path)
        assert schema.names == ("age", "country")
        assert schema.taxonomy_for("country").root == "world"
        # A second mark stays, as in a CSV header.
        schema_path.write_text("\ufeff\ufeff" + schema_text, encoding="utf-8")
        with pytest.raises(SchemaError, match="cannot read schema .*no section headers"):
            load_schema(schema_path)

    def test_bare_carriage_returns_load_from_bytes(self):
        data = load_dataset(b"v\r1\r2\r", Schema((AttributeSchema("v", "numeric", 0.0, 5.0),)))
        assert data.column("v").tolist() == [1.0, 2.0]

    def test_truncated_utf8_at_the_end_is_an_error(self, tmp_path):
        raw = b"age,country\n30,z\xc3"
        (tmp_path / "data.csv").write_bytes(raw)
        for source in (raw, io.BytesIO(raw), tmp_path / "data.csv"):
            with pytest.raises(UnicodeDecodeError, match="unexpected end of data"):
                load_dataset(source, EXPLICIT)

    def test_caller_handles_stay_open(self):
        raw = io.BytesIO(b"age,country\n30,fr\n")
        text = io.StringIO("age,country\n30,fr\n")
        load_dataset(raw, EXPLICIT)
        load_dataset(text, EXPLICIT)
        assert not raw.closed and not text.closed


@pytest.fixture(scope="module")
def big_numeric_csv(tmp_path_factory):
    """A seeded 2e5 x 5 numeric CSV of about 10 MB, with its schema and contents."""
    data = make_big_numeric()
    path = tmp_path_factory.mktemp("big") / "big.csv"
    write_dataset(data, path)
    return path, data.schema, data


def test_load_runs_in_bounded_memory(big_numeric_csv):
    path, schema, data = big_numeric_csv
    assert path.stat().st_size > 10**7
    loaded, peak = traced_peak(lambda: load_dataset(path, schema))
    for ours, theirs in zip(loaded.columns, data.columns):
        assert np.array_equal(ours, theirs)
    assert peak < 48 * 2**20


def test_load_holds_each_column_once(big_numeric_csv):
    # The five float64 columns alone take 7.6 MiB; a second copy of them
    # would push the peak past 15 MiB.
    path, schema, _ = big_numeric_csv
    _, peak = traced_peak(lambda: load_dataset(path, schema))
    assert peak < 12 * 2**20


def test_write_runs_in_bounded_memory(big_numeric_csv, tmp_path):
    path, _, data = big_numeric_csv
    out = tmp_path / "again.csv"
    _, peak = traced_peak(lambda: write_dataset(data, out))
    assert out.read_bytes() == path.read_bytes()
    assert peak < 16 * 2**20


class TestWriteDataset:
    def test_six_decimal_format(self, numeric_schema, tmp_path):
        data = Dataset(numeric_schema, [np.array([1.5, 2.0])])
        out = tmp_path / "out.csv"
        write_dataset(data, out)
        assert out.read_text(encoding="utf-8") == "v\n1.500000\n2.000000\n"

    def test_round_trip_is_byte_stable(self, tmp_path):
        schema_path, csv_path = write_files(
            tmp_path, BASIC_SCHEMA, "age,country\n30.5,fr\n41,us\n", BASIC_TAX
        )
        schema = load_schema(schema_path)
        first = io.StringIO()
        write_dataset(load_dataset(csv_path, schema), first)
        second = io.StringIO()
        write_dataset(load_dataset(first.getvalue().encode(), schema), second)
        assert first.getvalue() == second.getvalue()

    def test_round_trip_rejects_a_non_finite_value(self, tmp_path):
        # The writer gives NaN its Python text; the loader rejects it, naming the cell.
        schema = Schema((AttributeSchema("v", "numeric", 0.0, 1.0),))
        buf = io.StringIO()
        write_dataset(Dataset(schema, [np.array([np.nan, 0.5])]), buf)
        assert buf.getvalue() == "v\nnan\n0.500000\n"
        with pytest.raises(DataError, match=r"^row 2, column 'v': non-finite value$"):
            load_dataset(buf.getvalue().encode(), schema)

    def test_empty_dataset_writes_header_only(self, numeric_schema, tmp_path):
        data = Dataset(numeric_schema, [np.array([])])
        out = tmp_path / "empty.csv"
        write_dataset(data, out)
        assert out.read_text(encoding="utf-8") == "v\n"

    def test_non_finite_values_are_written_as_python_formats_them(self, tmp_path):
        schema = Schema(
            (AttributeSchema("v", "numeric", -1.0, 1.0), AttributeSchema("w", "numeric", -1.0, 1.0)),
        )
        v = np.array([np.nan, np.inf, -np.inf, -np.nan, 0.5, -0.25])
        data = Dataset(schema, [v, v[::-1]])
        write_dataset(data, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == (
            "v,w\nnan,-0.250000\ninf,0.500000\n-inf,nan\nnan,-inf\n"
            "0.500000,inf\n-0.250000,nan\n"
        )

    def test_labels_with_commas_are_quoted(self, tmp_path):
        tax = Taxonomy("all", {"a,b": "all"})
        schema = Schema(
            (AttributeSchema("c", "categorical", taxonomy_ref="t"),), {"t": tax}
        )
        data = Dataset(schema, [("a,b", "all")])
        buf = io.StringIO()
        write_dataset(data, buf)
        assert buf.getvalue() == 'c\n"a,b"\nall\n'
        again = load_dataset(buf.getvalue().encode(), schema)
        assert again.column("c") == ("a,b", "all")

    def test_each_distinct_label_is_quoted_once_per_write(self, monkeypatch):
        monkeypatch.setattr(microdp.data, "_CHUNK_ROWS", 2)
        calls = []
        quoted = microdp.data._quoted

        def counted(labels, lone):
            calls.append(list(labels))
            return quoted(calls[-1], lone)

        monkeypatch.setattr(microdp.data, "_quoted", counted)
        data = Dataset(EXPLICIT, [np.arange(6.0), ("fr", "fr", "de", "a,b", "fr", "us")])
        both = Dataset(
            Schema((*EXPLICIT.attributes, AttributeSchema("home", "categorical", taxonomy_ref="t")),
                   EXPLICIT.taxonomies),
            [*data.columns, ("eu", "fr", "fr", "fr", "x\ny", "us")],
        )
        distinct = ["fr", "de", "a,b", "us"]
        for table, labels in ((data, distinct), (both, distinct + ["eu", "x\ny"])):
            calls.clear()
            buf = io.StringIO()
            write_dataset(table, buf)
            assert buf.getvalue() == reference_csv(table)
            assert calls == [labels]


    def test_cluster_columns_write_each_records_cluster_value(self, monkeypatch):
        monkeypatch.setattr(microdp.data, "_CHUNK_ROWS", 2)
        ages = ClusterColumn(np.array([30.0, 41.5]), np.array([1, 0, 1, 1, 0]))
        countries = ClusterColumn(np.array(["a,b", "fr"], dtype=object), np.array([0, 0, 1, 1, 0]))
        buf = io.StringIO()
        write_dataset((EXPLICIT, [ages, countries]), buf)
        table = Dataset(EXPLICIT, [ages.per_record(), countries.per_record()])
        assert buf.getvalue() == reference_csv(table)

    @pytest.mark.parametrize(
        "columns, message",
        [
            ([np.arange(3.0)], "expected 2 columns, got 1"),
            ([ClusterColumn(np.array([1.0, 2.0]), np.array([0, 1, 1])), ("fr", "fr")],
             "columns must be equally long"),
            ([np.arange(3.0), ClusterColumn(np.array(["fr", "de"], dtype=object), np.array([0, 2, 1]))],
             r"cluster ids must lie in \[0, 2\)"),
            ([ClusterColumn(np.array([1.0, 2.0]), np.array([0, -1, 1])), ("fr", "fr", "de")],
             r"cluster ids must lie in \[0, 2\)"),
        ],
        ids=["too_few_columns", "longer_column", "cluster_id_past_the_end", "negative_cluster_id"],
    )
    def test_malformed_columns_are_rejected_before_writing(self, tmp_path, columns, message):
        # Without the check a missing column dropped out of every row, a
        # longer column was cut short, and an id past the last cluster
        # took that cluster's cell (`np.take` clips).
        out = tmp_path / "out.csv"
        with pytest.raises(DataError, match=f"^{message}$"):
            write_dataset((EXPLICIT, columns), out)
        assert not out.exists()


WRITER_TAX = Taxonomy(
    "all",
    {"a,b": "all", 'say "hi"': "all", "two\nlines": "all", "cr\r\nlf": "all",
     " ": "all", "plain": "all", "zürich": "all"},
)


def reference_csv(data: Dataset) -> str:
    """The CSV text of `data`, written one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(data.schema.names)
    for record in map(data.record, range(data.n)):
        writer.writerow([
            "{:.6f}".format(value) if attr.kind == "numeric" else value
            for attr, value in zip(data.schema, record)
        ])
    return buf.getvalue()


def mixed_table(n: int, seed: int) -> Dataset:
    """Uniform floats, half-micro boundaries and signed zeros, plus awkward labels."""
    rng = np.random.default_rng(seed)
    special = np.array([-0.0, 0.0, 5e-7, -5e-7, 4.999999999e-7, 1.5e-6, 2.5e-6, 0.0000125, 1e-300])
    labels = sorted(WRITER_TAX.nodes)
    schema = Schema(
        (AttributeSchema("u", "numeric", -1.0, 1.0),
         AttributeSchema("label", "categorical", taxonomy_ref="t"),
         AttributeSchema("half", "numeric", -1.0, 1.0),
         AttributeSchema("edge", "numeric", -1.0, 1.0)),
        {"t": WRITER_TAX},
    )
    return Dataset(schema, [
        rng.uniform(-1.0, 1.0, size=n),
        [labels[int(i)] for i in rng.integers(0, len(labels), size=n)],
        (rng.integers(-10**6, 10**6, size=n) + 0.5) * 1e-6,
        special[rng.integers(0, len(special), size=n)],
    ])


def stepped(value: float, steps: int) -> float:
    """`value` moved `steps` floats up (or, when negative, down)."""
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, np.inf if steps > 0 else -np.inf))
    return value


# `write_dataset`'s digit kernel holds |x| up to five floats below this;
# from there on, `%.6f` text is copied in.
KERNEL_LIMIT = microdp.data._DIGIT_LIMIT * 1e-6


@st.composite
def near_half_micros(draw):
    """A float a few steps from a half-micro (i + 0.5)·10⁻⁶, |x| from 1e-6 to 1e9, either sign."""
    i = draw(st.integers(0, 10 ** draw(st.integers(0, 15))))
    value = stepped((i + 0.5) * 1e-6, draw(st.integers(-3, 3)))
    return draw(st.sampled_from([value, -value]))


def near_tie_column(n: int, seed: int) -> np.ndarray:
    """Half-micros and their neighbours one and two floats away, at magnitudes 1e-6 to 1e9."""
    rng = np.random.default_rng(seed)
    values = (rng.integers(0, 10**15, size=n) // 10 ** rng.integers(0, 16, size=n) + 0.5) * 1e-6
    for step in (1, 2):
        steps = rng.integers(-2, 3, size=n)
        values = np.where(steps >= step, np.nextafter(values, np.inf), values)
        values = np.where(steps <= -step, np.nextafter(values, -np.inf), values)
    return np.where(rng.random(n) < 0.5, -values, values)


class TestWriterMatchesReference:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6, 7])
    def test_small_chunks(self, monkeypatch, tmp_path, n):
        monkeypatch.setattr(microdp.data, "_CHUNK_ROWS", 3)
        data = mixed_table(n, seed=n)
        buf = io.StringIO()
        write_dataset(data, buf)
        assert buf.getvalue() == reference_csv(data)
        write_dataset(data, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == reference_csv(data).encode("utf-8")

    def test_default_chunks(self, tmp_path):
        data = mixed_table(3 * microdp.data._CHUNK_ROWS + 1, seed=99)
        write_dataset(data, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == reference_csv(data).encode("utf-8")

    def test_signed_zero_and_half_micro_text(self):
        schema = Schema((AttributeSchema("v", "numeric", -1.0, 1.0),))
        buf = io.StringIO()
        write_dataset(Dataset(schema, [np.array([-0.0, 5e-7, 1.5e-6, 2.5e-6, 4e-7])]), buf)
        assert buf.getvalue() == "v\n-0.000000\n0.000000\n0.000002\n0.000003\n0.000000\n"

    @pytest.mark.parametrize("chunk", [1, 3, 2048])
    def test_percent_signs_stay_text(self, monkeypatch, chunk):
        # Labels and names are cells, never part of a format string.
        monkeypatch.setattr(microdp.data, "_CHUNK_ROWS", chunk)
        labels = ["%", "%s", "%%", "%(x)s", "%.6f", "100%,", '"%d"']
        tax = Taxonomy("all", {label: "all" for label in labels})
        schema = Schema(
            (AttributeSchema("%s", "categorical", taxonomy_ref="t"),
             AttributeSchema("v", "numeric", -1.0, 1.0),
             AttributeSchema("%(x)s", "categorical", taxonomy_ref="t")),
            {"t": tax},
        )
        column = labels * 3 + ["all"]
        data = Dataset(schema, [column, np.linspace(-1.0, 1.0, len(column)), column[::-1]])
        buf = io.StringIO()
        write_dataset(data, buf)
        assert buf.getvalue() == reference_csv(data)

    @pytest.mark.parametrize("chunk", [1, 3, 2048])
    def test_lone_empty_label(self, monkeypatch, chunk):
        # csv writes a row of one empty field as `""`, so that it is not a blank line.
        monkeypatch.setattr(microdp.data, "_CHUNK_ROWS", chunk)
        tax = Taxonomy("all", {"": "all", " ": "all"})
        for names in (["c"], ["c", "d"]):
            schema = Schema(
                tuple(AttributeSchema(name, "categorical", taxonomy_ref="t") for name in names),
                {"t": tax},
            )
            column = ["", " ", "", "all", "", " "]
            data = Dataset(schema, [column] * len(names))
            buf = io.StringIO()
            write_dataset(data, buf)
            assert buf.getvalue() == reference_csv(data)
        assert buf.getvalue().splitlines()[1] == ","

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_near_tie_column(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(microdp.data, "_CHUNK_ROWS", chunk)
        ties = near_tie_column(10**4, seed=17)
        numeric = Dataset(
            Schema((AttributeSchema("t", "numeric", -1e9, 1e9), AttributeSchema("u", "numeric", -1e9, 1e9))),
            [ties, -ties[::-1]],
        )
        mixed = mixed_table(10**4, seed=18)
        mixed = Dataset(
            Schema((*mixed.schema.attributes, AttributeSchema("t", "numeric", -1e9, 1e9)), mixed.schema.taxonomies),
            [*mixed.columns, ties],
        )
        for data in (numeric, mixed):
            buf = io.StringIO()
            write_dataset(data, buf)
            assert buf.getvalue() == reference_csv(data)

    @given(
        values=st.lists(
            st.one_of(
                st.floats(min_value=-1e300, max_value=1e300),
                st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                                 -0.0, 0.0, 5e-7, -5e-7, 0.5e-6 + 1e-22]),
                st.integers(-10**6, 10**6).map(lambda i: (i + 0.5) * 1e-6),
                near_half_micros(),
                st.builds(stepped, st.sampled_from([KERNEL_LIMIT, -KERNEL_LIMIT]), st.integers(-8, 8)),
                st.floats(min_value=-5e-7, max_value=-0.0),
                st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
            ),
            max_size=12,
        ),
        chunk=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_float_matches_the_reference(self, values, chunk):
        schema = Schema(
            (AttributeSchema("v", "numeric", -1e300, 1e300),
             AttributeSchema("w", "numeric", -1e300, 1e300)),
        )
        data = Dataset(schema, [np.array(values, dtype=float), np.array(values[::-1], dtype=float)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(microdp.data, "_CHUNK_ROWS", chunk)
            buf = io.StringIO()
            write_dataset(data, buf)
        assert buf.getvalue() == reference_csv(data)


class TestDataset:
    def test_columns_are_immutable(self, numeric_schema):
        data = Dataset(numeric_schema, [np.array([1.0, 2.0])])
        with pytest.raises(ValueError):
            np.asarray(data.column("v"))[0] = 9.0

    def test_caller_arrays_are_copied(self, numeric_schema):
        mine = np.array([1.0, 2.0])
        data = Dataset(numeric_schema, [mine])
        assert mine.flags.writeable
        assert not np.shares_memory(mine, data.column("v"))
        mine[0] = 9.0
        assert data.column("v")[0] == 1.0

    def test_read_only_views_of_writable_arrays_are_copied(self, numeric_schema):
        mine = np.array([1.0, 2.0])
        view = mine[:]
        view.flags.writeable = False
        data = Dataset(numeric_schema, [view])
        assert not np.shares_memory(mine, data.column("v"))

    def test_frozen_columns_are_kept_without_a_copy(self, numeric_schema):
        data = Dataset(numeric_schema, [np.array([1.0, 2.0])])
        again = Dataset(data.schema, data.columns)
        assert again.column("v") is data.column("v")

    def test_subset_keeps_order_given(self):
        schema = Schema((
            AttributeSchema("a", "numeric", 0.0, 1.0),
            AttributeSchema("b", "numeric", 0.0, 1.0),
        ))
        data = Dataset(schema, [np.array([0.1]), np.array([0.2])])
        sub = data.subset(["b"])
        assert sub.schema.names == ("b",)
        assert list(sub.column("b")) == [0.2]

    def test_ragged_columns_rejected(self, numeric_schema):
        schema = Schema((
            AttributeSchema("a", "numeric", 0.0, 1.0),
            AttributeSchema("b", "numeric", 0.0, 1.0),
        ))
        with pytest.raises(DataError):
            Dataset(schema, [np.array([0.1]), np.array([0.2, 0.3])])


class TestCheckValues:
    def test_returns_numeric_columns_as_given_and_labels_as_node_ids(self, chain_tax):
        attrs = (AttributeSchema("v", "numeric", 0.0, 10.0), AttributeSchema("c", "categorical", taxonomy_ref="t"))
        schema = Schema(attrs, {"t": chain_tax})
        data = Dataset(schema, [np.array([1.0, 2.0, 3.0]), ("a", "root", "y")])
        for bounds in (False, True):
            numeric, labels = microdp.data.check_values(schema, data.columns, bounds=bounds)
            assert numeric is data.column("v")
            assert labels.tolist() == chain_tax.node_ids(data.column("c")).tolist()

    def test_node_ids_are_range_checked_and_kept(self, chain_tax):
        attr = AttributeSchema("c", "categorical", taxonomy_ref="t")
        ids = np.array([4, 0, 2])
        assert microdp.data.check_labels(attr, ids, chain_tax, "cluster") is ids
        assert microdp.data.check_labels(attr, ids[:0], chain_tax).size == 0
        for wrong in (5, -1):
            bad = np.array([1, wrong, 9])
            with pytest.raises(DataError, match=rf"^cluster 1, column 'c': node id {wrong} not in taxonomy$"):
                microdp.data.check_labels(attr, bad, chain_tax, "cluster")


class TestNeighborPair:
    def test_helper_builds_valid_pair(self, numeric_schema):
        data = Dataset(numeric_schema, [np.array([1.0, 2.0, 3.0])])
        pair = neighbor_pair(data, 1, (50.0,))
        assert pair.changed_index == 1
        assert pair.modified.record(1) == (50.0,)
        assert pair.base.record(0) == pair.modified.record(0)

    def test_identical_datasets_rejected(self, numeric_schema):
        data = Dataset(numeric_schema, [np.array([1.0, 2.0])])
        with pytest.raises(DataError, match="differ"):
            NeighborPair(base=data, modified=data, changed_index=0)

    def test_wrong_index_rejected(self, numeric_schema):
        data = Dataset(numeric_schema, [np.array([1.0, 2.0])])
        other = data.replace_record(1, (9.0,))
        with pytest.raises(DataError, match="differ"):
            NeighborPair(base=data, modified=other, changed_index=0)

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20),
        index=st.integers(min_value=0, max_value=19),
        replacement=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_construction_always_differs_in_exactly_one_record(
        self, values, index, replacement
    ):
        schema = Schema((AttributeSchema("v", "numeric", 0.0, 100.0),))
        index = index % len(values)
        data = Dataset(schema, [np.asarray(values)])
        if replacement == values[index]:
            replacement = replacement + 1.0 if replacement < 100.0 else replacement - 1.0
        pair = neighbor_pair(data, index, (replacement,))
        differing = [
            i for i in range(data.n) if pair.base.record(i) != pair.modified.record(i)
        ]
        assert differing == [index]
