"""Tabular data model: attribute schemas, bounded domains, CSV ingestion.

Datasets are column oriented and immutable. Numeric columns are float64
arrays with a declared closed domain [lower, upper], never one derived
from the data; categorical columns are label tuples whose domain is a
taxonomy. All value-level invariants are enforced when a dataset is
loaded from CSV; an in-memory dataset is checked by `check_values`, which
releases and metrics call. CSV is read and written a chunk of rows at a
time, column by column, so memory beyond the columns themselves does not
grow with the file. The writer lays each chunk out as one byte array,
its numbers written by a numpy digit kernel that gives the bytes of
`'%.6f'` exactly. It also takes a release's columns per cluster
(`ClusterColumn`), and then formats each cluster's value once.
"""

from __future__ import annotations

import codecs
import configparser
import csv
import io
import math
from contextlib import closing
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .taxonomy import Taxonomy, TaxonomyError, load_taxonomy

NUMERIC = "numeric"
CATEGORICAL = "categorical"
_NUMERIC_FORMAT = "%.6f"
# Rows tokenised, converted or written per step of `load_dataset` and
# `write_dataset`, and bytes (or characters) read per block of a source.
_CHUNK_ROWS = 1 << 11
_READ_BLOCK = 1 << 16


class SchemaError(ValueError):
    """Malformed schema, schema file, or domain declaration."""


class DataError(ValueError):
    """CSV contents that violate the schema contract."""


@dataclass(frozen=True)
class AttributeSchema:
    """Declaration of one attribute: kind plus its domain.

    Numeric attributes declare finite bounds, lower < upper, whose width
    is finite too, chosen independently of the records released.
    Categorical attributes reference a taxonomy by name.
    """

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    taxonomy_ref: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == NUMERIC:
            if self.taxonomy_ref is not None:
                raise SchemaError(f"attribute {self.name!r}: numeric attributes take no taxonomy")
            if self.lower is None or self.upper is None:
                raise SchemaError(f"attribute {self.name!r}: numeric attributes need both bounds")
            if not (math.isfinite(self.lower) and math.isfinite(self.upper)
                    and math.isfinite(float(self.upper) - float(self.lower))):
                raise SchemaError(f"attribute {self.name!r}: bounds and their width must be finite")
            if not self.lower < self.upper:
                raise SchemaError(
                    f"attribute {self.name!r}: lower {self.lower} must be < upper {self.upper}"
                )
        else:
            if self.lower is not None or self.upper is not None:
                raise SchemaError(f"attribute {self.name!r}: categorical attributes take no bounds")
            if not self.taxonomy_ref:
                raise SchemaError(f"attribute {self.name!r}: categorical attributes need a taxonomy")

    @property
    def sensitivity(self) -> float:
        """Width of the domain: upper - lower for numeric, 1 for categorical."""
        if self.kind == CATEGORICAL:
            return 1.0
        return float(self.upper) - float(self.lower)


@dataclass(frozen=True)
class Schema:
    """Ordered attribute declarations plus the taxonomies they reference."""

    attributes: tuple[AttributeSchema, ...]
    taxonomies: Mapping[str, Taxonomy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(names) != len(set(names)):
            raise SchemaError("duplicate attribute names")
        for attr in self.attributes:
            if attr.kind == CATEGORICAL and attr.taxonomy_ref not in self.taxonomies:
                raise SchemaError(
                    f"attribute {attr.name!r}: taxonomy {attr.taxonomy_ref!r} is not loaded"
                )

    def __iter__(self):
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def attribute(self, name: str) -> AttributeSchema:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"no attribute named {name!r}")

    def taxonomy_for(self, name: str) -> Taxonomy:
        attr = self.attribute(name)
        if attr.kind != CATEGORICAL:
            raise SchemaError(f"attribute {name!r} is not categorical")
        return self.taxonomies[attr.taxonomy_ref]

    def subset(self, names: Sequence[str]) -> Schema:
        """Schema restricted to `names`, in the order given."""
        attrs = tuple(self.attribute(n) for n in names)
        refs = {a.taxonomy_ref for a in attrs if a.taxonomy_ref}
        taxes = {ref: tax for ref, tax in self.taxonomies.items() if ref in refs}
        return Schema(attrs, taxes)


def load_schema(source: str | Path) -> Schema:
    """Read a schema file: one INI section per attribute.

    Recognized keys are `kind`, `lower`, `upper` and `taxonomy` (a path
    relative to the schema file). A numeric section must give both
    bounds. Section order fixes the attribute order. The file is read as
    UTF-8, less one leading byte order mark.
    """
    path = Path(source)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with path.open(encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise SchemaError(f"cannot read schema {path}: {exc}") from exc
    attributes: list[AttributeSchema] = []
    taxonomies: dict[str, Taxonomy] = {}
    for section in parser.sections():
        fields = dict(parser.items(section))
        unknown = set(fields) - {"kind", "lower", "upper", "taxonomy"}
        if unknown:
            raise SchemaError(f"attribute {section!r}: unknown keys {sorted(unknown)}")
        kind = fields.get("kind", "")
        lower = upper = None
        ref = fields.get("taxonomy")
        try:
            if "lower" in fields:
                lower = float(fields["lower"])
            if "upper" in fields:
                upper = float(fields["upper"])
        except ValueError as exc:
            raise SchemaError(f"attribute {section!r}: {exc}") from exc
        attributes.append(
            AttributeSchema(name=section, kind=kind, lower=lower, upper=upper, taxonomy_ref=ref)
        )
        if ref is not None and ref not in taxonomies:
            tax_path = Path(ref)
            if not tax_path.is_absolute():
                tax_path = path.parent / tax_path
            try:
                taxonomies[ref] = load_taxonomy(tax_path)
            except (OSError, TaxonomyError) as exc:
                raise SchemaError(f"attribute {section!r}: taxonomy {ref!r}: {exc}") from exc
    if not attributes:
        raise SchemaError(f"schema {path} declares no attributes")
    return Schema(tuple(attributes), taxonomies)


def check_domain(
    attr: AttributeSchema, values: np.ndarray, unit: str = "record", first: int = 0
) -> None:
    """Raise `DataError` at the first value that is NaN or outside `attr`'s bounds.

    The error names the value as `{unit} {first + index}` and its column.
    """
    outside = np.flatnonzero(~((values >= attr.lower) & (values <= attr.upper)))
    if outside.size:
        i = int(outside[0])
        raise DataError(
            f"{unit} {first + i}, column {attr.name!r}: value {values[i]} outside "
            f"[{attr.lower}, {attr.upper}]"
        )


def check_finite(attr: AttributeSchema, values: np.ndarray, unit: str = "record") -> None:
    """Raise `DataError` at the first value of a numeric column that is NaN or ±inf."""
    if np.isfinite(values).all():
        return
    i = int(np.flatnonzero(~np.isfinite(values))[0])
    raise DataError(f"{unit} {i}, column {attr.name!r}: value {values[i]} is not finite")


def check_labels(
    attr: AttributeSchema, labels: Sequence[str] | np.ndarray, taxonomy: Taxonomy, unit: str = "record"
) -> np.ndarray:
    """The node ids of `labels`; `DataError` at the first label that is not a node of `taxonomy`.

    An integer array is taken as node ids already, such as a plan's
    centroids, and returned as it is once every id is one of the taxonomy's.
    """
    if isinstance(labels, np.ndarray) and labels.dtype.kind in "iu":
        if labels.size and not 0 <= labels.min() <= labels.max() < len(taxonomy):
            i = int(np.flatnonzero((labels < 0) | (labels >= len(taxonomy)))[0])
            raise DataError(f"{unit} {i}, column {attr.name!r}: node id {labels[i]} not in taxonomy")
        return labels
    try:
        return taxonomy.node_ids(labels)
    except TaxonomyError:
        i = next(i for i, label in enumerate(labels) if label not in taxonomy)
        raise DataError(f"{unit} {i}, column {attr.name!r}: label {labels[i]!r} not in taxonomy") from None


def check_values(schema: Schema, columns: Sequence, *, bounds: bool, unit: str = "record") -> list:
    """`columns` checked, labels as node ids; `DataError` at the first bad value in schema order.

    `columns` holds one column of values per attribute of `schema`: a
    table's, or a release's values per cluster (`unit` "cluster"), which
    an error then names. A label must be a node of its taxonomy. A
    numeric value must be finite and, with `bounds`, lie in
    [lower, upper]: a release needs the domain its noise is scaled to,
    while a metric also scores an unclamped release, whose values leave it.
    """
    checked = []
    for attr, column in zip(schema, columns):
        if attr.kind != NUMERIC:
            column = check_labels(attr, column, schema.taxonomy_for(attr.name), unit)
        elif bounds:
            check_domain(attr, column, unit)
        else:
            check_finite(attr, column, unit)
        checked.append(column)
    return checked


def _frozen(col) -> bool:
    """Whether `col` is a contiguous float64 array that no one can write to.

    It must be read-only, and so must every array it views, down to one
    that owns its memory. Such a column is kept as it is, not copied.
    """
    if not isinstance(col, np.ndarray) or col.dtype != np.float64 or not col.flags.c_contiguous:
        return False
    while isinstance(col, np.ndarray) and not col.flags.writeable:
        col = col.base
    return col is None


class Dataset:
    """Immutable column-oriented table tied to a schema.

    Numeric columns are stored as read-only float64 arrays. An array that
    is already read-only all the way down (see `_frozen`) is stored as
    given; any other is copied, so the caller's array stays its own.
    """

    __slots__ = ("schema", "columns")

    def __init__(self, schema: Schema, columns: Sequence[np.ndarray | tuple]) -> None:
        if len(columns) != len(schema):
            raise DataError(f"expected {len(schema)} columns, got {len(columns)}")
        sizes = set()
        stored: list[np.ndarray | tuple] = []
        for attr, col in zip(schema, columns):
            if attr.kind == NUMERIC:
                if _frozen(col):
                    arr = col
                else:
                    arr = np.array(col, dtype=float)
                    arr.flags.writeable = False
                stored.append(arr)
                sizes.add(arr.shape[0] if arr.ndim == 1 else -1)
            else:
                vals = tuple(map(str, col))
                stored.append(vals)
                sizes.add(len(vals))
        if len(sizes) > 1 or -1 in sizes:
            raise DataError("columns must be one-dimensional and equally long")
        self.schema = schema
        self.columns = tuple(stored)

    @property
    def n(self) -> int:
        if not self.columns:
            return 0
        first = self.columns[0]
        return len(first)

    @property
    def m(self) -> int:
        return len(self.schema)

    def column(self, name: str) -> np.ndarray | tuple:
        for attr, col in zip(self.schema, self.columns):
            if attr.name == name:
                return col
        raise DataError(f"no column named {name!r}")

    def record(self, index: int) -> tuple:
        return tuple(col[index] for col in self.columns)

    def replace_record(self, index: int, values: Sequence) -> Dataset:
        if not 0 <= index < self.n:
            raise DataError(f"record index {index} out of range")
        if len(values) != self.m:
            raise DataError(f"expected {self.m} values, got {len(values)}")
        new_cols = []
        for attr, col, value in zip(self.schema, self.columns, values):
            if attr.kind == NUMERIC:
                arr = np.array(col)
                arr[index] = float(value)
                arr.flags.writeable = False
                new_cols.append(arr)
            else:
                vals = list(col)
                vals[index] = str(value)
                new_cols.append(tuple(vals))
        return Dataset(self.schema, new_cols)

    def subset(self, names: Sequence[str]) -> Dataset:
        sub = self.schema.subset(names)
        return Dataset(sub, [self.column(n) for n in names])


@dataclass(frozen=True)
class ClusterColumn:
    """A column given per cluster: record i's value is `values[assignments[i]]`.

    `values` holds one value per cluster (floats, or labels) and
    `assignments` each record's cluster id; `mechanisms.records` gives a
    release's columns in this form.
    """

    values: np.ndarray
    assignments: np.ndarray

    def per_record(self) -> np.ndarray:
        """Every record's value, in record order, as a read-only array."""
        column = self.values[self.assignments]
        column.flags.writeable = False
        return column


@dataclass(frozen=True)
class NeighborPair:
    """Two datasets differing in exactly one record, for DP probes."""

    base: Dataset
    modified: Dataset
    changed_index: int

    def __post_init__(self) -> None:
        if self.base.schema is not self.modified.schema and self.base.schema != self.modified.schema:
            raise DataError("neighbor datasets must share a schema")
        if self.base.n != self.modified.n:
            raise DataError("neighbor datasets must have the same record count")
        differing = [
            i for i in range(self.base.n)
            if self.base.record(i) != self.modified.record(i)
        ]
        if differing != [self.changed_index]:
            raise DataError(
                f"datasets must differ exactly at record {self.changed_index}, differ at {differing}"
            )


def neighbor_pair(data: Dataset, index: int, record: Sequence) -> NeighborPair:
    """Build a NeighborPair by swapping one record for `record`."""
    modified = data.replace_record(index, record)
    return NeighborPair(base=data, modified=modified, changed_index=index)


def _text_blocks(source: str | Path | bytes | IO) -> Iterator[str]:
    """A CSV source as UTF-8 text with universal newlines, in whole-line blocks.

    Every source kind goes through one incremental decoder, which turns
    CRLF and bare CR line ends into LF as `Path.read_text` does. It is
    read `_READ_BLOCK` at a time, so memory does not grow with the input.
    Each block ends at a newline, but the last. One leading byte order
    mark, as spreadsheets write it, is dropped.
    """
    owned = isinstance(source, (str, Path))
    if owned:
        handle = open(source, "rb")
    elif isinstance(source, bytes):
        handle = io.BytesIO(source)
    else:
        handle = source
    try:
        utf8 = codecs.getincrementaldecoder("utf-8")() if isinstance(handle.read(0), bytes) else None
        decoder = io.IncrementalNewlineDecoder(utf8, translate=True)
        tail = ""
        start = True
        while block := handle.read(_READ_BLOCK):
            text = tail + decoder.decode(block)
            if start and text:
                text, start = text.removeprefix("\ufeff"), False
            cut = text.rfind("\n") + 1
            tail = text[cut:]
            yield text[:cut]
        yield tail + decoder.decode(block, final=True)
    finally:
        if owned:
            handle.close()


def _number(cell: str, name: str, lineno: int) -> float:
    if cell.strip() == "":
        raise DataError(f"row {lineno}, column {name!r}: missing value")
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {lineno}, column {name!r}: cannot parse {cell!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"row {lineno}, column {name!r}: non-finite value")
    return value


def _label(cell: str, name: str, known: Mapping[str, str], lineno: int) -> None:
    if cell.strip() == "":
        raise DataError(f"row {lineno}, column {name!r}: missing value")
    if cell not in known:
        raise DataError(f"row {lineno}, column {name!r}: label {cell!r} not in taxonomy")


def _numeric_cells(cells: Sequence[str], name: str, first_row: int) -> np.ndarray:
    """Floats of one column chunk; a failing chunk is rescanned cell by cell."""
    try:
        values = np.fromiter(map(float, cells), float, count=len(cells))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_number(cell, name, i) for i, cell in enumerate(cells, start=first_row)])


def _label_cells(cells: Sequence[str], name: str, known: Mapping[str, str], first_row: int) -> tuple:
    """One categorical column chunk as `known`'s own strings; a failing chunk is rescanned."""
    labels = tuple(map(known.get, cells))
    if None in labels:
        for i, cell in enumerate(cells, start=first_row):
            _label(cell, name, known, i)
    return labels


def _header(blocks: Iterator[str]) -> tuple[list[str] | None, str]:
    """The header record, read by `csv.reader`, and the text after it in its block."""
    block = io.StringIO()

    def lines() -> Iterator[str]:
        nonlocal block
        for text in blocks:
            block = io.StringIO(text)
            # Not `yield from`: closing this generator would close `block`.
            for line in block:
                yield line

    return next(csv.reader(lines()), None), block.read()


def _header_failure(header: Sequence[str], schema: Schema) -> DataError | None:
    """The error for the first schema attribute missing from `header` or named twice in it."""
    for name in schema.names:
        if name not in header:
            return DataError(f"column {name!r} missing from CSV header")
        if header.count(name) > 1:
            return DataError(f"column {name!r} appears more than once in CSV header")
    return None


# ASCII characters that numpy's text reader strips from a number as
# whitespace and `float` does not.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _float_block(text: str, width: int) -> np.ndarray | None:
    """A block of whole lines as floats in `width` columns, or None to decline it.

    numpy's C reader converts each cell with `PyOS_string_to_double`, as
    `float` does, so an accepted block holds the values `csv.reader` and
    `float` would give, one record per line. A block is declined if it
    holds a character in `_NUMPY_ONLY_SPACE`, a cell `loadtxt` cannot
    convert (quotes, text, empty cells, `1_0`, `#`), a value that is not
    finite, or other than `width` cells on each line. `loadtxt` skips
    blank lines, so one shows as a row too few; a block that starts with
    one is declined before `loadtxt`, which warns on a block of blank
    lines alone.
    """
    if text.startswith("\n") or any(char in text for char in _NUMPY_ONLY_SPACE):
        return None
    try:
        table = np.loadtxt(io.StringIO(text), delimiter=",", dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    lines = text.count("\n") + (not text.endswith("\n"))
    if table.shape != (lines, width) or not np.isfinite(table).all():
        return None
    return table


def load_dataset(csv_source: str | Path | bytes | IO, schema: Schema) -> Dataset:
    """Parse and validate a CSV against `schema`.

    The source is a path, `bytes`, or a binary or text handle; all are
    read as UTF-8 with universal newlines, less one leading byte order
    mark. The file needs a header row naming every schema attribute once
    (extra columns are ignored). Values are validated eagerly: numeric
    cells must parse, be finite and lie inside the attribute domain;
    labels must be taxonomy nodes; empty cells are rejected. The dataset
    is tied to `schema` itself, and each of its labels is its taxonomy's
    own string: every cell is looked up in one table per taxonomy, built
    once per load, that maps each non-blank label to that string.

    The header is read by `csv.reader`. When every attribute is numeric,
    each whole-line block of the rest is first parsed by numpy's C reader
    (`_float_block`). The first block it declines, and every block after
    it, go to `csv.reader`, which is the only path for a table with a
    categorical attribute and the one that finds every error. Both give
    the same bits. `csv.reader` rows are converted column-wise,
    `_CHUNK_ROWS` at a time, so memory beyond the loaded columns stays
    bounded either way. The whole input is read before any error is
    raised, and the error raised is the first in this order: a missing
    or repeated header column, the first ragged row, then column by
    column in schema order the first bad cell, the first value out of
    range. Rows are numbered by CSV record, the header being row 1.
    """
    with closing(_text_blocks(csv_source)) as blocks:
        header, rest = _header(blocks)
        if header is None:
            raise DataError("empty CSV: missing header row")
        width = len(header)
        failure = _header_failure(header, schema)
        positions = {name: header.index(name) for name in schema.names if name in header}
        parts: dict[str, list] = {name: [] for name in schema.names}
        # Each taxonomy's non-blank labels, each to the taxonomy's own string.
        known = {
            ref: {label: label for label in tax.labels if label.strip()}
            for ref, tax in schema.taxonomies.items()
        }
        bad: dict[str, DataError] = {}
        first_row = 2
        texts = filter(None, chain([rest], blocks))
        if failure is None and all(attr.kind == NUMERIC for attr in schema):
            for text in texts:
                floats = _float_block(text, width)
                if floats is None:
                    texts = chain([text], texts)
                    break
                for name, j in positions.items():
                    parts[name].append(floats[:, j].copy())
                first_row += len(floats)
        rows = csv.reader(chain.from_iterable(map(io.StringIO, texts)))
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            if failure is None and set(map(len, chunk)) != {width}:
                offset = next(i for i, row in enumerate(chunk) if len(row) != width)
                failure = DataError(
                    f"row {first_row + offset}: expected {width} cells, got {len(chunk[offset])}"
                )
            if failure is None:
                table = list(zip(*chunk))
                for attr in schema:
                    if attr.name in bad:
                        continue
                    cells = table[positions[attr.name]]
                    try:
                        if attr.kind == NUMERIC:
                            part = _numeric_cells(cells, attr.name, first_row)
                        else:
                            part = _label_cells(cells, attr.name, known[attr.taxonomy_ref], first_row)
                    except DataError as exc:
                        bad[attr.name] = exc
                    else:
                        parts[attr.name].append(part)
            first_row += len(chunk)
    if failure is not None:
        raise failure

    columns: list[np.ndarray | tuple] = []
    for attr in schema:
        if attr.name in bad:
            raise bad[attr.name]
        if attr.kind == CATEGORICAL:
            columns.append(tuple(chain.from_iterable(parts.pop(attr.name))))
            continue
        values = np.concatenate([np.empty(0), *parts.pop(attr.name)])
        check_domain(attr, values, "row", 2)
        # A fresh array: read-only, `Dataset` keeps it without a copy.
        values.flags.writeable = False
        columns.append(values)
    return Dataset(schema, columns)


def _quoted(labels: Iterable[str], lone: bool) -> list[bytes]:
    """Each label as `csv.writer` writes it in a cell, in UTF-8.

    `lone` says that the cell is its row's only one: csv writes a row of
    one empty field as `""`, but an empty field among others as nothing.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    pad = [] if lone else [""]
    cells = []
    for label in labels:
        writer.writerow([label, *pad])
        cells.append(buffer.getvalue()[: -1 - len(pad)].encode("utf-8"))
        buffer.seek(0)
        buffer.truncate()
    return cells


# A byte that UTF-8 text never holds. The writer fills each row of a
# chunk's bytes with it wherever no text goes, and drops it after.
_BLANK = 0xFF


def _right_aligned(texts: Sequence[bytes], width: int = 0) -> np.ndarray:
    """`texts` as the rows of a byte array at least `width` wide, each ending at
    its row's end, `_BLANK` before it."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    width = max(width, lengths.max(initial=0))
    rows = np.full((len(texts), width), _BLANK, np.uint8)
    rows[np.arange(width) >= width - lengths[:, None]] = np.frombuffer(b"".join(texts), np.uint8)
    return rows


class _TextColumn:
    """One column of a chunk given as rows `index` of `table`, a table of cells' bytes, a row each."""

    def __init__(self, table: np.ndarray, index: np.ndarray) -> None:
        self.table = table
        self.index = index
        self.width = table.shape[1]

    def put(self, text: np.ndarray, column: int) -> None:
        if not self.width:  # empty cells only, such as a label "" beside other columns
            return
        # Each row as one item, taken straight into the chunk's slot: with
        # mode "clip" `np.take` writes to a strided `out` without a buffer.
        cells = self.table.view(np.dtype((np.void, self.width))).reshape(-1)
        slot = np.ndarray((len(text),), cells.dtype, text, column, (text.strides[0],))
        np.take(cells, self.index, out=slot, mode="clip")


# The digit kernel writes a value x whose |x|·10⁶ rounds below
# `_DIGIT_LIMIT`, so has at most nine integer digits, in `_NUMBER_WIDTH`
# bytes: a sign, nine digits, a point and six decimals. The digits come
# from a table of the three digits of each i < 1000, as 4-byte words
# written from left to right at `_WORD_OFFSETS` from the sign, each
# word's last byte overwritten by the next word or the separator.
# `_words()[i]` is the plain word of i, and `_words()[kind + i]` the
# word of i with `_LEAD` its leading zeros blank, for a group before
# which every digit is zero; `_UNIT` the same but keeping the units
# digit; `_POINT` after a point.
_DIGIT_LIMIT = 1e15
_NUMBER_WIDTH = 17
_WORD_OFFSETS = (1, 4, 7, 10, 14)
_LEAD, _UNIT, _POINT = (np.uint32(1000 * kind) for kind in (1, 2, 3))


@cache
def _words() -> np.ndarray:
    """The digit kernel's table of words, built on first use, not at import."""
    triples = (
        np.arange(1000, dtype=np.uint32)[:, None] // np.array([100, 10, 1], np.uint32) % np.uint32(10)
        + np.uint32(ord("0"))
    ).astype(np.uint8)
    below = np.arange(1000)[:, None] < np.array([[100, 10, 1], [100, 10, 0]])[:, None, :]
    words = np.full((4, 1000, 4), _BLANK, np.uint8)
    words[0, :, :3] = triples
    words[1:3, :, :3] = np.where(below, np.uint8(_BLANK), triples)
    words[3, :, 0] = ord(".")
    words[3, :, 1:] = triples
    words.flags.writeable = False
    return words.view(np.uint32).ravel()


def _scaled(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each |value|·10⁶ rounded as `_NUMERIC_FORMAT` rounds it, and which fit the kernel.

    `%.6f` rounds the exact binary value half to even. The float product
    `a` of |x| and 10⁶ is the true product p rounded to nearest, and
    rounding is monotone. Below `_DIGIT_LIMIT` every half-integer h is a
    float, so `a` lies on the side of each h that p lies on, or on h
    itself. So where `a` is no half-integer, `np.rint(a)` is the integer
    p rounds to, and where it is one (p may be a tie or lie to either
    side), the integer is read back from `%.6f`. `a - rint(a)` is exact
    there. A value that does not fit (NaN, ±inf, |x| of about 1e9 or
    more) reads 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.abs(values) * 1e6
        scaled = np.rint(a)
        fits = scaled < _DIGIT_LIMIT
        a -= scaled
        halves = np.abs(a) == 0.5
    for i in np.flatnonzero(halves):
        scaled[i] = int((_NUMERIC_FORMAT % abs(values[i])).replace(".", ""))
    if not fits.all():
        scaled[~fits] = 0.0
    return scaled.astype(np.uint64), fits


def _word_view(text: np.ndarray, column: int) -> np.ndarray:
    """The 4 bytes at `column` of each row of `text`, as one unaligned uint32 each."""
    return np.ndarray((len(text),), np.uint32, text, column, (text.strides[0],))


class _NumberColumn:
    """One numeric column of a chunk, as `_NUMERIC_FORMAT` writes it.

    A value the kernel cannot hold is written by `_NUMERIC_FORMAT`, and
    the column widens to the widest such cell. The sign comes from
    `np.signbit`, so `-0.0` and a negative value that rounds to zero
    keep their `-`. Every integer operation is on an explicit unsigned
    dtype: numpy before 2.0 promotes `uint64` with a signed integer to
    float64.
    """

    def __init__(self, values: np.ndarray) -> None:
        scaled, fits = _scaled(values)
        million, thousand = np.uint64(10**6), np.uint32(1000)
        whole = scaled // million
        part = (scaled - whole * million).astype(np.uint32)
        whole = whole.astype(np.uint32)
        thousands = whole // thousand
        millions = whole // np.uint32(10**6)
        tail = part // thousand
        self.words = [
            _words().take(index)
            for index in (
                millions + _LEAD,
                thousands - millions * thousand + (millions == 0) * _LEAD,
                whole - thousands * thousand + (thousands == 0) * _UNIT,
                tail + _POINT,
                part - tail * thousand,
            )
        ]
        negative = np.signbit(values)
        self.signs = np.where(negative, np.uint8(ord("-")), np.uint8(_BLANK)) if negative.any() else None
        self.texts = None
        self.width = _NUMBER_WIDTH
        if not fits.all():
            self.rows = np.flatnonzero(~fits)
            texts = [(_NUMERIC_FORMAT % v).encode() for v in values[self.rows].tolist()]
            self.texts = _right_aligned(texts, _NUMBER_WIDTH)
            self.width = self.texts.shape[1]

    def put(self, text: np.ndarray, column: int) -> None:
        sign = column + self.width - _NUMBER_WIDTH
        text[:, column : sign + 1] = _BLANK
        if self.signs is not None:
            text[:, sign] = self.signs
        for offset, words in zip(_WORD_OFFSETS, self.words):
            _word_view(text, sign + offset)[...] = words
        if self.texts is not None:
            text[self.rows, column : column + self.width] = self.texts


def _number_table(values: np.ndarray) -> np.ndarray:
    """Each value's cell as `_NumberColumn` writes it, a row each, right-aligned in the width
    of the widest cell, `_BLANK` before it; made `_CHUNK_ROWS` values at a time."""
    parts = []
    for start in range(0, len(values), _CHUNK_ROWS):
        chunk = values[start : start + _CHUNK_ROWS]
        cells = _NumberColumn(chunk)
        # One byte more, which the kernel's last word overwrites, as the separator does in a chunk.
        part = np.empty((len(chunk), cells.width + 1), np.uint8)
        cells.put(part, 0)
        part = part[:, :-1]
        # Every cell ends in six decimals, so a column that holds text exists.
        parts.append(part[:, np.argmax((part != _BLANK).any(axis=0)) :])
    width = max((part.shape[1] for part in parts), default=0)
    table = np.full((len(values), width), _BLANK, np.uint8)
    for start, part in zip(range(0, len(values), _CHUNK_ROWS), parts):
        table[start : start + len(part), width - part.shape[1] :] = part
    return table


def _chunk_cells(attr: AttributeSchema, column, ids: Mapping[str, int], quoted: np.ndarray):
    """The function from a chunk's rows (a slice) to `column`'s cells of that chunk.

    A per-record column is formatted a chunk at a time, its labels
    gathered from `quoted`, which holds label `ids[label]` in row
    `ids[label]`. A `ClusterColumn` with fewer clusters than records has
    each cluster's cell made once, a number into `_number_table` and a
    label as its row of `quoted`, and a chunk gathers its records' cells
    by their cluster ids; one with a cluster per record is spread a chunk
    at a time and formatted as a per-record column.
    """
    if attr.kind == NUMERIC:
        cells = _NumberColumn
    else:
        def cells(labels) -> _TextColumn:
            return _TextColumn(quoted, np.fromiter(map(ids.__getitem__, labels), np.intp, len(labels)))
    if not isinstance(column, ClusterColumn):
        return lambda rows: cells(column[rows])
    values, assignments = column.values, column.assignments
    if len(values) >= len(assignments):
        return lambda rows: cells(values[assignments[rows]])
    if attr.kind == NUMERIC:
        table = _number_table(values)
        return lambda rows: _TextColumn(table, assignments[rows])
    label_rows = cells(values).index
    return lambda rows: _TextColumn(quoted, label_rows[assignments[rows]])


def _record_count(schema: Schema, columns: Sequence) -> int:
    """The number of records of `columns`, one per attribute of `schema`, once they are checked.

    Every column must hold as many records, and every cluster id of a
    `ClusterColumn` must name one of its values: a chunk takes cells by
    cluster id with `np.take(..., mode="clip")`, which would write another
    cluster's cell for an id out of range.
    """
    if len(columns) != len(schema):
        raise DataError(f"expected {len(schema)} columns, got {len(columns)}")
    sizes = set()
    for col in columns:
        if isinstance(col, ClusterColumn):
            ids = col.assignments
            if len(ids) and not 0 <= ids.min() <= ids.max() < len(col.values):
                raise DataError(f"cluster ids must lie in [0, {len(col.values)})")
            col = ids
        sizes.add(len(col))
    if len(sizes) > 1:
        raise DataError("columns must be equally long")
    return sizes.pop() if sizes else 0


def write_dataset(data: Dataset | tuple[Schema, Sequence], sink: str | Path | IO[str]) -> None:
    """Write a table as UTF-8 CSV with a header row.

    `data` is a `Dataset`, or a schema and one column per attribute, each
    per record (a float array or a label sequence) or per cluster (a
    `ClusterColumn`, as `mechanisms.records` gives a release's columns);
    such columns are checked before anything is written (`DataError`):
    one per attribute, all of one length, every cluster id in range.
    Numeric values use a fixed six-decimal format, so write/load round
    trips of finite values are byte stable; a value below 5e-7 in
    magnitude is written as `0.000000`. The text is the `csv` module's
    with `{:.6f}` values, `nan`, `inf` and `-inf` included, which
    `load_dataset` rejects. Rows go out `_CHUNK_ROWS` at a time. A chunk's
    cells are laid out as bytes, each column's in a fixed-width slot
    followed by its separator, in one array: numbers by the digit kernel
    of `_NumberColumn`, labels gathered from one table, built before the
    first chunk, that quotes each distinct label once. A per-cluster
    column with fewer clusters than records is formatted once per cluster,
    into a table as wide as its widest cell, and each chunk gathers its
    records' cells from it (`_chunk_cells`). Every byte that is not text
    is `_BLANK`, and one boolean compress takes the chunk's lines out.
    The array and its mask are views of one scratch buffer, reused from
    chunk to chunk.
    """
    schema, columns = (data.schema, data.columns) if isinstance(data, Dataset) else data
    n = _record_count(schema, columns)
    owned = isinstance(sink, (str, Path))
    handle = open(sink, "w", encoding="utf-8", newline="") if owned else sink
    try:
        csv.writer(handle, lineterminator="\n").writerow(schema.names)
        label_columns = [
            col.values if isinstance(col, ClusterColumn) else col
            for attr, col in zip(schema, columns) if attr.kind == CATEGORICAL
        ]
        ids = {label: i for i, label in enumerate(dict.fromkeys(chain.from_iterable(label_columns)))}
        quoted = _right_aligned(_quoted(ids, len(schema) == 1))
        sources = [_chunk_cells(attr, col, ids, quoted) for attr, col in zip(schema, columns)]
        scratch = np.empty(0, np.uint8)
        for start in range(0, n, _CHUNK_ROWS):
            count = min(_CHUNK_ROWS, n - start)
            rows = slice(start, start + count)
            cells = [source(rows) for source in sources]
            width = sum(cell.width + 1 for cell in cells)
            if scratch.size < 2 * count * width:
                scratch = np.empty(2 * count * width, np.uint8)
            text = scratch[: count * width].reshape(count, width)
            keep = scratch[count * width : 2 * count * width].view(bool).reshape(count, width)
            column = 0
            for cell in cells:
                cell.put(text, column)
                column += cell.width
                text[:, column] = ord(",")
                column += 1
            text[:, -1] = ord("\n")
            np.not_equal(text, _BLANK, out=keep)
            handle.write(str(text[keep], "utf-8"))
    finally:
        if owned:
            handle.close()
