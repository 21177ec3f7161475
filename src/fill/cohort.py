"""Cohort loading, validation and preprocessing.

A cohort is an immutable table of records with binary and continuous
features plus a partially observed class label (POS / NEG / UNKNOWN).
The file format is strict CSV: column 1 = record id, column 2 = label,
then the binary feature block, then the continuous block.
"""

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DuplicateId,
    EmptyMeasurements,
    MalformedRow,
    NoLabeledRecords,
    OutOfRange,
    SchemaMismatch,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9._+-]+$")
# Unicode category Cc; it holds the line breaks CR and LF and the tab
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f-\x9f]")
_BITS = frozenset("01")


class Label(Enum):
    POS = "POS"
    NEG = "NEG"
    UNKNOWN = "UNKNOWN"

    @classmethod
    def parse(cls, text: str) -> "Label":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"not a label: {text!r}") from None


@dataclass(frozen=True)
class FeatureSchema:
    """Column layout: feature order is stable and defines indices downstream."""

    binary_names: tuple[str, ...]
    continuous_names: tuple[str, ...]
    label_column: str = "label"
    id_column: str = "record_id"

    def __post_init__(self):
        object.__setattr__(self, "binary_names", tuple(self.binary_names))
        object.__setattr__(self, "continuous_names", tuple(self.continuous_names))
        names = [self.id_column, self.label_column, *self.binary_names, *self.continuous_names]
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid column name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.binary_names + self.continuous_names

    def header(self) -> list[str]:
        return [self.id_column, self.label_column, *self.binary_names, *self.continuous_names]


@dataclass(frozen=True, eq=False)
class Cohort:
    """Immutable record table; safe to share read-only across workers.

    continuous_ranges holds per-feature (min, max) over ALL records, labeled
    and unlabeled, so distances live in one consistent space. Build instances
    through Cohort.make so the ranges stay in sync with the records.
    """

    schema: FeatureSchema
    ids: tuple[str, ...]
    binary: np.ndarray        # (n, n_binary) uint8 in {0, 1}
    continuous: np.ndarray    # (n, n_continuous) float64, finite
    labels: tuple[Label, ...]
    continuous_ranges: tuple[tuple[float, float], ...]

    def __post_init__(self):
        n = len(self.ids)
        if self.binary.shape != (n, len(self.schema.binary_names)):
            raise ValueError("binary matrix shape does not match schema")
        if self.continuous.shape != (n, len(self.schema.continuous_names)):
            raise ValueError("continuous matrix shape does not match schema")
        if len(self.labels) != n:
            raise ValueError("label count does not match record count")
        if len(self.continuous_ranges) != len(self.schema.continuous_names):
            raise ValueError("range count does not match continuous schema")
        if self.binary.dtype != np.uint8 or self.binary.max(initial=0) > 1:
            raise ValueError("binary features must be uint8 values 0 or 1")
        seen = set()
        for rid in self.ids:
            if rid in seen:
                raise DuplicateId(rid)
            seen.add(rid)
        for lo, hi in self.continuous_ranges:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError("continuous range must be finite with min <= max")
        self.binary.setflags(write=False)
        self.continuous.setflags(write=False)

    @classmethod
    def make(cls, schema, ids, binary, continuous, labels) -> "Cohort":
        binary = np.ascontiguousarray(binary, dtype=np.uint8)
        continuous = np.ascontiguousarray(continuous, dtype=np.float64)
        n_cont = len(schema.continuous_names)
        binary = binary.reshape(len(ids), len(schema.binary_names))
        continuous = continuous.reshape(len(ids), n_cont)
        if len(ids) > 0 and n_cont > 0:
            ranges = tuple(
                (float(continuous[:, j].min()), float(continuous[:, j].max()))
                for j in range(n_cont)
            )
        else:
            # no records to span: zero-width ranges contribute zero weight in Gower
            ranges = tuple((0.0, 0.0) for _ in range(n_cont))
        return cls(schema, tuple(ids), binary, continuous, tuple(labels), ranges)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cohort):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.ids == other.ids
            and self.labels == other.labels
            and np.array_equal(self.binary, other.binary)
            and np.array_equal(self.continuous, other.continuous)
            and self.continuous_ranges == other.continuous_ranges
        )

    @cached_property
    def id_index(self) -> dict:
        return {rid: i for i, rid in enumerate(self.ids)}

    @cached_property
    def binary_float(self) -> np.ndarray:
        """`binary` as float32, read-only. A matrix product with 0/1 masks
        counts exactly below 2**24 records, since every partial sum is then
        an integer that float32 holds; a cohort that large would need a
        2**48-entry distance matrix to be explained."""
        values = self.binary.astype(np.float32)
        values.setflags(write=False)
        return values

    @cached_property
    def labeled_mask(self) -> np.ndarray:
        return np.array([lab is not Label.UNKNOWN for lab in self.labels], dtype=bool)

    @cached_property
    def pos_mask(self) -> np.ndarray:
        return np.array([lab is Label.POS for lab in self.labels], dtype=bool)

    @cached_property
    def labeled_ids(self) -> tuple[str, ...]:
        return tuple(rid for rid, lab in zip(self.ids, self.labels) if lab is not Label.UNKNOWN)

    @cached_property
    def unknown_ids(self) -> tuple[str, ...]:
        return tuple(rid for rid, lab in zip(self.ids, self.labels) if lab is Label.UNKNOWN)


def aggregate_ef(measurements) -> Label:
    """Collapse repeated ejection-fraction percentages to one label.

    The lowest measurement wins: a record that ever dipped to the reduced
    band stays NEG; the mid band (30, 50] maps to UNKNOWN; above 50 is POS.
    """
    measurements = list(measurements)
    if not measurements:
        raise EmptyMeasurements("at least one measurement required")
    for v in measurements:
        if not np.isfinite(v) or v < 0 or v > 100:
            raise OutOfRange(v)
    m = min(measurements)
    if m <= 30:
        return Label.NEG
    if m <= 50:
        return Label.UNKNOWN
    return Label.POS


def prevalence_filter(cohort: Cohort, lo: float = 0.01, hi: float = 0.99) -> Cohort:
    """Drop binary features that are too rare or too common.

    Prevalence is computed over labeled records only (POS and NEG); features
    with prevalence strictly below lo or strictly above hi are removed, so a
    feature sitting exactly on a bound is kept. Continuous features are never
    removed and the record set is untouched.
    """
    if not (0 <= lo < hi <= 1):
        raise ValueError("need 0 <= lo < hi <= 1")
    labeled = cohort.labeled_mask
    n_labeled = int(labeled.sum())
    if n_labeled == 0:
        raise NoLabeledRecords("prevalence is undefined without labeled records")
    prevalence = cohort.binary[labeled].sum(axis=0) / n_labeled
    keep = (prevalence >= lo) & (prevalence <= hi)
    kept = [name for name, k in zip(cohort.schema.binary_names, keep) if k]
    return select_features(cohort, kept + list(cohort.schema.continuous_names))


def select_features(cohort: Cohort, names) -> Cohort:
    """Restrict the cohort to a subset of feature columns (schema order kept)."""
    wanted = set(names)
    known = set(cohort.schema.feature_names)
    missing = wanted - known
    if missing:
        raise ValueError(f"unknown feature(s): {sorted(missing)}")
    keep_bin = [name in wanted for name in cohort.schema.binary_names]
    keep_cont = [name in wanted for name in cohort.schema.continuous_names]
    schema = FeatureSchema(
        binary_names=tuple(n for n, k in zip(cohort.schema.binary_names, keep_bin) if k),
        continuous_names=tuple(n for n, k in zip(cohort.schema.continuous_names, keep_cont) if k),
        label_column=cohort.schema.label_column,
        id_column=cohort.schema.id_column,
    )
    ranges = tuple(r for r, k in zip(cohort.continuous_ranges, keep_cont) if k)
    return Cohort(
        schema,
        cohort.ids,
        np.ascontiguousarray(cohort.binary[:, keep_bin]),
        np.ascontiguousarray(cohort.continuous[:, keep_cont]),
        cohort.labels,
        ranges,
    )


def decode_text(data: bytes) -> str:
    """A cohort file's UTF-8 text with CRLF and CR read as LF; a byte that is
    not UTF-8 is a MalformedRow naming its line (no character holds CR or LF).
    """
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(
            data.count(b"\n", 0, exc.start) + 1,
            f"not UTF-8 at byte 0x{data[exc.start]:02x} ({exc.reason}); save the file as UTF-8",
        ) from None


def load_cohort(path, schema: FeatureSchema) -> Cohort:
    """Parse and validate a cohort file against the given schema.

    Strict by design: record ids must be non-empty and hold no control
    character, binary cells must be the literal characters 0/1, labels
    must parse, continuous cells must be finite, non-empty plain
    numbers without digit separators or surrounding blanks (labels are
    what this package imputes, never feature values). Lines end at a line
    feed, a carriage return or both; no other character breaks a line.
    """
    with open(path, "rb") as fh:
        lines = decode_text(fh.read()).split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedRow(1, "empty file, header expected")
    if lines[0].startswith("\ufeff"):
        raise MalformedRow(1, "file starts with a UTF-8 byte-order mark (U+FEFF); save it without one")
    header = lines[0].split(",")
    expected = schema.header()
    for i in range(max(len(header), len(expected))):
        exp = expected[i] if i < len(expected) else "<end of schema>"
        got = header[i] if i < len(header) else "<end of header>"
        if exp != got:
            raise SchemaMismatch(exp, got)

    n_bin = len(schema.binary_names)
    n_cont = len(schema.continuous_names)
    ids: list[str] = []
    labels: list[Label] = []
    bin_rows: list[str] = []
    cont_rows: list[list[float]] = []
    seen: set[str] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(expected):
            raise MalformedRow(
                line_no, f"expected {len(expected)} cells, found {len(cells)}"
            )
        rid = cells[0]
        if rid == "":
            raise MalformedRow(line_no, "record id must be non-empty")
        if _CONTROL_RE.search(rid):
            raise MalformedRow(line_no, f"record id {rid!r} holds a control character")
        if rid in seen:
            raise DuplicateId(rid)
        seen.add(rid)
        try:
            label = Label.parse(cells[1])
        except ValueError:
            raise MalformedRow(
                line_no, f"label must be POS/NEG/UNKNOWN, found {cells[1]!r}"
            ) from None
        bits = cells[2 : 2 + n_bin]
        if not _BITS.issuperset(bits):
            for name, cell in zip(schema.binary_names, bits):
                if cell not in _BITS:
                    raise MalformedRow(
                        line_no, f"binary cell for {name!r} must be 0 or 1, found {cell!r}"
                    )
        crow = []
        for name, cell in zip(schema.continuous_names, cells[2 + n_bin :]):
            if cell == "":
                raise MalformedRow(
                    line_no, f"empty continuous cell for {name!r} (feature cells are required)"
                )
            # float() would also read "1_0" as 10.0 and ignore surrounding blanks
            if "_" in cell or cell != cell.strip():
                raise MalformedRow(
                    line_no, f"continuous cell for {name!r} is not a plain number: {cell!r}"
                )
            try:
                value = float(cell)
            except ValueError:
                raise MalformedRow(
                    line_no, f"continuous cell for {name!r} is not a number: {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise MalformedRow(
                    line_no, f"continuous cell for {name!r} must be finite, found {cell!r}"
                )
            crow.append(value)
        ids.append(rid)
        labels.append(label)
        bin_rows.append("".join(bits))
        cont_rows.append(crow)

    binary = np.frombuffer("".join(bin_rows).encode(), np.uint8) - ord("0")
    continuous = np.array(cont_rows, dtype=np.float64).reshape(len(ids), n_cont)
    return Cohort.make(schema, ids, binary.reshape(len(ids), n_bin), continuous, labels)


def write_cohort(cohort: Cohort, path) -> None:
    """Write a cohort file; exact inverse of load_cohort.

    Continuous cells use repr() so float64 values round-trip bit-for-bit.
    Record ids must be non-empty and hold no comma, which delimits cells,
    and no control character, which includes the line breaks.
    """
    for rid in cohort.ids:
        if rid == "" or "," in rid or _CONTROL_RE.search(rid):
            raise ValueError(f"record id {rid!r} cannot be written as a cohort cell")
    n_bin = len(cohort.schema.binary_names)
    bits = (cohort.binary + ord("0")).tobytes().decode()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cohort.schema.header()) + "\n")
        rows = zip(cohort.ids, cohort.labels, cohort.continuous.tolist())
        for i, (rid, label, cont) in enumerate(rows):
            cells = [rid, label.value, *bits[i * n_bin : (i + 1) * n_bin], *map(repr, cont)]
            fh.write(",".join(cells) + "\n")
