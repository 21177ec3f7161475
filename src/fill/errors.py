"""Exception types shared across the package.

Every error raised by library code derives from FillError so callers can
catch one base class at the CLI boundary.
"""


class FillError(Exception):
    pass


# --- cohort / file parsing ---

class MalformedRow(FillError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateId(FillError):
    def __init__(self, record_id: str):
        super().__init__(f"duplicate record id {record_id!r}")
        self.record_id = record_id


class SchemaMismatch(FillError):
    def __init__(self, expected: str, found: str):
        super().__init__(f"expected column {expected!r}, found {found!r}")
        self.expected = expected
        self.found = found


class NoLabeledRecords(FillError):
    pass


class EmptyMeasurements(FillError):
    pass


class OutOfRange(FillError):
    def __init__(self, value):
        super().__init__(f"measurement {value!r} outside [0, 100]")
        self.value = value


# --- distances ---

class LengthMismatch(FillError):
    pass


class IncompatibleMetric(FillError):
    pass


class MatrixTooLarge(FillError):
    """An n x n distance matrix over `distance.MATRIX_LIMIT_BYTES`."""


# --- statistics ---

class InvalidArguments(FillError):
    pass


class DegenerateTable(FillError):
    pass


class InsufficientSample(FillError):
    pass


class ZeroVarianceBoth(FillError):
    pass


# --- classification ---

class UnknownRecord(FillError):
    def __init__(self, record_id: str):
        super().__init__(f"record id {record_id!r} not in cohort")
        self.record_id = record_id


class ModelCohortMismatch(FillError):
    pass


# --- tuning ---

class TooFewLabeled(FillError):
    pass


class EmptyGrid(FillError):
    pass


class InvalidGrid(FillError, ValueError):
    """A radius below 0 or NaN, or a threshold outside (0, 1]."""


class NoFeasibleCell(FillError):
    """No grid cell satisfies the criterion; carries the evaluated grid."""

    def __init__(self, grid):
        super().__init__("no grid cell satisfies the search criterion")
        self.grid = grid


# --- explanation ---

class EmptyNeighborhood(FillError):
    pass


class EmptyComplement(FillError):
    pass


class UnwritableName(FillError):
    """A record id that cannot be part of an output file name."""


# --- baseline ---

class SingleClass(FillError):
    pass


class Diverged(FillError):
    pass


# --- synthetic data / CLI ---

class InvalidSpec(FillError):
    pass


class UsageError(FillError):
    pass
