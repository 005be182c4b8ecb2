"""Write-ahead log records and their on-wire sizing.

A record's byte size is what the storage stack sees; the structured fields
are what recovery and replication apply.  Sizing: a fixed header plus the
key and value footprints — small for OLTP updates, matching the
observation the paper cites that OLTP log records are well under 20 KB.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

# Header: LSN + txn id + kind + table id + lengths.
RECORD_HEADER_BYTES = 32


class RecordKind(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"


def _footprint(value):
    """Approximate serialized size of a key or value."""
    if value is None:
        return 0
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8", errors="replace"))
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (tuple, list)):
        return sum(_footprint(item) for item in value)
    if isinstance(value, dict):
        return sum(
            _footprint(k) + _footprint(v) for k, v in value.items()
        )
    return 16  # opaque object: pointer-ish placeholder


def record_bytes(record):
    """Serialized size of ``record`` in bytes."""
    return (
        RECORD_HEADER_BYTES
        + _footprint(record.key)
        + _footprint(record.value)
    )


@dataclass(frozen=True)
class LogRecord:
    """One WAL entry."""

    lsn: int
    txn_id: int
    kind: RecordKind
    table: str = ""
    key: object = None
    value: object = None

    @cached_property
    def nbytes(self):
        # Sized once: the WAL reads it at enqueue, group take and batch
        # build, and the fields never change (the record is frozen).
        return record_bytes(self)

    def is_data(self):
        return self.kind in (RecordKind.INSERT, RecordKind.UPDATE,
                             RecordKind.DELETE)
