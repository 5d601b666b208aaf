"""Step 1 of the decoupled workflow: extract data to a flat file.

The analyst writes an extraction query by hand; the result set is
serialized to a delimiter-separated text file, because that is the
format the standalone tool ingests.  (This serialization/parse
round-trip is part of the cost the tightly-coupled architecture
eliminates — the benchmark measures it honestly.)
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import List

from repro.sqlengine.engine import Database

#: field separator of the flat format
SEPARATOR = "\t"


class FlatFileExtractor:
    """Runs extraction queries and writes flat files."""

    def __init__(self, database: Database):
        self._db = database

    def extract(self, query: str, destination: Path) -> int:
        """Execute *query* and dump the rows; returns the row count."""
        result = self._db.execute(query)
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(SEPARATOR.join(result.columns) + "\n")
            for row in result.rows:
                handle.write(
                    SEPARATOR.join(_serialize(value) for value in row) + "\n"
                )
        return len(result.rows)


def _serialize(value: object) -> str:
    if value is None:
        return "\\N"
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_flat_file(path: Path) -> (List[str], List[List[str]]):
    """Re-read a flat file as header + raw string fields."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(SEPARATOR)
        rows = [
            line.rstrip("\n").split(SEPARATOR)
            for line in handle
            if line.strip()
        ]
    return header, rows
