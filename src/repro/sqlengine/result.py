"""Query results.

:class:`Result` is a small immutable container holding the output
columns and row tuples of a statement, with convenience accessors used
throughout the mining kernel, the tests and the examples.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.table import format_rows

Row = Tuple[Any, ...]


class Result:
    """Rows returned by a statement (empty for DDL/DML, which instead
    report :attr:`rowcount`)."""

    __slots__ = ("columns", "rows", "rowcount")

    def __init__(
        self,
        columns: Sequence[str] = (),
        rows: Sequence[Row] = (),
        rowcount: int = 0,
    ):
        self.columns: Tuple[str, ...] = tuple(columns)
        self.rows: List[Row] = list(rows)
        self.rowcount = rowcount if rowcount else len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def first(self) -> Optional[Row]:
        """The first row, or None when empty."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> List[Any]:
        """All values of one output column."""
        try:
            idx = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(
                f"no output column {name!r} (have {', '.join(self.columns)})"
            ) from None
        return [row[idx] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def pretty(self, limit: Optional[int] = None) -> str:
        """ASCII rendering (column header + rows)."""
        if not self.columns:
            return format_rows(("?",), [], limit)
        return format_rows(self.columns, self.rows, limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Result(columns={self.columns}, rows={len(self.rows)})"
