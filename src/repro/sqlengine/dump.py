"""Database persistence: dump and restore the catalog as a directory.

The format is deliberately boring and inspectable:

* ``<dir>/catalog.json`` — tables (schemas), views (SQL text),
  sequences (next value), indexes;
* ``<dir>/<table>.tsv``  — one tab-separated file per table, typed via
  the schema (NULL as ``\\N``, dates ISO).

The mining system uses this to persist output-rule relations across
sessions — the integration property the decoupled architecture lacks.
"""

from __future__ import annotations

import datetime
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.sqlengine.catalog import Index, View
from repro.sqlengine.engine import Database
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.render import render_select
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType

_NULL = "\\N"
#: the escapes ``_serialize`` writes inside string fields
_ESCAPE = re.compile(r"\\([\\tn])")
_UNESCAPED = {"\\": "\\", "t": "\t", "n": "\n"}


def dump_database(database: Database, directory: Union[str, Path]) -> Path:
    """Write the full catalog + data under *directory* (created if
    needed); returns the directory path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest: Dict[str, Any] = {
        "format": 1,
        "tables": [],
        "views": [],
        "sequences": [],
        "indexes": [],
        "variables": _jsonable_variables(database.variables),
    }

    for table in database.catalog.tables():
        manifest["tables"].append(
            {
                "name": table.name,
                "columns": list(table.columns),
                "types": [t.value if t else None for t in table.types],
                "rows": len(table),
            }
        )
        _write_rows(directory / f"{table.name}.tsv", table)

    for view in database.catalog.views():
        manifest["views"].append(
            {"name": view.name, "sql": render_select(view.select)}
        )
    for sequence_name in _sequence_names(database):
        sequence = database.catalog.get_sequence(sequence_name)
        manifest["sequences"].append(
            {"name": sequence.name, "next": sequence.next_value}
        )
    for index in database.catalog._indexes.values():
        manifest["indexes"].append(
            {
                "name": index.name,
                "table": index.table,
                "columns": list(index.columns),
            }
        )

    with open(directory / "catalog.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return directory


def load_database(directory: Union[str, Path]) -> Database:
    """Rebuild a :class:`Database` from a dump directory."""
    directory = Path(directory)
    with open(directory / "catalog.json", "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != 1:
        raise ValueError(f"unsupported dump format: {manifest.get('format')}")

    database = Database()
    for entry in manifest["tables"]:
        types = [SqlType(t) if t else None for t in entry["types"]]
        table = Table(entry["name"], entry["columns"], types)
        _read_rows(directory / f"{entry['name']}.tsv", table)
        if len(table) != entry["rows"]:
            raise ValueError(
                f"dump corrupt: {entry['name']} has {len(table)} rows, "
                f"manifest says {entry['rows']}"
            )
        database.catalog.create_table(table)
    for entry in manifest["views"]:
        select = parse_sql(entry["sql"])
        database.catalog.create_view(View(entry["name"], select))
    for entry in manifest["sequences"]:
        database.catalog.create_sequence(entry["name"], entry["next"])
    for entry in manifest["indexes"]:
        database.catalog.create_index(
            Index(entry["name"], entry["table"], tuple(entry["columns"]))
        )
    database.variables.update(manifest.get("variables", {}))
    return database


def dump_table_text(database: Database, table_name: str) -> str:
    """Deterministic text rendering of one table: a header line with
    the column names, then the data rows in sorted order, tab-separated
    with the dump serialization.  This is the format of the golden-file
    tests: bit-identical across runs iff the table contents are."""
    table = database.catalog.get_table(table_name)
    lines = ["\t".join(str(column) for column in table.columns)]
    lines.extend(
        sorted(
            "\t".join(_serialize(value) for value in row)
            for row in table.rows
        )
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def _sequence_names(database: Database) -> List[str]:
    return [s.name for s in database.catalog._sequences.values()]


def _jsonable_variables(variables: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for key, value in variables.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
    return out


def _write_rows(path: Path, table: Table) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in table.rows:
            handle.write(
                "\t".join(_serialize(value) for value in row) + "\n"
            )


def _serialize(value: Any) -> str:
    if value is None:
        return _NULL
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return (
            value.replace("\\", "\\\\")
            .replace("\t", "\\t")
            .replace("\n", "\\n")
        )
    return str(value)


def _read_rows(path: Path, table: Table) -> None:
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            values = [
                _deserialize(field, table.types[i])
                for i, field in enumerate(fields)
            ]
            table.rows.append(tuple(values))


def _deserialize(field: str, sql_type: Optional[SqlType]) -> Any:
    if field == _NULL:
        return None
    if sql_type is SqlType.INTEGER:
        return int(field)
    if sql_type is SqlType.REAL:
        return float(field)
    if sql_type is SqlType.DATE:
        return datetime.date.fromisoformat(field)
    if sql_type is SqlType.BOOLEAN:
        return field == "true"
    # one left-to-right pass: chained replaces would take the second
    # half of an escaped backslash followed by "t" for an escaped tab
    return _ESCAPE.sub(lambda match: _UNESCAPED[match.group(1)], field)
