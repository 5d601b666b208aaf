"""Chunk-size smoke: the Appendix-A golden statements at two chunk sizes.

This module re-runs every golden statement of
``tests/integration/golden/`` with

* the executor's ``CHUNK_ROWS`` (``default_batch``), and
* ``CHUNK_ROWS`` patched to 16 (``batch_16``), so every sizable filter
  runs many kernel passes and a theta join many candidate chunks,

and compares the dumped output relations byte-for-byte against the
checked-in goldens: the chunk size cuts the work and never changes an
answer or its order.
"""

import pytest

from repro import Database, MiningSystem
from repro.datagen import load_purchase_figure1
from repro.sqlengine import vector
from repro.sqlengine.dump import dump_table_text

from tests.integration.test_golden_outputs import (
    GOLDEN_DIR,
    GOLDEN_STATEMENTS,
)

#: configuration id -> ``CHUNK_ROWS`` (the ids predate the constant)
CONFIGURATIONS = {
    "default_batch": vector.CHUNK_ROWS,
    "batch_16": 16,
}


@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_goldens_at_each_batch_size(name, config, monkeypatch):
    monkeypatch.setattr(vector, "CHUNK_ROWS", CONFIGURATIONS[config])
    database = Database()
    load_purchase_figure1(database)
    system = MiningSystem(database=database)
    result = system.run(GOLDEN_STATEMENTS[name])
    out = result.output_table

    mismatches = []
    for table in (out, f"{out}_Bodies", f"{out}_Heads", f"{out}_Display"):
        text = dump_table_text(database, table)
        path = GOLDEN_DIR / f"{name}__{table}.golden.txt"
        assert path.exists(), f"golden file {path.name} missing"
        expected = path.read_text(encoding="utf-8")
        if text != expected:
            mismatches.append(
                f"{table} ({config}):\n--- expected\n{expected}"
                f"--- actual\n{text}"
            )
    assert not mismatches, "\n".join(mismatches)
