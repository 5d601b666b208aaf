"""Columnar smoke: the Appendix-A golden statements on column vectors.

The golden files in ``tests/integration/golden/`` were produced by the
row pipeline; this module re-runs every golden statement with

* the columnar workspace the preprocessor registers (vectorized batch
  executor over the encoded column vectors), and
* the same under a tiny ``memory_budget`` + small ``batch_size``
  (every sizable sort / join / aggregate goes through the spill
  operators)

and compares the dumped output relations byte-for-byte against the
same checked-in goldens — the PR's bit-identity contract, enforced on
the exact artifacts the row path is pinned to.
"""

import pytest

from repro import Database, MiningSystem
from repro.sqlengine import EngineOptions
from repro.datagen import load_purchase_figure1
from repro.sqlengine.dump import dump_table_text

from tests.integration.test_golden_outputs import (
    GOLDEN_DIR,
    GOLDEN_STATEMENTS,
)

CONFIGURATIONS = {
    "columnar": {},
    "columnar_spill": {"memory_budget": 2_000, "batch_size": 16},
}


@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_columnar_matches_row_goldens(name, config):
    database = Database(EngineOptions(**CONFIGURATIONS[config]))
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
