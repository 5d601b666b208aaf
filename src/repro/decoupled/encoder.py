"""Step 2 of the decoupled workflow: tool-side data preparation.

The standalone tool cannot push encoding into the DBMS, so it
rebuilds dictionaries in memory from the flat file: distinct groups
get consecutive numbers, distinct items likewise, and the transactions
are assembled as id sets.  This duplicates — outside the database —
exactly the work the tightly-coupled preprocessor performs with
queries Q2/Q3/Q4.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet

from repro.decoupled.extractor import parse_flat_file


@dataclass
class EncodedDataset:
    """The tool's in-memory representation."""

    groups: Dict[int, FrozenSet[int]]
    group_labels: Dict[int, str]
    item_labels: Dict[int, str]

    @property
    def group_count(self) -> int:
        return len(self.groups)


class FlatFileEncoder:
    """Builds the tool-side encoding from an extracted flat file."""

    def encode(
        self, path: Path, group_column: str, item_column: str
    ) -> EncodedDataset:
        """Read the file and encode (group, item) pairs.

        Raises :class:`ValueError` when the named columns are missing —
        the decoupled analyst gets no data-dictionary help.
        """
        header, rows = parse_flat_file(path)
        try:
            group_index = header.index(group_column)
            item_index = header.index(item_column)
        except ValueError:
            raise ValueError(
                f"flat file lacks required columns "
                f"{group_column!r}/{item_column!r}; header: {header}"
            ) from None

        group_ids: Dict[str, int] = {}
        item_ids: Dict[str, int] = {}
        members: Dict[int, set] = {}
        for fields in rows:
            group_key = fields[group_index]
            item_key = fields[item_index]
            gid = group_ids.setdefault(group_key, len(group_ids) + 1)
            iid = item_ids.setdefault(item_key, len(item_ids) + 1)
            members.setdefault(gid, set()).add(iid)

        return EncodedDataset(
            groups={gid: frozenset(items) for gid, items in members.items()},
            group_labels={gid: label for label, gid in group_ids.items()},
            item_labels={iid: label for label, iid in item_ids.items()},
        )
