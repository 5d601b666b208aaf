"""Loading the encoded tables into the core operator's structures.

The core operator "works on the Encoded Tables, prepared by the
preprocessor" (Section 3).  This module is the read side of that
interface: it pulls ``CodedSource``, ``ClusterCouples`` and
``InputRules`` out of the database and shapes them for the two mining
variants.  No source attribute ever crosses this boundary — only
group, cluster and item identifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.algorithms.base import MinerInput
from repro.algorithms.bitset import VerticalInput
from repro.kernel.program import CoreDirectives
from repro.sqlengine.engine import Database

#: the pseudo cluster id used when no CLUSTER BY is present: the whole
#: group acts as the single body and head cluster.
WHOLE_GROUP_CLUSTER = 0


@dataclass
class SimpleInput:
    """Input of the simple core variant: thresholds and encoded
    groups — the pool's vertical input, or the reference loader's
    ``gid -> items`` map (``mine()`` takes both)."""

    totg: int
    min_count: int
    groups: MinerInput


@dataclass
class GeneralInput:
    """Input of the general core variant.

    ``body_items`` / ``head_items`` map group id -> cluster id -> item
    ids occurring there (from ``CodedSource``); ``cluster_pairs`` is
    the decoded ``ClusterCouples`` table (None when every pair is
    valid); ``elementary`` carries the SQL-precomputed elementary rules
    of ``InputRules`` (None when the mining condition is absent and the
    core derives them itself, Section 4.3.2)."""

    totg: int
    min_count: int
    same_schema: bool
    clustered: bool
    body_items: Dict[int, Dict[int, Set[int]]]
    head_items: Dict[int, Dict[int, Set[int]]]
    cluster_pairs: Optional[Dict[int, Set[Tuple[int, int]]]]
    elementary: Optional[List[Tuple[int, int, int, int, int]]]

    def group_cluster_pairs(self, gid: int) -> List[Tuple[int, int]]:
        """Valid (body cluster, head cluster) pairs of one group."""
        if self.cluster_pairs is not None:
            return sorted(self.cluster_pairs.get(gid, ()))
        body_clusters = self.body_items.get(gid, {})
        head_clusters = self.head_items.get(gid, {})
        return [
            (bc, hc)
            for bc in sorted(body_clusters)
            for hc in sorted(head_clusters)
        ]


class CoreInputLoader:
    """Reads encoded tables according to the translator directives."""

    def __init__(self, database: Database, directives: CoreDirectives):
        self._db = database
        self._directives = directives

    # ------------------------------------------------------------------

    def thresholds(self) -> Tuple[int, int]:
        """(totg, min group count) as prepared by the preprocessor."""
        totg = int(self._db.variables["totg"])
        min_count = int(self._db.variables["mingroups"])
        return totg, min_count

    def load_simple_columns(
        self,
    ) -> Tuple[SimpleInput, Tuple[List[int], List[int]]]:
        """The simple core's loader: the ``Gid``/``Bid`` columns of
        ``CodedSource`` read as lists (no SQL statement, no row tuples)
        and turned into the pool's vertical input in one pass.  The
        columns come back beside it for whoever observes the boundary.
        """
        table = self._db.catalog.get_table(self._directives.coded_source)
        gid_position = table.column_index("Gid")
        bid_position = table.column_index("Bid")
        lists = table.column_lists((gid_position, bid_position))
        gid_col, bid_col = lists[gid_position], lists[bid_position]
        totg, min_count = self.thresholds()
        data = SimpleInput(
            totg=totg,
            min_count=min_count,
            groups=VerticalInput.from_columns(gid_col, bid_col),
        )
        return data, (gid_col, bid_col)

    def load_simple(self) -> SimpleInput:
        """The reference loader: SQL scan of ``CodedSource`` folded
        into a ``gid -> frozenset`` map.  The program does not call it
        (:meth:`load_simple_columns` is the loader); the kernel's
        differential test compares against it."""
        totg, min_count = self.thresholds()
        groups: Dict[int, Set[int]] = {}
        for gid, bid in self._db.query(
            f"SELECT Gid, Bid FROM {self._directives.coded_source}"
        ):
            groups.setdefault(gid, set()).add(bid)
        return SimpleInput(
            totg=totg,
            min_count=min_count,
            groups={gid: frozenset(items) for gid, items in groups.items()},
        )

    def load_general(self) -> GeneralInput:
        directives = self._directives
        totg, min_count = self.thresholds()

        clustered = directives.clustered
        has_hid = not directives.same_schema

        columns = ["Gid"]
        if clustered:
            columns.append("Cid")
        columns.append("Bid")
        if has_hid:
            columns.append("Hid")
        rows = self._db.query(
            f"SELECT {', '.join(columns)} FROM {directives.coded_source}"
        )

        # One tuple-unpacking loop per statement shape: the row layout
        # is fixed by the SELECT above, so per-row list copies and
        # pops only re-discover what the directives already say.
        body_items: Dict[int, Dict[int, Set[int]]] = {}
        head_items: Dict[int, Dict[int, Set[int]]] = {}
        if clustered and has_hid:
            for gid, cid, bid, hid in rows:
                if bid is not None:
                    body_items.setdefault(gid, {}).setdefault(
                        cid, set()
                    ).add(bid)
                if hid is not None:
                    head_items.setdefault(gid, {}).setdefault(
                        cid, set()
                    ).add(hid)
        elif clustered:
            for gid, cid, bid in rows:
                if bid is not None:
                    body_items.setdefault(gid, {}).setdefault(
                        cid, set()
                    ).add(bid)
                    head_items.setdefault(gid, {}).setdefault(
                        cid, set()
                    ).add(bid)
        elif has_hid:
            for gid, bid, hid in rows:
                if bid is not None:
                    body_items.setdefault(gid, {}).setdefault(
                        WHOLE_GROUP_CLUSTER, set()
                    ).add(bid)
                if hid is not None:
                    head_items.setdefault(gid, {}).setdefault(
                        WHOLE_GROUP_CLUSTER, set()
                    ).add(hid)
        else:
            for gid, bid in rows:
                if bid is not None:
                    body_items.setdefault(gid, {}).setdefault(
                        WHOLE_GROUP_CLUSTER, set()
                    ).add(bid)
                    head_items.setdefault(gid, {}).setdefault(
                        WHOLE_GROUP_CLUSTER, set()
                    ).add(bid)

        cluster_pairs: Optional[Dict[int, Set[Tuple[int, int]]]] = None
        if directives.cluster_couples is not None:
            cluster_pairs = {}
            for gid, bcid, hcid in self._db.query(
                f"SELECT Gid, BCid, HCid FROM {directives.cluster_couples}"
            ):
                cluster_pairs.setdefault(gid, set()).add((bcid, hcid))

        elementary: Optional[List[Tuple[int, int, int, int, int]]] = None
        if directives.input_rules is not None:
            elementary = []
            if clustered:
                for gid, bcid, hcid, bid, hid in self._db.query(
                    f"SELECT Gid, BCid, HCid, Bid, Hid "
                    f"FROM {directives.input_rules}"
                ):
                    elementary.append((gid, bcid, hcid, bid, hid))
            else:
                for gid, bid, hid in self._db.query(
                    f"SELECT Gid, Bid, Hid FROM {directives.input_rules}"
                ):
                    elementary.append(
                        (gid, WHOLE_GROUP_CLUSTER, WHOLE_GROUP_CLUSTER, bid, hid)
                    )

        return GeneralInput(
            totg=totg,
            min_count=min_count,
            same_schema=directives.same_schema,
            clustered=clustered,
            body_items=body_items,
            head_items=head_items,
            cluster_pairs=cluster_pairs,
            elementary=elementary,
        )


def min_group_count(min_support: float, totg: int) -> int:
    """The smallest group count whose support ratio reaches
    *min_support* (at least 1): ``ceil(min_support * totg)`` with a
    guard against float fuzz."""
    return max(1, math.ceil(min_support * totg - 1e-9))
