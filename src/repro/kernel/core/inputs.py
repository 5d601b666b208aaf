"""Loading the encoded tables into the core operator's structures.

The core operator "works on the Encoded Tables, prepared by the
preprocessor" (Section 3).  This module is the read side of that
interface: it reads the columns of ``CodedSource`` (on the general path
the ``MiningSource`` table behind it), ``ClusterCouples`` and
``InputRules`` straight from the catalog — no SQL statement, no row
tuples — and shapes them for the two mining variants.  No source
attribute ever crosses this boundary — only group, cluster and item
identifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, product
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.algorithms.base import MinerInput
from repro.algorithms.bitset import VerticalInput
from repro.kernel.program import CoreDirectives
from repro.sqlengine.engine import Database

#: one group's valid (body cluster, head cluster) pairs, as two
#: parallel columns of cluster keys
ClusterPairs = Tuple[Sequence[Hashable], Sequence[Hashable]]
#: (body cluster, head cluster) -> the (body item, head item) pairs
#: ``InputRules`` holds for that triple
RulePairs = Dict[Tuple[Hashable, Hashable], Set[Tuple[int, int]]]


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
    """Input of the general core variant, keyed by cluster.

    A *cluster key* is a cluster's ``Cid`` under CLUSTER BY, else the
    group id (the whole group is the one body and head cluster).
    ``clusters`` maps each group of ``CodedSource`` to its cluster keys
    (both in first-appearance order), ``body_clusters`` /
    ``head_clusters`` a cluster key to the item ids occurring there (one
    object when body and head share the schema).  ``triples`` holds
    each group's valid cluster pairs (all of them without a cluster
    condition), whose elementary rules the core derives; ``input_rules``
    each group's elementary rules by triple when the mining condition
    was evaluated in SQL (Q8..Q10) instead."""

    totg: int
    min_count: int
    same_schema: bool
    clustered: bool
    clusters: Dict[int, List[Hashable]]
    body_clusters: Dict[Hashable, Set[int]]
    head_clusters: Dict[Hashable, Set[int]]
    triples: Dict[int, ClusterPairs]
    input_rules: Optional[Dict[int, RulePairs]] = None

    @property
    def groups(self):
        """The group keys, in first-appearance order."""
        return self.clusters.keys()


def _every_pair(clusters: Dict[int, List[Hashable]]) -> Dict[int, ClusterPairs]:
    """Every (body cluster, head cluster) pair of each group: the
    triples when no cluster condition restricts them."""
    return {gid: tuple(zip(*product(keys, repeat=2)))
            for gid, keys in clusters.items()}


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

    def _columns(self, table_name: str, names: Sequence[str]) -> List[Any]:
        """The named columns of *table_name* as a scan reads them, one
        per name (a repeated name gives the same column): a NULL-free
        int column such as ``Gid`` / ``Bid`` is a copy of its
        ``array('q')``, which indexes, slices and iterates like the
        list of its values."""
        table = self._db.catalog.get_table(table_name)
        positions = [table.column_index(name) for name in names]
        lists = table.column_lists(sorted(set(positions)))
        return [lists[position] for position in positions]

    def load_simple_columns(
        self,
    ) -> Tuple[SimpleInput, Tuple[Sequence[int], Sequence[int]]]:
        """The simple core's loader: the ``Gid``/``Bid`` columns of
        ``CodedSource`` read as arrays (no SQL statement, no row tuples)
        and turned into the pool's vertical input in one pass.  The
        columns come back beside it for whoever observes the boundary.
        """
        gid_col, bid_col = self._columns(
            self._directives.coded_source, ("Gid", "Bid")
        )
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
        """The general core's loader: the columns ``Gid[, Cid],
        Bid[, Hid]``, ``ClusterCouples`` and ``InputRules`` turned into
        per-cluster item sets and per-group triples, one pass each."""
        directives = self._directives
        totg, min_count = self.thresholds()
        cluster = "Cid" if directives.clustered else "Gid"
        head = "Bid" if directives.same_schema else "Hid"
        gids, cids, bids, hids = self._columns(
            directives.coded_source, ("Gid", cluster, "Bid", head)
        )
        group_of = dict(zip(cids, gids))  # first-appearance order
        clusters: Dict[int, List[Hashable]] = {}
        for key, gid in group_of.items():
            clusters.setdefault(gid, []).append(key)

        def items_of(ids: List[Optional[int]]) -> Dict[Hashable, Set[int]]:
            by_cluster: Dict[Hashable, Set[int]] = {k: set() for k in group_of}
            for key, item in zip(cids, ids):
                by_cluster[key].add(item)
            for items in by_cluster.values():
                items.discard(None)  # the other side's rows (outer join)
            return by_cluster

        body_clusters = items_of(bids)
        head_clusters = body_clusters if head == "Bid" else items_of(hids)

        triples: Dict[int, ClusterPairs] = {}
        input_rules: Optional[Dict[int, RulePairs]] = None
        if directives.input_rules is not None:
            input_rules = {}
            pair = ("BCid", "HCid") if directives.clustered else ("Gid", "Gid")
            for gid, bc, hc, bid, hid in zip(*self._columns(
                directives.input_rules, ("Gid", *pair, "Bid", "Hid")
            )):
                input_rules.setdefault(gid, {}).setdefault(
                    (bc, hc), set()
                ).add((bid, hid))
        elif directives.cluster_couples is not None:
            gids, bcs, hcs = self._columns(
                directives.cluster_couples, ("Gid", "BCid", "HCid")
            )
            start = 0  # Q7 emits a group's couples together: a slice a run
            for gid, run in groupby(gids):
                end = start + len(list(run))
                if gid in triples:
                    triples[gid][0].extend(bcs[start:end])
                    triples[gid][1].extend(hcs[start:end])
                else:
                    triples[gid] = (bcs[start:end], hcs[start:end])
                start = end
        else:
            triples = _every_pair(clusters)
        return GeneralInput(
            totg=totg,
            min_count=min_count,
            same_schema=directives.same_schema,
            clustered=directives.clustered,
            clusters=clusters,
            body_clusters=body_clusters,
            head_clusters=head_clusters,
            triples=triples,
            input_rules=input_rules,
        )


def min_group_count(min_support: float, totg: int) -> int:
    """The smallest group count whose support ratio reaches
    *min_support* (at least 1): ``ceil(min_support * totg)`` with a
    guard against float fuzz."""
    return max(1, math.ceil(min_support * totg - 1e-9))
