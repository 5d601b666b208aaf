"""The general core's input as the tests write and read it.

:func:`from_items` builds a :class:`GeneralInput` from nested maps, the
shape a test case is easiest to write in; :func:`reference_view` turns
any input — built here or loaded from the encoded tables — back into
those maps, the shape :func:`tests.minerule_reference.general_core`
reads.  The program itself never builds or reads this view.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, NamedTuple, Optional
from typing import Sequence, Set, Tuple

from repro.kernel.core.inputs import GeneralInput, _every_pair

#: group -> cluster -> item ids: the nested shape of the reference view
NestedItems = Dict[int, Dict[Any, Set[int]]]


def from_items(
    totg: int, min_count: int, body_items: NestedItems,
    head_items: Optional[NestedItems] = None,
    cluster_pairs: Optional[Dict[int, Set[Tuple[Any, Any]]]] = None,
    elementary: Optional[Sequence[Tuple]] = None,
    same_schema: bool = True, clustered: bool = False,
) -> GeneralInput:
    """The input whose reference view is the given nested maps, up to
    cluster keys (``(group, cluster)`` here): *head_items* defaults to
    *body_items*, *cluster_pairs* to every pair, and *elementary*
    (``(group, body cluster, head cluster, body item, head item)``
    rows) to None, the derived path.  As in the loaded tables, a row's
    items occur in its clusters."""
    def flat(nested: NestedItems) -> Dict[Hashable, Set[int]]:
        return {(gid, cid): set(items) for gid, by_cluster in
                nested.items() for cid, items in by_cluster.items()}

    body = flat(body_items)
    head = body if head_items is None else flat(head_items)
    clusters: Dict[int, List[Hashable]] = {}
    for key in dict.fromkeys([*body, *head]):
        clusters.setdefault(key[0], []).append(key)
    triples, input_rules = _every_pair(clusters), None
    if elementary is not None:
        triples, input_rules = {}, {}
        for gid, bc, hc, bid, hid in elementary:
            input_rules.setdefault(gid, {}).setdefault(
                (bc, hc), set()
            ).add((bid, hid))
    elif cluster_pairs is not None:
        triples = {
            gid: tuple(zip(*(((gid, bc), (gid, hc)) for bc, hc in pairs)))
            for gid, pairs in cluster_pairs.items() if pairs
        }
    return GeneralInput(
        totg=totg,
        min_count=min_count,
        same_schema=same_schema,
        clustered=clustered,
        clusters=clusters,
        body_clusters=body,
        head_clusters=head,
        triples=triples,
        input_rules=input_rules,
    )


class ReferenceView(NamedTuple):
    """A :class:`GeneralInput` as nested maps: ``body_items`` /
    ``head_items`` (group -> cluster -> items), ``cluster_pairs``
    (group -> set of cluster pairs), ``elementary`` (the ``(group, body
    cluster, head cluster, body item, head item)`` rows, None on the
    derived path) and the input's thresholds."""

    totg: int
    min_count: int
    same_schema: bool
    body_items: NestedItems
    head_items: NestedItems
    cluster_pairs: Dict[int, Set[Tuple[Hashable, Hashable]]]
    elementary: Optional[List[Tuple]]


def _nested(
    data: GeneralInput, items_of: Dict[Hashable, Set[int]]
) -> NestedItems:
    nested = {gid: {key: items_of[key] for key in keys if items_of.get(key)}
              for gid, keys in data.clusters.items()}
    return {gid: by_cluster for gid, by_cluster in nested.items()
            if by_cluster}


def reference_view(data: GeneralInput) -> ReferenceView:
    """The nested view of *data*."""
    elementary = None
    if data.input_rules is not None:
        elementary = [(gid, bc, hc, bid, hid)
                      for gid, by_triple in data.input_rules.items()
                      for (bc, hc), pairs in by_triple.items()
                      for bid, hid in pairs]
    return ReferenceView(
        totg=data.totg,
        min_count=data.min_count,
        same_schema=data.same_schema,
        body_items=_nested(data, data.body_clusters),
        head_items=_nested(data, data.head_clusters),
        cluster_pairs={gid: set(zip(*pairs))
                       for gid, pairs in data.triples.items()},
        elementary=elementary,
    )
