"""System catalog — persistent registry of clusters, indexes and metadata.

The catalog is itself stored in the engine (a dedicated heap file whose
first page is recorded in the page file's bootstrap area), so catalog
changes are transactional like everything else: creating a cluster inside a
transaction that aborts leaves no trace.

Catalog records are codec-encoded dicts. Two record shapes exist:

``{"kind": "cluster", ...}``
    One per cluster (the paper's type extents): name, numeric id, parent
    cluster names, the first page of the cluster's object heap, the root
    page of its object table (:mod:`repro.storage.objtable`), the first
    serial number older files had not handed out, and its secondary
    indexes (field name -> descriptor).

``{"kind": "meta", "key": ..., "value": ...}``
    Free-form key/value metadata used by the object layer (schema notes,
    database-level settings) and by :meth:`Catalog.reserve_serials`,
    which keeps each cluster's next unreserved serial under the key
    ``"serials:<cluster>"``.

``{"kind": "layout", "cluster": ..., "id": n, "fields": [...]}``
    One per record layout of a cluster: the field names, in order, that
    the values of an object record naming layout *n* belong to (see
    :mod:`repro.storage.records`). Written once, by the first
    transaction that stores a record in that layout, and never changed
    or removed.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import CatalogError
from .codec import decode_value, encode_value
from .heap import RID, HeapFile
from .journal import Journal
from .records import MAX_LAYOUTS


class IndexInfo:
    """Descriptor of one secondary index on one or more cluster fields.

    ``field`` is the registry name ("age", or "region,age" for a
    composite index); ``fields`` is the ordered list of indexed fields.
    Single-field indexes key on the field value; composite indexes key on
    the tuple of values, in declaration order. ``kind`` is ``"btree"``;
    ``"hash"`` survives only in files written before hash indexes became
    B+trees, until :mod:`repro.storage.upgrade` converts them at open.
    """

    __slots__ = ("field", "fields", "kind", "root_page", "unique")

    def __init__(self, field: str, kind: str, root_page: int, unique: bool,
                 fields: Optional[List[str]] = None):
        if kind not in ("btree", "hash"):
            raise CatalogError("unknown index kind %r" % kind)
        self.field = field
        self.fields = list(fields) if fields else [field]
        self.kind = kind
        self.root_page = root_page
        self.unique = unique

    @property
    def is_composite(self) -> bool:
        return len(self.fields) > 1

    def to_state(self) -> List:
        return [self.field, self.kind, self.root_page, self.unique,
                self.fields]

    @classmethod
    def from_state(cls, state: List) -> "IndexInfo":
        if len(state) == 4:  # records written before composite support
            field, kind, root_page, unique = state
            return cls(field, kind, root_page, unique)
        field, kind, root_page, unique, fields = state
        return cls(field, kind, root_page, unique, fields)


class ClusterInfo:
    """Catalog entry for one cluster (type extent).

    ``next_serial`` is where serial reservation stood when the record was
    last written by a binary that kept it here; reservations now live in
    a meta record of their own (:meth:`Catalog.reserve_serials`), and
    this field is only their floor.
    """

    __slots__ = ("name", "cluster_id", "parents", "heap_page",
                 "directory_page", "next_serial", "indexes", "_rid")

    def __init__(self, name: str, cluster_id: int, parents: List[str],
                 heap_page: int, directory_page: int, next_serial: int = 1,
                 indexes: Optional[Dict[str, IndexInfo]] = None,
                 rid: Optional[RID] = None):
        self.name = name
        self.cluster_id = cluster_id
        self.parents = list(parents)
        self.heap_page = heap_page
        self.directory_page = directory_page
        self.next_serial = next_serial
        self.indexes = indexes if indexes is not None else {}
        self._rid = rid

    def to_record(self) -> bytes:
        return encode_value({
            "kind": "cluster",
            "name": self.name,
            "cluster_id": self.cluster_id,
            "parents": self.parents,
            "heap_page": self.heap_page,
            "directory_page": self.directory_page,
            "next_serial": self.next_serial,
            "indexes": {f: ix.to_state() for f, ix in self.indexes.items()},
        })

    @classmethod
    def from_record(cls, raw: bytes, rid: RID) -> "ClusterInfo":
        state = decode_value(raw)
        indexes = {f: IndexInfo.from_state(s)
                   for f, s in state["indexes"].items()}
        return cls(state["name"], state["cluster_id"], state["parents"],
                   state["heap_page"], state["directory_page"],
                   state["next_serial"], indexes, rid)


class Catalog:
    """In-memory view of the catalog heap, with transactional updates."""

    BOOTSTRAP_KEY = "catalog_heap"

    def __init__(self, journal: Journal, pagefile, txn_factory):
        """Open (creating on first use) the catalog.

        *txn_factory* is a zero-argument callable yielding a short
        transaction (begin) and is only used for first-time creation.
        """
        self._journal = journal
        self._pagefile = pagefile
        #: The catalog's own lock, *above* the pool latch in the lock
        #: order (catalog lock -> pool latch via the catalog heap's page
        #: pins) — never the other way.
        self._lock = threading.RLock()
        first_page = pagefile.get_root(self.BOOTSTRAP_KEY)
        if first_page == 0:
            txn = txn_factory()
            heap = HeapFile.create(journal, txn)
            journal.commit(txn)
            pagefile.set_root(self.BOOTSTRAP_KEY, heap.first_page)
            self._heap = heap
        else:
            self._heap = HeapFile(journal, first_page)
        self._clusters: Dict[str, ClusterInfo] = {}
        self._meta_rids: Dict = {}
        self._meta: Dict = {}
        #: cluster -> its layouts, indexed by layout id; and cluster ->
        #: {fields: layout id}. Read without the lock (single dict
        #: reads); both only ever grow, and a reload keeps them.
        self._layouts: Dict[str, List[Tuple[str, ...]]] = {}
        self._layout_ids: Dict[str, Dict[Tuple[str, ...], int]] = {}
        self._next_cluster_id = 1
        self._reload()

    def _reload(self) -> None:
        self._clusters.clear()
        self._meta.clear()
        self._meta_rids.clear()
        self._next_cluster_id = 1
        for rid, raw in self._heap.scan():
            state = decode_value(raw)
            if state["kind"] == "layout":
                self._add_layout(state["cluster"], state["id"],
                                 tuple(state["fields"]))
            elif state["kind"] == "cluster":
                info = ClusterInfo.from_record(raw, rid)
                self._clusters[info.name] = info
                self._next_cluster_id = max(self._next_cluster_id,
                                            info.cluster_id + 1)
            elif state["kind"] == "meta":
                self._meta[state["key"]] = state["value"]
                self._meta_rids[state["key"]] = rid
            else:
                raise CatalogError("unknown catalog record kind %r"
                                   % state["kind"])

    # -- clusters ---------------------------------------------------------------

    def clusters(self) -> Iterator[ClusterInfo]:
        with self._lock:
            return iter(list(self._clusters.values()))

    def get_cluster(self, name: str) -> Optional[ClusterInfo]:
        with self._lock:
            return self._clusters.get(name)

    def has_cluster(self, name: str) -> bool:
        with self._lock:
            return name in self._clusters

    def add_cluster(self, txn: int, name: str, parents: List[str],
                    heap_page: int, directory_page: int) -> ClusterInfo:
        with self._lock:
            if name in self._clusters:
                raise CatalogError("cluster %r already exists" % name)
            info = ClusterInfo(name, self._next_cluster_id, parents,
                               heap_page, directory_page)
            self._next_cluster_id += 1
            info._rid = self._heap.insert(txn, info.to_record())
            self._clusters[name] = info
            return info

    def save_cluster(self, txn: int, info: ClusterInfo) -> None:
        """Persist changed fields (structure roots, indexes) of a cluster."""
        with self._lock:
            if info._rid is None:
                raise CatalogError("cluster %r has no catalog record"
                                   % info.name)
            self._heap.update(txn, info._rid, info.to_record())

    def reserve_serials(self, txn: int, info: ClusterInfo,
                        count: int) -> int:
        """Reserve *count* serials of *info*'s cluster; returns the first.

        The counter is a meta record of its own, written by *txn* as a
        nested top action, as :meth:`layout_id` writes a layout: an abort
        or crash of *txn* keeps the reservation, because other
        transactions may already have committed objects with serials from
        the block. No other write touches that record, so no
        before-image a rollback restores — a cluster record's, say —
        can move the counter back.
        """
        key = "serials:" + info.name
        with self._lock:
            start = max(info.next_serial, self._meta.get(key, 1))
            with self._journal.nested_top_action(txn):
                self.set_meta(txn, key, start + count)
            return start

    def children_of(self, name: str) -> List[ClusterInfo]:
        """Direct subclusters (clusters listing *name* as a parent)."""
        with self._lock:
            return [c for c in self._clusters.values() if name in c.parents]

    # -- record layouts ---------------------------------------------------------

    def layouts(self, cluster: str) -> List[Tuple[str, ...]]:
        """*cluster*'s layouts, indexed by layout id (a live list)."""
        found = self._layouts.get(cluster)
        if found is None:
            with self._lock:
                found = self._layouts.setdefault(cluster, [])
        return found

    def layout_id(self, txn: int, cluster: str,
                  fields: Tuple[str, ...]) -> int:
        """The id of *cluster*'s layout *fields*, registering it if new.

        A new layout is written by *txn* as a nested top action: an
        abort of *txn* keeps it, because a concurrent transaction that
        found it here may already have committed records naming it. It
        is published only once its record is logged, so any record that
        names it follows that record in the log. Layouts survive every
        abort and crash, and one no record uses costs a catalog record.
        """
        ids = self._layout_ids.get(cluster)
        found = None if ids is None else ids.get(fields)
        if found is not None:
            return found
        with self._lock:
            found = self._layout_ids.get(cluster, {}).get(fields)
            if found is not None:
                return found
            layout = len(self.layouts(cluster))
            if layout > MAX_LAYOUTS:
                raise CatalogError("cluster %r has too many record layouts"
                                   % cluster)
            record = encode_value({"kind": "layout", "cluster": cluster,
                                   "id": layout, "fields": list(fields)})
            with self._journal.nested_top_action(txn):
                self._heap.insert(txn, record)
            self._add_layout(cluster, layout, fields)
            return layout

    def _add_layout(self, cluster: str, layout: int,
                    fields: Tuple[str, ...]) -> None:
        layouts = self.layouts(cluster)
        if layout >= len(layouts):
            layouts.extend([None] * (layout + 1 - len(layouts)))
        elif layouts[layout] is not None:
            return      # already known (a reload keeps the live list)
        layouts[layout] = fields
        self._layout_ids.setdefault(cluster, {})[fields] = layout

    # -- metadata ---------------------------------------------------------------

    def get_meta(self, key, default=None):
        with self._lock:
            return self._meta.get(key, default)

    def set_meta(self, txn: int, key, value) -> None:
        record = encode_value({"kind": "meta", "key": key, "value": value})
        with self._lock:
            rid = self._meta_rids.get(key)
            if rid is None:
                self._meta_rids[key] = self._heap.insert(txn, record)
            else:
                self._heap.update(txn, rid, record)
            self._meta[key] = value

    def invalidate(self) -> None:
        """Re-read everything from disk (after an abort touched the catalog)."""
        with self._lock:
            self._reload()
