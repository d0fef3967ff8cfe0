"""Late-decoding scan batches — one heap page's records, kept as bytes.

:meth:`Store.scan_batches` yields one :class:`ScanBatch` per heap page. A
batch never holds decoded values: it keeps each record's encoded payload
and learns the record's object key — ``(serial, version)`` — from a
fixed-offset peek at the payload's first bytes. Records are decoded only
when a consumer asks for one, and every decode returns a fresh value, so
nothing a caller does to a returned dict can reach another caller (the
LSN-keyed page cache stores these batches and hands the same one to every
scan of an unchanged page).

Key peek. Every object record the object layer writes (page-file
format 6, :mod:`repro.storage.records`) starts with a fixed header::

    offset  size  bytes
    0       1     kind: REC_HEAD / REC_HEAD_CHAIN (a version head, key
                  version 0) or REC_VERSION (an older version)
    1       4     serial   (u32)
    5       4     REC_VERSION: the version (u32); a head: its current
                  version, not part of the key
    9       2     layout id (u16)

so one ``struct`` unpack reads the key (:func:`records.record_key`).
Any other payload — a plain codec value, such as a trigger activation —
is decoded in full and keyed by its ``"__key"`` pair, if it is a dict
that has one; otherwise its key is None and it is reachable only through
iteration. Object records are decoded through the cluster's layouts,
which the store hands the batch.
"""

from __future__ import annotations

import struct
from array import array
from itertools import accumulate
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .codec import decode_value
from .heap import RID
from .records import REC_HEAD, REC_HEAD_CHAIN, decode_record, record_key

_first = itemgetter(0)
_serial = struct.Struct("<xI").unpack_from
_HEAD_KINDS = bytes((REC_HEAD, REC_HEAD_CHAIN))

Key = Tuple[int, int]


def _decoded_key(record: Any) -> Optional[Key]:
    """The ``(serial, version)`` of a fully decoded record, or None."""
    if isinstance(record, dict):
        key = record.get("__key")
        if isinstance(key, (list, tuple)) and len(key) == 2:
            return key[0], key[1]
    return None


class ScanBatch:
    """The live records of one heap page (or of its tail, on a resumed
    walk), decoded on demand.

    ``len(batch)`` is the record count and :attr:`heads` the serials of
    the version-0 records, in slot order; :attr:`keys` gives one
    ``(serial, version)`` (or None) per record. None of them decodes
    anything. :meth:`head` and iteration decode, count the decode in the
    store's ``scan.records_decoded`` counter, and return values no one
    else holds.

    The page cache keeps batches, so a batch is kept small: its records'
    bytes are one ``bytes`` object (``_ends`` marks where each record
    ends), and the only per-record Python objects it keeps are the head
    serials.
    """

    __slots__ = ("page_no", "heads", "_slots", "_blob", "_ends",
                 "_head_at", "_other", "_index", "_hint", "_layouts",
                 "_decodes")

    def __init__(self, page_no: int, slots: List[int],
                 payloads: List[bytes], decodes,
                 layouts: Sequence[Tuple[str, ...]] = ()) -> None:
        self.page_no = page_no
        self._slots = slots
        #: The cluster's layouts (a live list: ids only ever get added).
        self._layouts = layouts
        #: ``itertools.count`` shared with the store: one ``next()`` per
        #: decode, exact under concurrent scans.
        self._decodes = decodes
        #: record index -> key of the records that are not object records
        other: Optional[Dict[int, Optional[Key]]] = None
        try:
            kinds = bytes(map(_first, payloads))
        except IndexError:      # an empty payload
            kinds = b"\0"
        if not kinds.translate(None, _HEAD_KINDS):
            # Every record is a version head: the page of a cluster whose
            # objects have one version each.
            heads = [_serial(payload)[0] for payload in payloads]
            head_at = range(len(payloads))
        else:
            heads, head_at = [], array("I")
            for i, payload in enumerate(payloads):
                key = record_key(payload)
                if key is None:
                    next(decodes)
                    key = _decoded_key(decode_value(payload))
                    if other is None:
                        other = {}
                    other[i] = key
                if key is not None and key[1] == 0:
                    heads.append(key[0])
                    head_at.append(i)
        self._blob = b"".join(payloads)
        self._ends = array("I", accumulate(map(len, payloads)))
        self._other = other
        self.heads = heads
        self._head_at = head_at
        # A serial heads at most one record of a page; should one head
        # two anyway, the later record is the one :meth:`head` returns.
        self._index = (None if len(set(heads)) == len(heads)
                       else {serial: i for i, serial in enumerate(heads)})
        self._hint = 0

    def __len__(self) -> int:
        return len(self._ends)

    def _span(self, i: int) -> Tuple[int, int]:
        ends = self._ends
        return (ends[i - 1] if i else 0), ends[i]

    def payloads(self) -> List[bytes]:
        """Each record's stored bytes, in slot order (copies)."""
        blob = self._blob
        return [blob[slice(*self._span(i))] for i in range(len(self._ends))]

    @property
    def keys(self) -> List[Optional[Key]]:
        """One ``(serial, version)`` (or None) per record, in slot order."""
        other = self._other or {}
        return [other[i] if i in other
                else record_key(self._blob, self._span(i)[0])
                for i in range(len(self._ends))]

    def __iter__(self) -> Iterator[Tuple[RID, Any]]:
        """``(rid, record)`` for every record, each freshly decoded."""
        page_no = self.page_no
        decodes = self._decodes
        layouts = self._layouts
        blob = self._blob
        start = 0
        for slot, end in zip(self._slots, self._ends):
            next(decodes)
            yield RID(page_no, slot), decode_record(blob, layouts, start,
                                                    end)
            start = end

    def head(self, serial: int) -> Optional[Dict]:
        """The record keyed ``(serial, 0)`` — the version head — or None
        if it is not on this page."""
        heads = self.heads
        if self._index is not None:
            i = self._index.get(serial)
            if i is None:
                return None
        else:
            # Scans ask for the heads in slot order: try the next one
            # first. Racing scans of one cached batch only miss the hint.
            i = self._hint
            if i >= len(heads) or heads[i] != serial:
                try:
                    i = heads.index(serial)
                except ValueError:
                    return None
            self._hint = i + 1
        next(self._decodes)
        start, end = self._span(self._head_at[i])
        return decode_record(self._blob, self._layouts, start, end)
