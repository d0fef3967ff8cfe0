"""Late-decoding scan batches — one heap page's records, kept as bytes.

:meth:`Store.scan_batches` yields one :class:`ScanBatch` per heap page. A
batch never holds decoded values: it keeps each record's encoded payload
and learns the record's object key — ``(serial, version)`` — from a
fixed-offset peek at the payload's first bytes. Records are decoded only
when a consumer asks for one, and every decode returns a fresh value, so
nothing a caller does to a returned dict can reach another caller (the
LSN-keyed page cache stores these batches and hands the same one to every
scan of an unchanged page).

Key-peek layout. Every object record the object layer writes is a dict
whose *first* entry is ``"__key": [serial, version]``, which the codec
lays out as::

    offset  size  bytes
    0       1     TAG_DICT
    1       4     entry count              (differs by record: skipped)
    5       16    TAG_STR, u32 5, "__key", TAG_LIST, u32 2, TAG_INT64
    21      8     serial   (int64)
    29      1     TAG_INT64
    30      8     version  (int64)

One ``struct`` unpack reads all of it. A payload that does not match —
shorter than 38 bytes, another first entry, a serial outside int64 (the
codec's big-int tag) — is decoded in full to find its key; a record with
no ``__key`` pair at all has key ``None`` and is reachable only through
iteration.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .codec import TAG_DICT, TAG_INT64, decode_value, encode_value
from .heap import RID

_KEY_PEEK = struct.Struct("<B4x16sqBq")
#: Bytes 5..21 of any record that leads with a two-int64 ``__key`` list,
#: taken from the codec itself rather than assembled by hand.
_KEY_PREFIX = encode_value({"__key": [0, 0]})[5:21]

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

    ``len(batch)`` is the record count. :attr:`keys` holds one
    ``(serial, version)`` (or None) per record in slot order and
    :attr:`heads` the serials of the version-0 records — both available
    without decoding anything. :meth:`head` and iteration decode, count
    the decode in the store's ``scan.records_decoded`` counter, and
    return values no one else holds.
    """

    __slots__ = ("page_no", "keys", "heads", "_slots", "_payloads",
                 "_index", "_decodes")

    def __init__(self, page_no: int, slots: List[int],
                 payloads: List[bytes], decodes) -> None:
        self.page_no = page_no
        self._slots = slots
        self._payloads = payloads
        #: ``itertools.count`` shared with the store: one ``next()`` per
        #: decode, exact under concurrent scans.
        self._decodes = decodes
        self._index: Optional[Dict[int, int]] = None
        peek = _KEY_PEEK.unpack_from
        need = _KEY_PEEK.size
        prefix = _KEY_PREFIX
        keys: List[Optional[Key]] = []
        heads: List[int] = []
        add_key, add_head = keys.append, heads.append
        for payload in payloads:
            key = None
            if len(payload) >= need:
                tag, lead, serial, vtag, version = peek(payload)
                if tag == TAG_DICT and lead == prefix and vtag == TAG_INT64:
                    key = (serial, version)
            if key is None:
                next(decodes)
                key = _decoded_key(decode_value(payload))
            add_key(key)
            if key is not None and key[1] == 0:
                add_head(key[0])
        self.keys = keys
        self.heads = heads

    def __len__(self) -> int:
        return len(self._payloads)

    def __iter__(self) -> Iterator[Tuple[RID, Any]]:
        """``(rid, record)`` for every record, each freshly decoded."""
        page_no = self.page_no
        decodes = self._decodes
        for slot, payload in zip(self._slots, self._payloads):
            next(decodes)
            yield RID(page_no, slot), decode_value(payload)

    def head(self, serial: int) -> Optional[Dict]:
        """The record keyed ``(serial, 0)`` — the version head — or None
        if it is not on this page."""
        index = self._index
        if index is None:
            # Built on first use: a scan whose objects are all live never
            # looks a head up. Racing builders produce equal dicts.
            index = self._index = {
                key[0]: i for i, key in enumerate(self.keys)
                if key is not None and key[1] == 0}
        i = index.get(serial)
        if i is None:
            return None
        next(self._decodes)
        return decode_value(self._payloads[i])
