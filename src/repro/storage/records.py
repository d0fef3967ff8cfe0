"""Object records (page-file format 6): a fixed header plus positional values.

The object layer stores an object as a *version head* keyed
``(serial, 0)``, which carries the current version's state, and one
record ``(serial, v)`` per older version ``v`` (see
:mod:`repro.core.database`). A record spells out no field names: its
state is a per-cluster **layout id** — an index into the cluster's list
of layouts, each a tuple of field names kept in the catalog
(:meth:`Catalog.layout_id`) — followed by one codec-tagged value per
field of that layout, in its order::

    offset  size  head                        older version
    0       1     REC_HEAD or REC_HEAD_CHAIN  REC_VERSION
    1       4     serial   (u32)              serial  (u32)
    5       4     current  (u32)              version (u32)
    9       2     layout id (u16)             layout id (u16)
    11      -     REC_HEAD_CHAIN only: u32 n, then n u32 versions
    ...     -     one codec value per layout field

``REC_HEAD`` is a head whose chain is just ``[current]`` — every object
that never had a second version — so the chain costs nothing. The kind
bytes lie outside the codec's tag space: a payload that starts with one
is an object record, anything else is a plain codec value (trigger
activations, and what older formats wrote).

Decoded, a head is ``{"current": v, "chain": [...], "state": {...}}``
and an older version ``{"state": {...}}``; the state dict holds the
record's own layout's fields, and the object layer fills missing fields
with their defaults and ignores extra ones.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import CodecError
from .codec import _decode_from, _encode_into, decode_value

REC_HEAD = 0x30
REC_HEAD_CHAIN = 0x31
REC_VERSION = 0x32

_HEADER = struct.Struct("<BIIH")
_COUNT = struct.Struct("<I")
_KEY = struct.Struct("<BII")

#: Layout ids are u16s.
MAX_LAYOUTS = 0xFFFF


def encode_head(serial: int, current: int, chain: Sequence[int],
                layout: int, state: Dict[str, Any]) -> bytes:
    """The head record of an object whose state's fields are layout
    *layout* (``tuple(state)`` in its order)."""
    if len(chain) == 1 and chain[0] == current:
        out = bytearray(_HEADER.pack(REC_HEAD, serial, current, layout))
    else:
        out = bytearray(_HEADER.pack(REC_HEAD_CHAIN, serial, current,
                                     layout))
        out += _COUNT.pack(len(chain))
        out += struct.pack("<%dI" % len(chain), *chain)
    for value in state.values():
        _encode_into(out, value)
    return bytes(out)


def encode_version(serial: int, version: int, layout: int,
                   state: Dict[str, Any]) -> bytes:
    """The record of non-current version *version*."""
    out = bytearray(_HEADER.pack(REC_VERSION, serial, version, layout))
    for value in state.values():
        _encode_into(out, value)
    return bytes(out)


def record_key(payload: bytes, start: int = 0) -> Optional[Tuple[int, int]]:
    """The ``(serial, version)`` of the object record at *start* of
    *payload*, read off its fixed header; None for any other payload."""
    if len(payload) - start < _HEADER.size:
        return None
    kind, serial, version = _KEY.unpack_from(payload, start)
    if kind == REC_HEAD or kind == REC_HEAD_CHAIN:
        return serial, 0
    if kind == REC_VERSION:
        return serial, version
    return None


def decode_record(payload: bytes, layouts: Sequence[Tuple[str, ...]],
                  start: int = 0, end: Optional[int] = None):
    """Decode one stored payload — ``payload[start:end]``, read in place
    — an object record through *layouts* (its cluster's), anything else
    as a plain codec value."""
    if end is None:
        end = len(payload)
    kind = payload[start] if start < end else None
    if kind is None or not REC_HEAD <= kind <= REC_VERSION:
        return decode_value(payload if start == 0 and end == len(payload)
                            else payload[start:end])
    if end - start < _HEADER.size:
        raise CodecError("truncated object record: %d bytes" % (end - start))
    kind, _serial, number, layout = _HEADER.unpack_from(payload, start)
    offset = start + _HEADER.size
    if kind == REC_HEAD_CHAIN:
        n = _COUNT.unpack_from(payload, offset)[0]
        offset += 4
        if offset + 4 * n > end:
            raise CodecError("truncated version chain")
        chain = list(struct.unpack_from("<%dI" % n, payload, offset))
        offset += 4 * n
    names = layouts[layout] if layout < len(layouts) else None
    if names is None:
        raise CodecError("object record names unknown layout %d" % layout)
    state = {}
    for name in names:
        state[name], offset = _decode_from(payload, offset)
    if offset != end:
        raise CodecError("object record is %d bytes, its values end at %d"
                         % (end - start, offset - start))
    if kind == REC_VERSION:
        return {"state": state}
    return {"current": number,
            "chain": [number] if kind == REC_HEAD else chain,
            "state": state}
