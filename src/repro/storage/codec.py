"""Self-describing binary codec for database values.

The storage engine stores object states as flat byte strings. This module
provides the tagged binary encoding used everywhere a Python value must be
written to a page: object states, index keys, catalog entries, and WAL
payloads.

The format is deliberately simple and fully self-describing: a one-byte type
tag followed by a fixed- or length-prefixed payload. Supported value types
are ``None``, booleans, 64-bit signed integers, big integers, doubles,
strings, bytes, datetimes (as epoch micros), and the containers list, tuple,
dict, set and frozenset (recursively). Two special tags encode persistent
object references: OID (a plain object id) and VREF (a versioned reference,
see :mod:`repro.core.versions`); the codec treats them as opaque integer
triples and the object layer interprets them.

A separate *orderable* key encoding (:func:`encode_key`) produces byte
strings whose lexicographic order matches the natural order of the encoded
values. B+tree pages compare keys with plain ``bytes`` comparison, so this
property is what makes range scans work.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from ..errors import CodecError

# Type tags. Stable on-disk values: never renumber, only append.
TAG_NONE = 0x00
TAG_FALSE = 0x01
TAG_TRUE = 0x02
TAG_INT64 = 0x03
TAG_BIGINT = 0x04
TAG_FLOAT = 0x05
TAG_STR = 0x06
TAG_BYTES = 0x07
TAG_LIST = 0x08
TAG_TUPLE = 0x09
TAG_DICT = 0x0A
TAG_SET = 0x0B
TAG_FROZENSET = 0x0C
TAG_OID = 0x0D
TAG_VREF = 0x0E

#: First tag number available to extension types (see register_extension).
TAG_EXT_BASE = 0x40

_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_OID = struct.Struct("<qqq")

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


class OidTriple(tuple):
    """Opaque (cluster_id, serial, version) triple used by the object layer.

    The codec round-trips these so the storage engine never needs to import
    the object layer. ``version`` is 0 for unversioned references.
    """

    __slots__ = ()

    def __new__(cls, cluster_id: int, serial: int, version: int = 0):
        return super().__new__(cls, (int(cluster_id), int(serial), int(version)))

    @property
    def cluster_id(self) -> int:
        return self[0]

    @property
    def serial(self) -> int:
        return self[1]

    @property
    def version(self) -> int:
        return self[2]


class VrefTriple(OidTriple):
    """A specific (pinned) versioned reference; distinct tag on disk."""

    __slots__ = ()


# Extension types: higher layers (e.g. the object layer's Oid/Vref) register
# their value classes here so the storage engine can persist them without
# importing those layers. Each extension maps a class to a tag plus
# to-/from-state converters; the state must itself be codec-encodable.
_EXT_BY_CLASS: dict = {}
_EXT_BY_TAG: dict = {}


def register_extension(tag: int, cls: type, to_state, from_state,
                       key_state=None) -> None:
    """Register *cls* as an encodable extension type.

    *tag* must be >= TAG_EXT_BASE and stable across releases (it goes on
    disk). *to_state(value)* returns an encodable representation;
    *from_state(state)* rebuilds the value. *key_state*, if given, returns
    an order-preserving key representation so values of the class can be
    used as index keys. Re-registering the same tag for the same class is
    a no-op; conflicting registrations raise CodecError.
    """
    if tag < TAG_EXT_BASE or tag > 0xFF:
        raise CodecError("extension tag 0x%02x out of range" % tag)
    existing = _EXT_BY_TAG.get(tag)
    if existing is not None and existing[0] is not cls:
        raise CodecError("extension tag 0x%02x already registered for %s"
                         % (tag, existing[0].__name__))
    _EXT_BY_TAG[tag] = (cls, from_state)
    _EXT_BY_CLASS[cls] = (tag, to_state, key_state)


def encode_value(value: Any) -> bytes:
    """Encode *value* into the tagged binary format.

    Raises :class:`CodecError` for unsupported types. Containers are encoded
    recursively; dict keys may be any encodable value.
    """
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Decode a byte string produced by :func:`encode_value`."""
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise CodecError(
            "trailing garbage after value: %d of %d bytes consumed"
            % (offset, len(data)))
    return value


def decode_prefix(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode one value starting at *offset*, ignoring what follows.

    Returns ``(value, end offset)``. For callers that store an encoded
    value inside a larger buffer (index records, page images); *data* may
    be any bytes-like object that slices to one.
    """
    return _decode_from(data, offset)


# Encoding dispatches on exact type first (one dict lookup instead of a
# ten-branch isinstance chain — this is the hottest loop in the engine:
# every page record, WAL payload and index bucket passes through it).
# Subclasses, extension types and the odd bytearray fall through to
# _encode_slow, which preserves the original semantics.

def _encode_into(out: bytearray, value: Any) -> None:
    enc = _ENCODERS.get(value.__class__)
    if enc is not None:
        enc(out, value)
    else:
        _encode_slow(out, value)


def _enc_none(out, value):
    out.append(TAG_NONE)


def _enc_bool(out, value):
    out.append(TAG_TRUE if value else TAG_FALSE)


def _enc_int(out, value):
    if _INT64_MIN <= value <= _INT64_MAX:
        out.append(TAG_INT64)
        out += _I64.pack(value)
    else:
        raw = value.to_bytes(
            (value.bit_length() + 8) // 8, "little", signed=True)
        out.append(TAG_BIGINT)
        out += _U32.pack(len(raw))
        out += raw


def _enc_float(out, value):
    out.append(TAG_FLOAT)
    out += _F64.pack(value)


def _enc_str(out, value):
    raw = value.encode("utf-8")
    out.append(TAG_STR)
    out += _U32.pack(len(raw))
    out += raw


def _enc_bytes(out, value):
    out.append(TAG_BYTES)
    out += _U32.pack(len(value))
    out += value


def _enc_list(out, value):
    out.append(TAG_LIST)
    out += _U32.pack(len(value))
    encoders = _ENCODERS
    for item in value:
        enc = encoders.get(item.__class__)
        if enc is not None:
            enc(out, item)
        else:
            _encode_slow(out, item)


def _enc_tuple(out, value):
    out.append(TAG_TUPLE)
    out += _U32.pack(len(value))
    encoders = _ENCODERS
    for item in value:
        enc = encoders.get(item.__class__)
        if enc is not None:
            enc(out, item)
        else:
            _encode_slow(out, item)


def _enc_dict(out, value):
    out.append(TAG_DICT)
    out += _U32.pack(len(value))
    encoders = _ENCODERS
    for key, item in value.items():
        enc = encoders.get(key.__class__)
        if enc is not None:
            enc(out, key)
        else:
            _encode_slow(out, key)
        enc = encoders.get(item.__class__)
        if enc is not None:
            enc(out, item)
        else:
            _encode_slow(out, item)


def _enc_set(out, value):
    out.append(TAG_SET)
    out += _U32.pack(len(value))
    for item in _stable_order(value):
        _encode_into(out, item)


def _enc_frozenset(out, value):
    out.append(TAG_FROZENSET)
    out += _U32.pack(len(value))
    for item in _stable_order(value):
        _encode_into(out, item)


def _enc_oid(out, value):
    out.append(TAG_OID)
    out += _OID.pack(*value)


def _enc_vref(out, value):
    out.append(TAG_VREF)
    out += _OID.pack(*value)


_ENCODERS = {
    type(None): _enc_none,
    bool: _enc_bool,
    int: _enc_int,
    float: _enc_float,
    str: _enc_str,
    bytes: _enc_bytes,
    list: _enc_list,
    tuple: _enc_tuple,
    dict: _enc_dict,
    set: _enc_set,
    frozenset: _enc_frozenset,
    OidTriple: _enc_oid,
    VrefTriple: _enc_vref,
}


def _encode_slow(out: bytearray, value: Any) -> None:
    ext = _EXT_BY_CLASS.get(type(value))
    if ext is not None:
        tag, to_state, _ = ext
        out.append(tag)
        _encode_into(out, to_state(value))
        return
    # bool must be tested before int: bool is a subclass of int.
    if value is None:
        out.append(TAG_NONE)
    elif value is False:
        out.append(TAG_FALSE)
    elif value is True:
        out.append(TAG_TRUE)
    elif isinstance(value, VrefTriple):
        _enc_vref(out, value)
    elif isinstance(value, OidTriple):
        _enc_oid(out, value)
    elif isinstance(value, int):
        _enc_int(out, value)
    elif isinstance(value, float):
        _enc_float(out, value)
    elif isinstance(value, str):
        _enc_str(out, value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _enc_bytes(out, bytes(value))
    elif isinstance(value, list):
        _enc_list(out, value)
    elif isinstance(value, tuple):
        _enc_tuple(out, value)
    elif isinstance(value, dict):
        _enc_dict(out, value)
    elif isinstance(value, frozenset):
        _enc_frozenset(out, value)
    elif isinstance(value, set):
        _enc_set(out, value)
    else:
        raise CodecError("cannot encode value of type %s" % type(value).__name__)


def _stable_order(items):
    """Order set elements deterministically so encodings are reproducible."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=lambda x: (type(x).__name__, repr(x)))


# Decoding dispatches on the tag byte through a 256-entry table (one
# index instead of a branch chain); extension tags and unknown tags take
# the slow path.

def _decode_from(data: bytes, offset: int) -> Tuple[Any, int]:
    try:
        tag = data[offset]
    except IndexError:
        raise CodecError("truncated value: no tag byte at offset %d" % offset)
    dec = _DECODERS[tag]
    if dec is None:
        return _decode_ext(data, offset + 1, tag)
    return dec(data, offset + 1)


def _dec_none(data, offset):
    return None, offset


def _dec_false(data, offset):
    return False, offset


def _dec_true(data, offset):
    return True, offset


def _dec_int64(data, offset):
    _check(data, offset, 8)
    return _I64.unpack_from(data, offset)[0], offset + 8


def _dec_bigint(data, offset):
    length, offset = _read_length(data, offset)
    _check(data, offset, length)
    raw = data[offset:offset + length]
    return int.from_bytes(raw, "little", signed=True), offset + length


def _dec_float(data, offset):
    _check(data, offset, 8)
    return _F64.unpack_from(data, offset)[0], offset + 8


def _dec_str(data, offset):
    length, offset = _read_length(data, offset)
    _check(data, offset, length)
    try:
        text = data[offset:offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError("invalid utf-8 in string payload: %s" % exc)
    return text, offset + length


def _dec_bytes(data, offset):
    length, offset = _read_length(data, offset)
    _check(data, offset, length)
    return bytes(data[offset:offset + length]), offset + length


def _dec_list(data, offset):
    count, offset = _read_length(data, offset)
    items = []
    append = items.append
    for _ in range(count):
        item, offset = _decode_from(data, offset)
        append(item)
    return items, offset


def _dec_tuple(data, offset):
    items, offset = _dec_list(data, offset)
    return tuple(items), offset


def _dec_set(data, offset):
    items, offset = _dec_list(data, offset)
    return set(items), offset


def _dec_frozenset(data, offset):
    items, offset = _dec_list(data, offset)
    return frozenset(items), offset


def _dec_dict(data, offset):
    count, offset = _read_length(data, offset)
    result = {}
    for _ in range(count):
        key, offset = _decode_from(data, offset)
        item, offset = _decode_from(data, offset)
        result[key] = item
    return result, offset


def _dec_oid(data, offset):
    _check(data, offset, 24)
    return OidTriple(*_OID.unpack_from(data, offset)), offset + 24


def _dec_vref(data, offset):
    _check(data, offset, 24)
    return VrefTriple(*_OID.unpack_from(data, offset)), offset + 24


_DECODERS = [None] * 256
_DECODERS[TAG_NONE] = _dec_none
_DECODERS[TAG_FALSE] = _dec_false
_DECODERS[TAG_TRUE] = _dec_true
_DECODERS[TAG_INT64] = _dec_int64
_DECODERS[TAG_BIGINT] = _dec_bigint
_DECODERS[TAG_FLOAT] = _dec_float
_DECODERS[TAG_STR] = _dec_str
_DECODERS[TAG_BYTES] = _dec_bytes
_DECODERS[TAG_LIST] = _dec_list
_DECODERS[TAG_TUPLE] = _dec_tuple
_DECODERS[TAG_DICT] = _dec_dict
_DECODERS[TAG_SET] = _dec_set
_DECODERS[TAG_FROZENSET] = _dec_frozenset
_DECODERS[TAG_OID] = _dec_oid
_DECODERS[TAG_VREF] = _dec_vref


def _decode_ext(data: bytes, offset: int, tag: int) -> Tuple[Any, int]:
    ext = _EXT_BY_TAG.get(tag)
    if ext is not None:
        _cls, from_state = ext
        state, offset = _decode_from(data, offset)
        return from_state(state), offset
    raise CodecError("unknown type tag 0x%02x at offset %d" % (tag, offset - 1))


def _read_length(data: bytes, offset: int) -> Tuple[int, int]:
    _check(data, offset, 4)
    return _U32.unpack_from(data, offset)[0], offset + 4


def _check(data: bytes, offset: int, need: int) -> None:
    if offset + need > len(data):
        raise CodecError(
            "truncated value: need %d bytes at offset %d, have %d"
            % (need, offset, len(data) - offset))


# ---------------------------------------------------------------------------
# Order-preserving key encoding
# ---------------------------------------------------------------------------
#
# B+tree pages store keys as raw bytes and compare them lexicographically.
# encode_key maps None < booleans < numbers < strings < bytes < tuples such
# that byte order == value order within each family, and numbers (ints and
# floats) compare by numeric value across the two types.

_KIND_NONE = 0x10
_KIND_BOOL = 0x20
_KIND_NUMBER = 0x30
_KIND_STR = 0x40
_KIND_BYTES = 0x50
_KIND_TUPLE = 0x60
_KIND_EXT = 0x70

_F64_BE = struct.Struct(">d")


def encode_key(value: Any) -> bytes:
    """Encode *value* as an order-preserving byte string.

    ``encode_key(a) < encode_key(b)`` iff ``a < b`` under the total order
    None < False < True < numbers < strings < bytes < tuples (tuples compare
    element-wise). Ints larger than 2**63 are not supported as keys.
    """
    out = bytearray()
    _encode_key_into(out, value)
    return bytes(out)


def _encode_key_into(out: bytearray, value: Any) -> None:
    ext = _EXT_BY_CLASS.get(type(value))
    if ext is not None:
        tag, _, key_state = ext
        if key_state is None:
            raise CodecError("type %s cannot be used as an index key"
                             % type(value).__name__)
        out.append(_KIND_EXT)
        out.append(tag)
        _encode_key_into(out, key_state(value))
        return
    if value is None:
        out.append(_KIND_NONE)
    elif isinstance(value, bool):
        out.append(_KIND_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, (int, float)):
        out.append(_KIND_NUMBER)
        out += _encode_number_key(value)
    elif isinstance(value, str):
        out.append(_KIND_STR)
        out += _escape_terminated(value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(_KIND_BYTES)
        out += _escape_terminated(bytes(value))
    elif isinstance(value, tuple):
        out.append(_KIND_TUPLE)
        for item in value:
            out.append(0x01)  # element-follows marker: > terminator 0x00
            _encode_key_into(out, item)
        out.append(0x00)  # terminator: shorter tuple sorts first
    else:
        raise CodecError(
            "type %s cannot be used as an index key" % type(value).__name__)


def _encode_number_key(value) -> bytes:
    """Encode a number so byte order matches numeric order.

    Uses the classic IEEE-754 trick: interpret the double's bits, flip the
    sign bit for positives, flip all bits for negatives. Ints within 2**53
    are exact as doubles; larger ints raise to avoid silent collisions.
    """
    if isinstance(value, int) and abs(value) > 2 ** 53:
        raise CodecError("integer key out of exactly-representable range: %d" % value)
    if value == 0:
        value = 0.0  # fold -0.0 onto +0.0: they compare equal, so their
        #              key encodings must be identical too
    raw = _F64_BE.pack(float(value))
    bits = int.from_bytes(raw, "big")
    if bits & (1 << 63):
        bits ^= (1 << 64) - 1  # negative: flip everything
    else:
        bits |= 1 << 63  # positive: flip sign bit
    return bits.to_bytes(8, "big")


def _escape_terminated(raw: bytes) -> bytes:
    """0x00-terminate *raw*, escaping embedded 0x00 as 0x00 0xFF.

    This keeps prefix ordering correct: "ab" < "ab\\x00c" < "ac".
    """
    return raw.replace(b"\x00", b"\x00\xff") + b"\x00"
