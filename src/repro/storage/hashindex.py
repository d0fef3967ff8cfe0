"""Disk-resident extendible hash index.

Equality-only companion to the B+tree: O(1) point lookups, no range scans.
The paper's `suchthat` clauses with equality predicates can be served by
either; the optimizer prefers the hash index for pure equality.

Structure: a *directory* of 2**global_depth bucket pointers plus *bucket*
pages. Each bucket page stores one codec-encoded record: its local depth
and its entry list. When a bucket overflows, it splits; if its local depth
equals the global depth, the directory doubles first. Keys hash through a
stable (process-independent) 64-bit blake2b digest of the order-preserving
key encoding, so the on-disk layout does not depend on Python's randomized
``hash()``.

The directory is stored on one page, which bounds the global depth. A
bucket whose entries cannot be separated by splitting (many duplicates of
one key, or hash-identical keys) chains across additional bucket pages
instead, so the index handles arbitrarily skewed key distributions —
degenerating gracefully to a linked list for pathological ones.
"""

from __future__ import annotations

import struct
from hashlib import blake2b
from typing import Any, Iterator, List, Tuple

from ..errors import DuplicateKeyError, IndexError_
from .codec import (TAG_INT64, TAG_LIST, decode_prefix, encode_key,
                    encode_value)
from .journal import Journal
from .page import MAX_RECORD_SIZE, NO_PAGE, PageType

_U32 = struct.Struct("<I")

#: Hard capacity of one bucket page's record.
MAX_BUCKET_BYTES = MAX_RECORD_SIZE - 512

#: Every directory/bucket record is zero-padded to this fixed size. A
#: same-length update never relocates the record within its page, so an
#: append changes only the entry count word and the appended bytes — which
#: the journal's run diff then logs as two tiny UPDATE images instead of
#: the whole shifted record.
RECORD_SIZE = MAX_RECORD_SIZE

#: Preferred bucket size: buckets split well before the page fills, so the
#: per-insert work stays proportional to one entry. Duplicate-heavy
#: buckets that cannot split still grow to MAX_BUCKET_BYTES and chain.
SPLIT_TARGET_BYTES = 3072


def _pad(raw: bytes) -> bytes:
    return raw + b"\x00" * (RECORD_SIZE - len(raw))

#: Directory growth stops here (pointers must fit on the directory page).
MAX_GLOBAL_DEPTH = 8

def hash_key_bytes(data: bytes) -> int:
    """64-bit blake2b of an already-encoded key. Stable across runs."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def stable_hash(key: Any) -> int:
    """64-bit stable hash of the canonical key encoding."""
    return hash_key_bytes(encode_key(key))


class HashIndex:
    """Extendible hash index mapping keys to values (duplicates optional)."""

    #: Decoded-record cache capacity (directory + bucket pages).
    CACHE_SIZE = 512

    def __init__(self, journal: Journal, directory_page: int,
                 unique: bool = False):
        self._journal = journal
        self._pool = journal._pool
        self.directory_page = directory_page
        self.unique = unique
        #: page_no -> (page_lsn at decode time, decoded record)
        self._decoded: dict = {}
        #: first_page -> (tail_page, tail_lsn): where the last chain
        #: append landed. A hint, not a source of truth — any later edit
        #: of that page (another append, a chain extension, an abort's
        #: compensation write) bumps its LSN and the hint is discarded.
        self._chain_tails: dict = {}

    @classmethod
    def create(cls, journal: Journal, txn: int,
               unique: bool = False) -> "HashIndex":
        """Allocate a depth-0 index: one directory slot, one empty bucket."""
        dir_page = journal._pool.new_page(PageType.HASH_DIRECTORY)
        bucket_page = journal._pool.new_page(PageType.HASH_BUCKET)
        with journal.edit(txn, bucket_page) as page:
            page.insert(_pad(encode_value([0, []])))  # [local_depth, entries]
        with journal.edit(txn, dir_page) as page:
            page.insert(_pad(encode_value([0, [bucket_page]])))  # [depth, ptrs]
        return cls(journal, dir_page, unique=unique)

    # -- directory / bucket I/O ------------------------------------------------

    def _read_decoded(self, page_no: int):
        """Decode a page's record, memoised against the page LSN. The
        cached value is returned as-is; callers must not mutate it.

        Pins/unpins directly instead of going through ``pool.page()``:
        the generator-based context manager costs more than the decode
        cache hit it wraps, and this runs on every index probe."""
        pool = self._pool
        page = pool.pin(page_no)
        try:
            lsn = page.page_lsn
            cached = self._decoded.get(page_no)
            if cached is not None and cached[0] == lsn:
                return cached[1], page.next_page
            value, used = decode_prefix(page.read(0))
            nxt = page.next_page
        finally:
            pool.unpin(page_no)
        if self.CACHE_SIZE > 0:  # 0 disables the cache (ablation studies)
            if len(self._decoded) >= self.CACHE_SIZE:
                self._decoded.clear()
            self._decoded[page_no] = (lsn, value, used)
        return value, nxt

    def _read_directory(self) -> Tuple[int, List[int]]:
        (depth, pointers), _ = self._read_decoded(self.directory_page)
        return depth, list(pointers)

    def _write_directory(self, txn: int, depth: int,
                         pointers: List[int]) -> None:
        raw = encode_value([depth, pointers])
        with self._journal.edit(txn, self.directory_page) as page:
            page.update(0, _pad(raw))
        if self.CACHE_SIZE > 0:
            self._decoded[self.directory_page] = (page.page_lsn,
                                                  (depth, pointers),
                                                  len(raw))

    def _read_bucket(self, page_no: int) -> Tuple[int, List]:
        """Read a bucket, concatenating its overflow chain."""
        entries: List = []
        local_depth = 0
        first = True
        while page_no != NO_PAGE:
            (depth, part), page_no = self._read_decoded(page_no)
            if first:
                local_depth = depth
                first = False
            entries.extend(part)
        return local_depth, entries

    def _write_bucket(self, txn: int, page_no: int, local_depth: int,
                      entries: List, raw: bytes = None) -> None:
        """Write a bucket, spilling across an overflow chain as needed.

        *raw*, when given, is the already-encoded single-chunk record
        (callers that just size-checked it pass it to avoid re-encoding).
        Chain pages are allocated on demand and retained (written empty)
        when the bucket shrinks, so an aborting transaction can never
        resurrect a pointer to a freed page.
        """
        if raw is None:
            raw = encode_value([local_depth, entries])
        if len(raw) <= MAX_BUCKET_BYTES:
            raws = [raw]
            chunks = [entries]
        else:  # rare: hash-identical keys forced an overflow chain
            chunks = self._chunk_entries(entries)
            raws = [encode_value([local_depth, chunk]) for chunk in chunks]
        # The decoded cache is refreshed with what is being written (keyed
        # on the post-edit LSN): the next probe — and insert's append fast
        # path — then never re-decodes the bucket. Callers hand over the
        # entry lists; they must not mutate them afterwards.
        cache = self._decoded if self.CACHE_SIZE > 0 else None
        current = page_no
        for i, chunk_raw in enumerate(raws):
            nxt = self._next_chain_page(txn, current,
                                        need_more=i + 1 < len(raws))
            with self._journal.edit(txn, current) as page:
                if page.slot_count == 0:  # freshly allocated page
                    page.insert(_pad(chunk_raw))
                else:
                    page.update(0, _pad(chunk_raw))
            if cache is not None:
                cache[current] = (page.page_lsn, (local_depth, chunks[i]),
                                  len(chunk_raw))
            current = nxt
        # Blank out any surplus chain pages left from a larger bucket.
        while current != NO_PAGE:
            with self._pool.page(current) as page:
                nxt = page.next_page
            raw = encode_value([local_depth, []])
            with self._journal.edit(txn, current) as page:
                if page.slot_count == 0:
                    page.insert(_pad(raw))
                else:
                    page.update(0, _pad(raw))
            if cache is not None:
                cache[current] = (page.page_lsn, (local_depth, []), len(raw))
            current = nxt

    def _next_chain_page(self, txn: int, current: int, need_more: bool) -> int:
        """The page after *current* in the chain, allocating if required."""
        with self._pool.page(current) as page:
            nxt = page.next_page
        if need_more and nxt == NO_PAGE:
            nxt = self._pool.new_page(PageType.HASH_BUCKET)
            with self._journal.edit(txn, current) as page:
                page.next_page = nxt
        return nxt

    @staticmethod
    def _chunk_entries(entries: List) -> List[List]:
        """Partition entries so each chunk's record fits on one page."""
        chunks: List[List] = []
        chunk: List = []
        size = 16  # room for the [local_depth, entries] framing
        for entry in entries:
            entry_size = len(encode_value(entry)) + 8
            if chunk and size + entry_size > MAX_BUCKET_BYTES:
                chunks.append(chunk)
                chunk = []
                size = 16
            chunk.append(entry)
            size += entry_size
        chunks.append(chunk)
        return chunks

    def _bucket_for(self, kb: bytes) -> Tuple[int, int, List[int]]:
        """The bucket page for an already-encoded key."""
        depth, pointers = self._read_directory()
        slot = hash_key_bytes(kb) & ((1 << depth) - 1)
        return pointers[slot], depth, pointers

    # -- operations ---------------------------------------------------------------

    def insert(self, txn: int, key: Any, value: Any) -> None:
        """Insert ``(key, value)``, splitting buckets as needed."""
        kb = encode_key(key)
        bucket_page, _, _ = self._bucket_for(kb)
        if self._append_fast(txn, bucket_page, kb, key, value):
            return
        # A bucket whose local depth reached MAX_GLOBAL_DEPTH can never
        # be separated by splitting again. Unless the unique check
        # forces a full read, append to its overflow chain's tail page:
        # the insert then costs one tail-page rewrite instead of
        # re-encoding the entire chain — the difference between O(1) and
        # O(n) per insert, i.e. a linear vs quadratic bulk load. (The
        # macro workload simulator found this: past ~10k objects every
        # directory insert re-encoded a whole chained bucket, and bulk
        # ingest fell from ~3k to ~600 objects/s and kept falling.)
        (local_depth, _), nxt = self._read_decoded(bucket_page)
        if (nxt != NO_PAGE and local_depth >= MAX_GLOBAL_DEPTH
                and not self.unique):
            self._append_chain(txn, bucket_page, local_depth,
                               [kb, key, value])
            return
        local_depth, entries = self._read_bucket(bucket_page)
        if self.unique and any(e[0] == kb for e in entries):
            raise DuplicateKeyError("duplicate key %r in unique hash index"
                                    % (key,))
        entries.append([kb, key, value])
        raw = encode_value([local_depth, entries])
        if len(raw) <= SPLIT_TARGET_BYTES:
            self._write_bucket(txn, bucket_page, local_depth, entries,
                               raw=raw)
            return
        self._split_bucket(txn, bucket_page, local_depth, entries)

    def _append_chain(self, txn: int, first_page: int, local_depth: int,
                      entry: List) -> None:
        """Append *entry* to the last page of a bucket's overflow chain.

        Chain pages are never unlinked (see :meth:`_write_bucket`), so
        the tail only ever moves forward; walking to it touches each
        page's header but decodes only the tail's record (LSN-cached).
        The walk itself is skipped when the ``_chain_tails`` hint still
        matches the tail's LSN — any intervening edit (another append, a
        chain extension, an abort's compensation write) bumps the LSN
        and forces the full walk from *first_page*.
        """
        page_no = first_page
        hint = self._chain_tails.get(first_page)
        if hint is not None:
            tail_page, tail_lsn = hint
            page = self._pool.pin(tail_page)
            try:
                if page.page_lsn == tail_lsn and page.next_page == NO_PAGE:
                    page_no = tail_page
            finally:
                self._pool.unpin(tail_page)
        while True:
            with self._pool.page(page_no) as page:
                nxt = page.next_page
            if nxt == NO_PAGE:
                break
            page_no = nxt
        kb, key, value = entry
        if self._append_fast(txn, page_no, kb, key, value,
                             limit=MAX_BUCKET_BYTES, dup_check=False):
            self._note_tail(first_page, page_no)
            return
        (_, part), _ = self._read_decoded(page_no)
        tail_entries = list(part) + [entry]
        raw = encode_value([local_depth, tail_entries])
        if len(raw) > MAX_BUCKET_BYTES and part:
            new_page = self._pool.new_page(PageType.HASH_BUCKET)
            with self._journal.edit(txn, page_no) as page:
                page.next_page = new_page
            page_no = new_page
            tail_entries = [entry]
            raw = encode_value([local_depth, tail_entries])
        with self._journal.edit(txn, page_no) as page:
            if page.slot_count == 0:
                page.insert(_pad(raw))
            else:
                page.update(0, _pad(raw))
        if self.CACHE_SIZE > 0:
            self._decoded[page_no] = (page.page_lsn,
                                      (local_depth, tail_entries), len(raw))
        self._chain_tails[first_page] = (page_no, page.page_lsn)

    def _note_tail(self, first_page: int, tail_page: int) -> None:
        """Record *tail_page* (at its current LSN) as the chain's tail."""
        cached = self._decoded.get(tail_page)
        if cached is not None:
            self._chain_tails[first_page] = (tail_page, cached[0])
            return
        page = self._pool.pin(tail_page)
        try:
            self._chain_tails[first_page] = (tail_page, page.page_lsn)
        finally:
            self._pool.unpin(tail_page)

    #: Byte offset of the entry-count u32 inside a bucket record
    #: ``[local_depth, entries]``: TAG_LIST + u32(2) + (TAG_INT64 + i64)
    #: + TAG_LIST, then the count.
    _COUNT_OFF = 1 + 4 + 9 + 1

    def _append_fast(self, txn: int, page_no: int, kb: bytes, key: Any,
                     value: Any, limit: int = SPLIT_TARGET_BYTES,
                     dup_check: bool = True) -> bool:
        """Append an entry to a warm single-page bucket by patching bytes.

        The bucket record's entries are a suffix of its encoding, so an
        insert only needs the entry count bumped and the new entry's
        encoding concatenated — no decode or whole-bucket re-encode. Only
        taken when the decoded cache matches the page LSN (giving the
        dup-check its entry list for free), the bucket has no overflow
        chain, and the result stays under *limit* (the split target; the
        chain-tail append path passes the page capacity instead);
        anything else falls back to the general path. The page diff the
        journal logs is just the count word plus the appended bytes.
        """
        cached = self._decoded.get(page_no)
        if cached is None:
            return False
        pool = self._pool
        page = pool.pin(page_no)
        try:
            if page.page_lsn != cached[0] or page.next_page != NO_PAGE:
                return False
            local_depth, entries = cached[1]
            used = cached[2]
            if self.unique and dup_check:
                for entry in entries:
                    if entry[0] == kb:
                        raise DuplicateKeyError(
                            "duplicate key %r in unique hash index" % (key,))
            raw = page.read(0)
        finally:
            pool.unpin(page_no)
        off = self._COUNT_OFF
        if (len(raw) != RECORD_SIZE or used < off + 4 or raw[0] != TAG_LIST
                or raw[5] != TAG_INT64 or raw[off - 1] != TAG_LIST):
            return False
        new_entry = [kb, key, value]
        entry_raw = encode_value(new_entry)
        if used + len(entry_raw) > limit:
            return False  # needs a split (or a new chain page)
        # Splice the bumped count and the appended entry into the padding;
        # total length is unchanged, so the page update stays in place.
        new_raw = b"".join((raw[:off], _U32.pack(len(entries) + 1),
                            raw[off + 4:used], entry_raw,
                            raw[used + len(entry_raw):]))
        with self._journal.edit(txn, page_no) as page:
            page.update(0, new_raw)
        if self.CACHE_SIZE > 0:
            self._decoded[page_no] = (page.page_lsn,
                                      (local_depth, entries + [new_entry]),
                                      used + len(entry_raw))
        return True

    def _split_bucket(self, txn: int, bucket_page: int, local_depth: int,
                      entries: List) -> None:
        # Futile-split guard: when every entry has the same full hash
        # (duplicate keys, or colliding ones), no amount of splitting can
        # separate them — store the bucket as an overflow chain instead.
        hashes = {hash_key_bytes(e[0]) for e in entries}
        if len(hashes) == 1:
            self._write_bucket(txn, bucket_page, local_depth, entries)
            return
        depth, pointers = self._read_directory()
        if local_depth == depth:
            if depth >= MAX_GLOBAL_DEPTH:
                # Directory is as large as its page allows; let the bucket
                # fill its page, then chain.
                self._write_bucket(txn, bucket_page, local_depth, entries)
                return
            pointers = pointers + pointers
            depth += 1
        # Redistribute on the newly significant bit.
        bit = 1 << local_depth
        stay, move = [], []
        for entry in entries:
            (move if hash_key_bytes(entry[0]) & bit else stay).append(entry)
        new_page = self._pool.new_page(PageType.HASH_BUCKET)
        self._write_bucket(txn, bucket_page, local_depth + 1, stay)
        self._write_bucket(txn, new_page, local_depth + 1, move)
        # Every directory slot that pointed at the old bucket and has the
        # new bit set now points at the new bucket.
        for i, ptr in enumerate(pointers):
            if ptr == bucket_page and (i & bit):
                pointers[i] = new_page
        self._write_directory(txn, depth, pointers)
        # A split may leave one side oversized when keys collide; re-split
        # recursively (bounded by MAX_GLOBAL_DEPTH).
        for page_no, side in ((bucket_page, stay), (new_page, move)):
            if len(encode_value([local_depth + 1, side])) > MAX_BUCKET_BYTES:
                self._split_bucket(txn, page_no, local_depth + 1, side)

    def search(self, key: Any) -> List[Any]:
        """All values stored under *key*."""
        kb = encode_key(key)
        bucket_page, _, _ = self._bucket_for(kb)
        _, entries = self._read_bucket(bucket_page)
        return [e[2] for e in entries if e[0] == kb]

    def contains(self, key: Any) -> bool:
        return bool(self.search(key))

    def delete(self, txn: int, key: Any, value: Any = None) -> int:
        """Remove entries for *key* (optionally only matching *value*)."""
        kb = encode_key(key)
        bucket_page, _, _ = self._bucket_for(kb)
        local_depth, entries = self._read_bucket(bucket_page)
        kept = [e for e in entries
                if not (e[0] == kb and (value is None or e[2] == value))]
        removed = len(entries) - len(kept)
        if removed:
            self._write_bucket(txn, bucket_page, local_depth, kept)
        return removed

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All ``(key, value)`` entries (unordered, each bucket once)."""
        _, pointers = self._read_directory()
        for page_no in dict.fromkeys(pointers):
            _, entries = self._read_bucket(page_no)
            for _, key, value in entries:
                yield key, value

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def pages(self) -> List[int]:
        """Every page of the index: directory, buckets, overflow chains."""
        pages = [self.directory_page]
        _, pointers = self._read_directory()
        for page_no in dict.fromkeys(pointers):
            while page_no != NO_PAGE:
                pages.append(page_no)
                with self._pool.page(page_no) as page:
                    page_no = page.next_page
        return pages

    def check_invariants(self) -> None:
        """Validate directory/bucket structure; raises IndexError_ if broken."""
        depth, pointers = self._read_directory()
        if len(pointers) != 1 << depth:
            raise IndexError_("directory size != 2**global_depth")
        for i, page_no in enumerate(pointers):
            local_depth, entries = self._read_bucket(page_no)
            if local_depth > depth:
                raise IndexError_("local depth exceeds global depth")
            for entry in entries:
                h = hash_key_bytes(entry[0])
                if (h ^ i) & ((1 << local_depth) - 1):
                    raise IndexError_(
                        "entry hashed to wrong bucket (slot %d)" % i)
