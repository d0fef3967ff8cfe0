"""The storage engine substrate: pages, buffering, WAL, heaps, indexes.

The paper's prototype relied on an unpublished AT&T persistent store; this
package is the from-scratch replacement. The only class most users need is
:class:`Store`; the object layer (:mod:`repro.core`) builds the paper's
data model on top of it.
"""

from .btree import BTree
from .buffer import BufferPool
from .catalog import Catalog, ClusterInfo, IndexInfo
from .codec import decode_value, encode_key, encode_value
from .heap import RID, HeapFile
from .journal import Journal
from .locks import EXCLUSIVE, SHARED, LockManager
from .page import PAGE_SIZE, PageType, SlottedPage
from .pagefile import PageFile
from .recovery import RecoveryReport, recover
from .store import Store
from .wal import LogRecordType, WriteAheadLog

__all__ = [
    "BTree", "BufferPool", "Catalog", "ClusterInfo", "IndexInfo",
    "decode_value", "encode_key", "encode_value",
    "RID", "HeapFile", "Journal", "EXCLUSIVE", "SHARED", "LockManager",
    "PAGE_SIZE", "PageType", "SlottedPage", "PageFile", "RecoveryReport",
    "recover", "Store", "LogRecordType", "WriteAheadLog",
]
