"""Unit tests for the page file (allocation, free list, named roots)."""

import os

import pytest

from repro.errors import PageError, StorageError
from repro.storage.page import (CHECKSUM_OFFSET, PAGE_SIZE, NO_PAGE,
                                verify_checksum)
from repro.storage.pagefile import PageFile


@pytest.fixture
def pf(tmp_path):
    f = PageFile(str(tmp_path / "pages"))
    yield f
    f.close()


class TestLifecycle:
    def test_new_file_has_header_page(self, pf):
        assert pf.page_count == 1

    def test_create_flag_semantics(self, tmp_path):
        path = str(tmp_path / "x")
        with pytest.raises(StorageError):
            PageFile(path, create=False)  # must exist
        f = PageFile(path, create=True)
        f.close()
        with pytest.raises(StorageError):
            PageFile(path, create=True)  # must not exist

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * PAGE_SIZE)
        with pytest.raises(StorageError):
            PageFile(path)

    def test_reopen_preserves_page_count(self, tmp_path):
        path = str(tmp_path / "pages")
        f = PageFile(path)
        for _ in range(5):
            f.allocate_page()
        f.close()
        f2 = PageFile(path)
        assert f2.page_count == 6
        f2.close()


class TestAllocation:
    def test_allocate_sequential(self, pf):
        assert pf.allocate_page() == 1
        assert pf.allocate_page() == 2
        assert pf.page_count == 3

    def test_read_write_round_trip(self, pf):
        page_no = pf.allocate_page()
        data = bytearray(os.urandom(PAGE_SIZE))
        pf.write_page(page_no, bytes(data))
        buf = bytearray(PAGE_SIZE)
        pf.read_page(page_no, buf)
        # write_page stamps the page checksum (format v2); everything
        # outside that field round-trips untouched.
        assert buf[:CHECKSUM_OFFSET] == data[:CHECKSUM_OFFSET]
        assert buf[CHECKSUM_OFFSET + 4:] == data[CHECKSUM_OFFSET + 4:]
        assert verify_checksum(buf)

    def test_free_then_recycle(self, pf):
        a = pf.allocate_page()
        b = pf.allocate_page()
        pf.free_page(a, 0)
        pf.free_page(b, 0)
        # LIFO recycling
        assert pf.allocate_page() == b
        assert pf.allocate_page() == a
        assert pf.allocate_page() == 3  # then fresh

    def test_page_zero_protected(self, pf):
        with pytest.raises(PageError):
            pf.write_page(0, b"\x00" * PAGE_SIZE)
        with pytest.raises(PageError):
            pf.read_page(0, bytearray(PAGE_SIZE))

    def test_out_of_range(self, pf):
        with pytest.raises(PageError):
            pf.read_page(99, bytearray(PAGE_SIZE))

    def test_wrong_buffer_length(self, pf):
        page_no = pf.allocate_page()
        with pytest.raises(PageError):
            pf.write_page(page_no, b"short")

    def test_free_list_survives_reopen(self, tmp_path):
        path = str(tmp_path / "pages")
        f = PageFile(path)
        a = f.allocate_page()
        f.allocate_page()
        f.free_page(a, 0)
        f.close()
        f2 = PageFile(path)
        assert f2.allocate_page() == a
        f2.close()


class TestRoots:
    def test_set_get(self, pf):
        pf.set_root("catalog", 42)
        assert pf.get_root("catalog") == 42

    def test_default(self, pf):
        assert pf.get_root("nothing") == NO_PAGE
        assert pf.get_root("nothing", 5) == 5

    def test_roots_survive_reopen(self, tmp_path):
        path = str(tmp_path / "pages")
        f = PageFile(path)
        f.set_root("a", 1)
        f.set_root("b", 2)
        f.close()
        f2 = PageFile(path)
        assert f2.get_root("a") == 1
        assert f2.get_root("b") == 2
        f2.close()

    def test_closed_file_rejects_io(self, tmp_path):
        f = PageFile(str(tmp_path / "pages"))
        f.allocate_page()
        f.close()
        with pytest.raises(StorageError):
            f.read_page(1, bytearray(PAGE_SIZE))
