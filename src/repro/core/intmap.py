"""A paged int→int map: the dense-id lookup table of the slab core.

``dict[int, int]`` costs ~100 bytes per entry (slot + two boxed ints);
for the core's hot mappings (oid → slot, oid → inode id, oid → extent
position) the keys are dense machine ints, so a paged flat array gets
the same O(1) lookup at ~8 bytes per entry.  Keys hash by ``key >> 10``
into fixed 1024-entry ``array('q')`` pages; absent entries hold ``-1``.

Values must be non-negative (``-1`` is the absence sentinel).  Keys may
be any int, including negatives — Python's floor-division semantics
make ``key >> PAGE_BITS`` / ``key & PAGE_MASK`` well-defined there too.
Non-int keys are simply absent (lookups return the default), matching
the dict-backed core where a str key was never found among int oids.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional

PAGE_BITS = 10
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1

_EMPTY_PAGE_BYTES = b"\xff" * (8 * PAGE_SIZE)  # -1 in two's complement


def _new_page() -> array:
    return array("q", _EMPTY_PAGE_BYTES)


#: a shared all-absent page for bulk reads of missing pages (never written)
_ABSENT_PAGE = _new_page()


class PagedIntMap:
    """An int→int mapping stored as pages of ``array('q')``.

    Implements the read surface the journal/serving layers rely on
    (``get``, ``__contains__``, ``__getitem__``, iteration in ascending
    key order) plus the mutators the cores need.
    """

    __slots__ = ("_pages", "_count")

    def __init__(self) -> None:
        self._pages: dict[int, array] = {}
        self._count: int = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: int, default: Optional[int] = None) -> Optional[int]:
        """The value at *key*, or *default* when absent (dict semantics)."""
        if type(key) is not int:
            if not isinstance(key, int):  # bool is fine; str/float are absent
                return default
            key = int(key)
        page = self._pages.get(key >> PAGE_BITS)
        if page is None:
            return default
        value = page[key & PAGE_MASK]
        return default if value < 0 else value

    def __getitem__(self, key: int) -> int:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key: object) -> bool:
        return self.get(key) is not None  # type: ignore[arg-type]

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        """Iterate over present keys in ascending order."""
        for page_no in sorted(self._pages):
            page = self._pages[page_no]
            base = page_no << PAGE_BITS
            for offset in range(PAGE_SIZE):
                if page[offset] >= 0:
                    yield base + offset

    def keys(self) -> Iterator[int]:
        return iter(self)

    def items(self) -> Iterator[tuple[int, int]]:
        for page_no in sorted(self._pages):
            page = self._pages[page_no]
            base = page_no << PAGE_BITS
            for offset in range(PAGE_SIZE):
                value = page[offset]
                if value >= 0:
                    yield base + offset, value

    # ------------------------------------------------------------------
    # Mutators
    # ------------------------------------------------------------------

    def __setitem__(self, key: int, value: int) -> None:
        if value < 0:
            raise ValueError(f"PagedIntMap values must be >= 0, got {value}")
        page_no = key >> PAGE_BITS
        page = self._pages.get(page_no)
        if page is None:
            page = self._pages[page_no] = _new_page()
        offset = key & PAGE_MASK
        if page[offset] < 0:
            self._count += 1
        page[offset] = value

    def __delitem__(self, key: int) -> None:
        page = self._pages.get(key >> PAGE_BITS)
        offset = key & PAGE_MASK
        if page is None or page[offset] < 0:
            raise KeyError(key)
        page[offset] = -1
        self._count -= 1

    def pop(self, key: int, *default: int) -> Optional[int]:
        value = self.get(key)
        if value is None:
            if default:
                return default[0]
            raise KeyError(key)
        del self[key]
        return value

    def clear(self) -> None:
        self._pages.clear()
        self._count = 0

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------

    def get_many(self, keys) -> list[int]:
        """The values at *keys*, in order, with ``-1`` where absent.

        The bulk read of the scoped invariant checks: one list
        comprehension over the pages instead of a :meth:`get` call per
        key.  Keys must be non-negative ints.
        """
        pages = self._pages
        empty = _ABSENT_PAGE
        return [pages.get(key >> PAGE_BITS, empty)[key & PAGE_MASK] for key in keys]

    def set_all(self, keys, value: int) -> None:
        """Bulk ``self[k] = value`` over *keys*.

        The keys must be distinct and previously absent (the index-build
        fast path: assigning a freshly created inode to a block of
        dnodes) — the count is advanced without per-key occupancy
        checks.
        """
        if value < 0:
            raise ValueError(f"PagedIntMap values must be >= 0, got {value}")
        pages = self._pages
        count = 0
        for key in keys:
            page_no = key >> PAGE_BITS
            page = pages.get(page_no)
            if page is None:
                page = pages[page_no] = _new_page()
            page[key & PAGE_MASK] = value
            count += 1
        self._count += count

    def set_enumerated(self, keys) -> None:
        """Bulk ``self[keys[i]] = i``.

        Same distinct/previously-absent contract as :meth:`set_all`; the
        index-build fast path uses it to assign extent positions to a
        block in one pass.
        """
        pages = self._pages
        position = 0
        for key in keys:
            page_no = key >> PAGE_BITS
            page = pages.get(page_no)
            if page is None:
                page = pages[page_no] = _new_page()
            page[key & PAGE_MASK] = position
            position += 1
        self._count += position

    def copy(self) -> "PagedIntMap":
        clone = PagedIntMap()
        clone._pages = {no: array("q", page) for no, page in self._pages.items()}
        clone._count = self._count
        return clone

    def approx_bytes(self) -> int:
        """Resident bytes of the pages plus the page directory."""
        import sys

        total = sys.getsizeof(self._pages)
        for page in self._pages.values():
            total += sys.getsizeof(page) + 64  # page + dict entry overhead
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PagedIntMap len={self._count} pages={len(self._pages)}>"
