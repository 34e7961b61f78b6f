"""Page-cache model.

An LRU cache of fixed-size pages keyed by (file id, page index).  Local
file systems consult it before touching the disk; this is what makes a
second pass over a database fragment essentially free when it fits in
RAM — and is the reason the paper notes (Section 4.3) that the nt
database being only 2–3× RAM size limits how much parallel I/O can help.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.cluster.params import MemoryParams


class PageCache:
    """LRU page cache for one node."""

    def __init__(self, params: MemoryParams | None = None, name: str = "pagecache"):
        self.params = params or MemoryParams()
        self.name = name
        self.page_size = self.params.page_size
        self.capacity_pages = int(self.params.ram * self.params.cache_fraction) // self.page_size
        self._pages: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _page_range(self, offset: int, size: int) -> range:
        first = offset // self.page_size
        last = (offset + size - 1) // self.page_size
        return range(first, last + 1)

    # ------------------------------------------------------------------
    def lookup(self, file_id: str, offset: int, size: int) -> Tuple[int, int]:
        """Return (hit_bytes, miss_bytes) for a read, updating LRU order
        and hit/miss counters.  Byte accounting is per page."""
        if size <= 0:
            return (0, 0)
        hit = miss = 0
        end = offset + size
        for page in self._page_range(offset, size):
            lo = max(offset, page * self.page_size)
            hi = min(end, (page + 1) * self.page_size)
            span = hi - lo
            key = (file_id, page)
            if key in self._pages:
                self._pages.move_to_end(key)
                hit += span
                self.hits += 1
            else:
                miss += span
                self.misses += 1
        return (hit, miss)

    def contains(self, file_id: str, offset: int, size: int) -> bool:
        """True if the whole byte range is cached (no LRU side effects)."""
        return all((file_id, p) in self._pages for p in self._page_range(offset, size))

    # ------------------------------------------------------------------
    def insert(self, file_id: str, offset: int, size: int) -> None:
        """Populate pages covering the range, evicting LRU pages."""
        if size <= 0:
            return
        for page in self._page_range(offset, size):
            key = (file_id, page)
            if key in self._pages:
                self._pages.move_to_end(key)
            else:
                self._pages[key] = None
                while len(self._pages) > self.capacity_pages:
                    self._pages.popitem(last=False)

    def invalidate(self, file_id: str) -> None:
        """Drop every cached page of *file_id* (e.g. on truncate)."""
        doomed = [k for k in self._pages if k[0] == file_id]
        for k in doomed:
            del self._pages[k]

    # ------------------------------------------------------------------
    @property
    def cached_pages(self) -> int:
        return len(self._pages)

    @property
    def cached_bytes(self) -> int:
        return len(self._pages) * self.page_size

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PageCache {self.name!r} pages={len(self._pages)}/"
                f"{self.capacity_pages}>")
