"""Revision-tagged query-result cache for the serving layer.

:class:`QueryCache` memoizes *decoded* query results in front of a
store's readers-writer lock or a cluster coordinator's shard RPCs, both
through :func:`cached_answer`: a hit never takes the read lock, never
parses, never scans, asks no shard.  Correctness rests on two rules:

* every entry is tagged with the store **revision** (the last applied
  WAL LSN, or the cluster watermark) it was computed at, and a lookup
  only returns an entry whose tag equals the revision the caller is
  about to serve — a stale entry is a miss, never a wrong answer; and
* a writer **invalidates wholesale** after applying, so stale entries
  also stop occupying capacity.

Results are snapshotted on insert and copied on every hit, so callers
can mutate what they get back without poisoning the cache.

Keys are the whitespace-normalized query text (:func:`normalize_query`):
semantically identical requests differing only in layout share an entry,
while anything deeper (case, aliasing) intentionally stays distinct —
normalization must never conflate two queries with different answers.
"""

from __future__ import annotations

from ..cache import LRUCache
from ..engine.engine import QueryResult
from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = ["QueryCache", "cached_answer", "normalize_query"]

_HITS = _metrics.counter("service.cache.hits")
_MISSES = _metrics.counter("service.cache.misses")
_EVICTIONS = _metrics.counter("service.cache.evictions")
_INVALIDATIONS = _metrics.counter("service.cache.invalidations")

DEFAULT_CAPACITY = 256


_WS = " \t\n\r\f\v"


def normalize_query(text: str) -> str:
    """Collapse whitespace runs *outside quoted literals* — the cache key.

    Whitespace inside a quoted string (``"a  b"``, ``'a  b'``, and their
    triple-quoted forms, with backslash escapes honored) is significant
    to FILTER equality, so it is preserved byte-for-byte: collapsing it
    would give ``FILTER(?x = "a  b")`` and ``FILTER(?x = "a b")`` the
    same key and let them serve each other's (different) results — the
    exact conflation the module contract forbids.  An unterminated quote
    preserves the rest of the text verbatim (the parser will reject the
    query anyway; the key just must not collide with a valid one).
    """
    out: list[str] = []
    append = out.append
    i = 0
    n = len(text)
    pending_ws = False
    while i < n:
        ch = text[i]
        if ch in _WS:
            pending_ws = True
            i += 1
            continue
        if pending_ws and out:
            append(" ")
        pending_ws = False
        if ch in "\"'":
            quote = ch * 3 if text.startswith(ch * 3, i) else ch
            j = i + len(quote)
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text.startswith(quote, j):
                    j += len(quote)
                    break
                j += 1
            else:
                j = n
            # j may have skipped past n via an escape at the end; slicing
            # clamps, so the span is preserved verbatim either way.
            append(text[i:j])
            i = j
            continue
        append(ch)
        i += 1
    return "".join(out)


def _snapshot(result: QueryResult, revision: int) -> QueryResult:
    """An isolated copy of a result (rows are row-level copies)."""
    return QueryResult(
        variables=list(result.variables),
        rows=[dict(row) for row in result.rows],
        revision=revision,
    )


class QueryCache:
    """An LRU of decoded query results, each tagged with a store revision.

    Besides the revision tag, every entry records the cache *generation*
    it was computed in (bumped on :meth:`invalidate`).  The revision tag
    alone cannot catch one corner: a bulk load
    (:meth:`~repro.service.store.TemporalStore.load_dataset`) replaces
    the data without moving the revision, so a slow reader that started
    before the load could :meth:`put` a pre-load result *after* the
    load's invalidation — tagged with a still-current revision.  The
    reader's generation token (captured before its read) makes that
    entry unreturnable.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._lru = LRUCache(capacity, evictions=_EVICTIONS)
        self._generation = 0

    @property
    def generation(self) -> int:
        """Invalidation epoch; capture before computing a result to
        :meth:`put`."""
        return self._generation

    @property
    def capacity(self) -> int:
        """Maximum entries the cache holds."""
        return self._lru.capacity

    def get(self, key: str, revision: int) -> QueryResult | None:
        """The cached result for ``key`` at exactly ``revision``, or None.

        A revision or generation mismatch counts as a miss: the entry was
        computed against different data.
        """
        entry = self._lru.get(key)
        if (
            entry is None
            or entry[0] != self._generation
            or entry[1].revision != revision
        ):
            _trace.annotate(hit=False, revision=revision)
            if _metrics.ENABLED:
                _MISSES.inc()
            return None
        _trace.annotate(hit=True, revision=revision)
        if _metrics.ENABLED:
            _HITS.inc()
        return _snapshot(entry[1], revision)

    def put(
        self,
        key: str,
        revision: int,
        result: QueryResult,
        generation: int | None = None,
    ) -> None:
        """Remember ``result`` as computed at ``revision``.

        ``generation`` is the token captured before the result was
        computed (defaults to the current one).  Profiled results are the
        caller's to skip — profiles carry per-execution timings that make
        no sense replayed.
        """
        if generation is None:
            generation = self._generation
        self._lru.put(key, (generation, _snapshot(result, revision)))

    def invalidate(self) -> int:
        """Drop everything (a writer applied); returns entries dropped."""
        self._generation += 1
        dropped = self._lru.clear()
        if _metrics.ENABLED:
            _INVALIDATIONS.inc()
        return dropped

    def __len__(self) -> int:
        return len(self._lru)


def cached_answer(cache: QueryCache | None, text, revision: int, run,
                  profile: bool = False) -> tuple[QueryResult, bool]:
    """Answer ``text`` from ``cache`` at ``revision``, or by ``run()``
    put under the revision it pinned and the generation taken before it.
    A profiled or pre-parsed query, or no cache, just runs.  Returns the
    result and whether it was a hit."""
    key = hit = None
    if cache is not None and not profile and isinstance(text, str):
        key = normalize_query(text)
        with _trace.span("cache.lookup"):
            hit = cache.get(key, revision)
        generation = cache.generation
    _trace.annotate_trace(cache_hit=hit is not None)
    if hit is not None:
        return hit, True
    result = run()
    if key is not None:
        cache.put(key, result.revision, result, generation=generation)
    return result, False
