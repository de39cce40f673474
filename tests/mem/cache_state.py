"""Shared test helper: a cache's resident lines, set by set."""

from repro.mem.cache import EMPTY


def lru_sets(cache):
    """Each set's resident ``(tag, dirty)`` pairs, LRU first, MRU last."""
    ways = list(zip(cache._tags, cache._dirty))[::-1]
    return [[(tags[s], dirty[s]) for tags, dirty in ways if tags[s] != EMPTY]
            for s in range(cache.config.num_sets)]
