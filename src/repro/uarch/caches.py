"""Set-associative caches with true LRU replacement.

"A 128-set instruction cache with 64 byte blocks would likely use bits 6
through 12 of the instruction address as the set index" (§4.1): set
selection hashes the address, so code/data placement decides which
blocks conflict.  Conflict misses appear when more live blocks map to a
set than its associativity — the mechanism behind the paper's L1I/L2
blame analysis (§6.1) and the heap-randomization cache study (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def lru_access(ways: list[int], tag: int, associativity: int) -> bool:
    """Access *tag* in an MRU-first way list; return True on a miss.

    The one implementation of the true-LRU hit/fill discipline, shared
    by :class:`SetAssociativeCache` and the branch target buffer: a hit
    moves the tag to the MRU slot (skipped when already there), a miss
    installs it and evicts the LRU way once the set is full.
    """
    if tag in ways:
        if ways[0] != tag:
            ways.remove(tag)
            ways.insert(0, tag)
        return False
    ways.insert(0, tag)
    if len(ways) > associativity:
        ways.pop()
    return True


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    block_bytes: int = 64
    associativity: int = 8
    name: str = "cache"

    def __post_init__(self) -> None:
        if not _is_pow2(self.size_bytes):
            raise ConfigurationError(f"cache size must be a power of two, got {self.size_bytes}")
        if not _is_pow2(self.block_bytes):
            raise ConfigurationError(f"block size must be a power of two, got {self.block_bytes}")
        if self.associativity <= 0:
            raise ConfigurationError(f"associativity must be positive, got {self.associativity}")
        if self.size_bytes % (self.block_bytes * self.associativity) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"block*ways = {self.block_bytes * self.associativity}"
            )
        if self.n_sets < 1 or not _is_pow2(self.n_sets):
            raise ConfigurationError(f"{self.name}: set count {self.n_sets} must be a power of two")

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.block_bytes * self.associativity)

    @property
    def block_shift(self) -> int:
        """log2(block size)."""
        return self.block_bytes.bit_length() - 1


class LazyLruSets:
    """The ``_sets`` way lists of an LRU structure, built on first read.

    The scalar engine works on ``_sets``: one MRU-first tag list per
    set.  A bulk run keeps the kernel's
    :class:`~repro.uarch.vector.LruState` instead and turns it into
    lists only when something reads ``_sets`` (the scalar path or a
    post-state check).  After a lanes run it lists lane 0's sets, then
    lane 1's.  Subclasses set ``_n_sets`` before calling :meth:`reset`.
    """

    _n_sets: int

    def reset(self) -> None:
        """Empty every set."""
        self._ways: list[list[int]] | None = None
        self._lru: vector.LruState | None = None

    @property
    def _sets(self) -> list[list[int]]:
        if self._ways is None:
            if self._lru is None:
                self._ways = [[] for _ in range(self._n_sets)]
            else:
                self._ways = self._lru.to_ways_lists()
                self._lru = None
        return self._ways


class SetAssociativeCache(LazyLruSets):
    """A single cache level with true-LRU replacement.

    The cache is stateful across :meth:`access` calls; :meth:`reset`
    empties it.  Bulk simulation uses :meth:`simulate_mask`, which
    resets first and returns a per-access miss mask computed either by
    the :mod:`repro.uarch.vector` LRU kernel (``engine="vector"``) or
    by the per-access :meth:`access` oracle loop (``engine="scalar"``);
    both produce identical masks.  :meth:`simulate_lanes` runs several
    independent streams (one per layout) through the same kernel at
    once; a single stream is its one-lane case.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._n_sets = config.n_sets
        self.reset()

    def access(self, address: int) -> bool:
        """Access one address; return True on a miss."""
        block = address >> self.config.block_shift
        set_idx = block & (self.config.n_sets - 1)
        tag = block >> (self.config.n_sets.bit_length() - 1)
        return lru_access(self._sets[set_idx], tag, self.config.associativity)

    def simulate_mask(
        self, addresses: np.ndarray, engine: str = "vector"
    ) -> np.ndarray:
        """Reset, stream *addresses* through the cache, return miss mask."""
        vector.require_engine(engine)
        if engine == "scalar":
            self.reset()
            misses = np.zeros(int(addresses.size), dtype=bool)
            access = self.access
            for i, address in enumerate(addresses.tolist()):
                if access(address):
                    misses[i] = True
            return misses
        return self.simulate_lanes([addresses])[0]

    def simulate_lanes(self, address_streams: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Miss masks of cold runs over each stream, one layout lane each."""
        config = self.config
        self.reset()
        masks, self._lru = vector.lru_lanes(
            address_streams, config.block_shift, config.n_sets, config.associativity
        )
        return masks

    def simulate(self, addresses: np.ndarray, engine: str = "vector") -> int:
        """Reset and stream; return the miss count."""
        return int(np.count_nonzero(self.simulate_mask(addresses, engine=engine)))


@dataclass(frozen=True)
class HierarchyCounts:
    """Miss counts from one pass through a two-level hierarchy."""

    l1i_accesses: int
    l1i_misses: int
    l1d_accesses: int
    l1d_misses: int
    l2_accesses: int
    l2_misses: int


def _l2_fills(
    ifetch: np.ndarray,
    ifetch_events: np.ndarray,
    i_miss: np.ndarray,
    data: np.ndarray,
    data_events: np.ndarray,
    d_miss: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """L1 misses as the L2's access stream: addresses and their events.

    Fills are ordered by (event, fetch-before-data).
    """
    i_ev = ifetch_events[i_miss].astype(np.int64)
    d_ev = data_events[d_miss].astype(np.int64)
    merged_addr = np.concatenate([ifetch[i_miss], data[d_miss]])
    merged_ev = np.concatenate([i_ev, d_ev])
    order = np.argsort(np.concatenate([i_ev * 2, d_ev * 2 + 1]), kind="stable")
    return merged_addr[order], merged_ev[order]


def _window_counts(
    ifetch_events: np.ndarray,
    i_miss: np.ndarray,
    data_events: np.ndarray,
    d_miss: np.ndarray,
    l2_events: np.ndarray,
    l2_miss: np.ndarray,
    warmup_event: int,
) -> HierarchyCounts:
    """Accesses and misses of events at or past *warmup_event*."""
    i_window = ifetch_events >= warmup_event
    d_window = data_events >= warmup_event
    l2_window = l2_events >= warmup_event
    return HierarchyCounts(
        l1i_accesses=int(np.count_nonzero(i_window)),
        l1i_misses=int(np.count_nonzero(i_miss & i_window)),
        l1d_accesses=int(np.count_nonzero(d_window)),
        l1d_misses=int(np.count_nonzero(d_miss & d_window)),
        l2_accesses=int(np.count_nonzero(l2_window)),
        l2_misses=int(np.count_nonzero(l2_miss & l2_window)),
    )


class CacheHierarchy:
    """L1I + L1D backed by a unified L2.

    L1 misses are forwarded to the L2 in program (branch-event) order,
    instruction fetches before data references within one event —
    mirroring how a fetch precedes the loads its instructions perform.
    """

    def __init__(self, l1i: CacheConfig, l1d: CacheConfig, l2: CacheConfig) -> None:
        self.l1i = SetAssociativeCache(l1i)
        self.l1d = SetAssociativeCache(l1d)
        self.l2 = SetAssociativeCache(l2)

    def simulate(
        self,
        ifetch_addresses: np.ndarray,
        ifetch_events: np.ndarray,
        data_addresses: np.ndarray,
        data_events: np.ndarray,
        warmup_event: int = 0,
        engine: str = "vector",
    ) -> HierarchyCounts:
        """Simulate the full hierarchy over bound access streams.

        The whole streams are simulated (so the caches are warm), but
        accesses and misses are *counted* only for branch events with
        index >= *warmup_event* — the same measurement window the
        predictors use.  *engine* selects the per-level simulation
        implementation (see :meth:`SetAssociativeCache.simulate_mask`),
        never the counts; the vector engine is the one-lane case of
        :meth:`simulate_lanes`.
        """
        vector.require_engine(engine)
        if engine == "vector":
            return self.simulate_lanes(
                [ifetch_addresses], [ifetch_events],
                [data_addresses], [data_events], [warmup_event],
            )[0]
        i_miss = self.l1i.simulate_mask(ifetch_addresses, engine=engine)
        d_miss = self.l1d.simulate_mask(data_addresses, engine=engine)
        l2_stream, l2_events = _l2_fills(
            ifetch_addresses, ifetch_events, i_miss, data_addresses, data_events, d_miss
        )
        l2_miss = self.l2.simulate_mask(l2_stream, engine=engine)
        return _window_counts(
            ifetch_events, i_miss, data_events, d_miss, l2_events, l2_miss, warmup_event
        )

    def simulate_lanes(
        self,
        ifetch_addresses: Sequence[np.ndarray],
        ifetch_events: Sequence[np.ndarray],
        data_addresses: Sequence[np.ndarray],
        data_events: Sequence[np.ndarray],
        warmup_events: Sequence[int],
    ) -> list[HierarchyCounts]:
        """:meth:`simulate` for several layouts at once, one lane each.

        Each level runs all lanes in one
        :meth:`SetAssociativeCache.simulate_lanes` call; every lane's
        L2 stream is built from its own L1 misses first.
        """
        i_miss = self.l1i.simulate_lanes(ifetch_addresses)
        d_miss = self.l1d.simulate_lanes(data_addresses)
        fills = [
            _l2_fills(*lane)
            for lane in zip(
                ifetch_addresses, ifetch_events, i_miss, data_addresses, data_events, d_miss
            )
        ]
        l2_miss = self.l2.simulate_lanes([stream for stream, _ in fills])
        return [
            _window_counts(*lane)
            for lane in zip(
                ifetch_events,
                i_miss,
                data_events,
                d_miss,
                [events for _, events in fills],
                l2_miss,
                warmup_events,
            )
        ]


def _skew_hash(block: int, way: int, n_sets: int) -> int:
    """Per-way index hash for the skewed-associative cache.

    Distinct ways use distinct mixes of the block number's bit groups
    (a simplification of Seznec's XOR-based skewing functions).
    """
    mask = n_sets - 1
    if way == 0:
        return block & mask
    shifted = block >> (4 + way)
    return (block ^ shifted ^ (way * 0x9E37)) & mask


class SkewedAssociativeCache:
    """Skewed-associative cache (Seznec, ISCA 1993).

    Each way indexes with a *different* hash of the block address, so
    two blocks conflicting in one way almost never conflict in the
    others — the cache analogue of the gskew predictor, and the
    anti-aliasing counterpart to the conflict sensitivity that the
    heap-randomization study (Fig. 3) measures.  Replacement is
    round-robin among the candidate ways (true LRU is not defined when
    every way has its own set).
    """

    def __init__(self, config: CacheConfig) -> None:
        if config.associativity < 2:
            raise ConfigurationError("skewed caches need at least 2 ways")
        self.config = config
        self._ways: list[dict[int, int]] = []
        self._victim = 0
        self.reset()

    def reset(self) -> None:
        """Empty every way."""
        self._ways = [dict() for _ in range(self.config.associativity)]
        self._victim = 0

    def access(self, address: int) -> bool:
        """Access one address; return True on a miss."""
        block = address >> self.config.block_shift
        n_sets = self.config.n_sets
        for way, contents in enumerate(self._ways):
            idx = _skew_hash(block, way, n_sets)
            if contents.get(idx) == block:
                return False
        victim_way = self._victim
        self._victim = (self._victim + 1) % self.config.associativity
        idx = _skew_hash(block, victim_way, n_sets)
        self._ways[victim_way][idx] = block
        return True

    def simulate_mask(
        self, addresses: np.ndarray, engine: str = "vector"
    ) -> np.ndarray:
        """Reset, stream *addresses*, return the per-access miss mask.

        *engine* selects the implementation, never the counts: the
        scalar oracle streams through :meth:`access`; the bulk path
        fuses the per-way probes into one loop.
        """
        vector.require_engine(engine)
        self.reset()
        n = int(addresses.size)
        misses = np.zeros(n, dtype=bool)
        if engine == "scalar":
            access = self.access
            for i, address in enumerate(addresses.tolist()):
                if access(address):
                    misses[i] = True
            return misses
        config = self.config
        shift = config.block_shift
        n_sets = config.n_sets
        assoc = config.associativity
        ways = self._ways
        victim = 0
        blocks = (addresses >> shift).tolist()
        # repro: allow-PERF001 round-robin skewed replacement is a serial recurrence across all ways (the victim pointer advances only on misses, and every way hashes differently) — no vector kernel family covers it yet (ROADMAP item 1)
        for i, block in enumerate(blocks):
            hit = False
            for way in range(assoc):
                idx = _skew_hash(block, way, n_sets)
                if ways[way].get(idx) == block:
                    hit = True
                    break
            if not hit:
                misses[i] = True
                idx = _skew_hash(block, victim, n_sets)
                ways[victim][idx] = block
                victim = (victim + 1) % assoc
        self._victim = victim
        return misses

    def simulate(self, addresses: np.ndarray, engine: str = "vector") -> int:
        """Reset and stream; return the miss count."""
        return int(
            np.count_nonzero(self.simulate_mask(addresses, engine=engine))
        )
