"""Branch target buffer.

"A branch target buffer (BTB) ... would use lower-order bits of the
branch address to index a table of branch targets" (§4.1).  We model a
tagged set-associative BTB that misses when a *taken* branch's entry has
been evicted — another address-hashed structure whose conflicts move
with code layout.  The reference machine charges a small refetch penalty
per BTB miss.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch import vector
from repro.uarch.caches import LazyLruSets, lru_access


class BranchTargetBuffer(LazyLruSets):
    """Set-associative, LRU, tag-matched BTB counting taken-branch misses."""

    def __init__(self, entries: int = 2048, associativity: int = 4, name: str = "btb") -> None:
        if entries <= 0 or (entries & (entries - 1)) != 0:
            raise ConfigurationError(f"BTB entries must be a power of two, got {entries}")
        if associativity <= 0 or entries % associativity != 0:
            raise ConfigurationError(
                f"BTB associativity {associativity} must divide entries {entries}"
            )
        self.entries = entries
        self.associativity = associativity
        self.n_sets = entries // associativity
        self.name = name
        self._n_sets = self.n_sets
        self.reset()

    def lookup_and_update(self, pc: int, taken: int) -> bool:
        """Access the BTB for the branch at *pc*.

        Returns True on a miss that matters (the branch was taken but
        had no entry).  Taken branches allocate/refresh their entry;
        not-taken branches never miss (fall-through needs no target).
        """
        if not taken:
            return False
        idx = (pc >> 2) & (self.n_sets - 1)
        tag = (pc >> 2) >> (self.n_sets.bit_length() - 1)
        return lru_access(self._sets[idx], tag, self.associativity)

    def simulate(
        self,
        addresses: np.ndarray,
        outcomes: np.ndarray,
        warmup: int = 0,
        engine: str = "vector",
    ) -> int:
        """Reset and stream the branch trace; return taken-branch misses.

        Misses are counted only for events with index >= *warmup*; the
        warm-up region still trains the buffer.  *engine* selects the
        implementation (the LRU kernel or the per-event
        :meth:`lookup_and_update` oracle loop), never the count; the
        vector engine is the one-lane case of :meth:`simulate_lanes`.
        """
        vector.require_engine(engine)
        if engine == "scalar":
            if warmup < 0:
                raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
            self.reset()
            lookup = self.lookup_and_update
            misses = 0
            for i, (pc, taken) in enumerate(
                zip(addresses.tolist(), outcomes.tolist())
            ):
                if lookup(pc, taken) and i >= warmup:
                    misses += 1
            return misses
        return self.simulate_lanes([addresses], [outcomes], [warmup])[0]

    def simulate_lanes(
        self,
        addresses: Sequence[np.ndarray],
        outcomes: Sequence[np.ndarray],
        warmups: Sequence[int],
    ) -> list[int]:
        """:meth:`simulate` for several layouts at once, one lane each.

        Only taken branches touch the buffer, so each lane's stream is
        its taken branches' pcs; all lanes share one LRU kernel call.
        """
        if any(warmup < 0 for warmup in warmups):
            raise ConfigurationError(f"warmup must be >= 0, got {min(warmups)}")
        self.reset()
        taken = [np.flatnonzero(lane_outcomes) for lane_outcomes in outcomes]
        masks, self._lru = vector.lru_lanes(
            [pcs[events] for pcs, events in zip(addresses, taken)],
            2,
            self.n_sets,
            self.associativity,
        )
        # Taken-event indices are sorted: the window starts at a search.
        return [
            int(np.count_nonzero(mask[np.searchsorted(events, warmup) :]))
            for mask, events, warmup in zip(masks, taken, warmups)
        ]
