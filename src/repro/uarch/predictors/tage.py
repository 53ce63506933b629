"""TAGE and L-TAGE predictors (Seznec, CBP-2 / JILP 2007).

TAGE combines a bimodal base predictor with several partially tagged
tables indexed by geometrically increasing global-history lengths.
L-TAGE adds a loop predictor that captures long regular loops exactly.
The paper uses L-TAGE as "currently the most accurate branch predictor
in the academic literature" (§7.2.2) and estimates the CPI it would
yield on the Xeon via the interferometry regression model.

The implementation follows the reference simulator's structure —
folded-history index/tag computation, provider/alternate prediction,
useful counters, and allocation on mispredictions — simplified where
hardware-bit-exactness is irrelevant to this study.

State is flat and shared by both engines: one table-major
``tag``/``ctr``/``useful`` list across the tagged components, integer
folded-history registers, and (L-TAGE) one list per loop-predictor
field.  The scalar oracle, :meth:`TagePredictor.predict_and_update`,
updates the folded histories incrementally (:func:`_fold_step`, O(1)
per branch).  The vector engine relies on the folded histories being
a pure function of the outcome stream, never of the code layout: it
computes every table's index and tag streams up front with
:func:`repro.uarch.vector.folded_histories`, leaving provider
selection, training, allocation and the loop override to one fused
per-event loop over the flat lists.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch.predictors.base import BranchPredictor, require_power_of_two
from repro.uarch.vector import folded_histories


def _fold_step(comp: int, new_bit: int, evicted_bit: int, length: int, bits: int) -> int:
    """One incremental update of a folded-history register.

    Rotates the *bits*-wide register left by one, shifts in *new_bit*
    and cancels *evicted_bit*, the outcome leaving the *length*-deep
    window (it sat at position ``length % bits``).
    """
    comp = ((comp << 1) | new_bit) ^ (evicted_bit << (length % bits))
    comp ^= comp >> bits
    return comp & ((1 << bits) - 1)


def _packed_tail(outcomes: np.ndarray, length: int) -> int:
    """The newest *length* outcomes as an integer, newest at bit 0."""
    tail = np.asarray(outcomes[-length:], dtype=np.uint8)
    if tail.size == 0:
        return 0
    pad = -tail.size % 8
    return int.from_bytes(np.packbits(tail).tobytes(), "big") >> pad


class TagePredictor(BranchPredictor):
    """Tagged geometric-history predictor.

    Parameters
    ----------
    table_bits:
        log2 entries of each tagged table.
    history_lengths:
        Geometric history lengths, shortest first.
    tag_bits:
        Tag width of the tagged tables.
    bimodal_bits:
        log2 entries of the bimodal base table.
    """

    #: Loop-predictor entries; 0 means no loop predictor (plain TAGE).
    loop_entries = 0

    def __init__(
        self,
        table_bits: int = 10,
        history_lengths: tuple[int, ...] = (5, 14, 40, 114),
        tag_bits: int = 9,
        bimodal_bits: int = 12,
        name: str = "tage",
    ) -> None:
        if sorted(history_lengths) != list(history_lengths):
            raise ConfigurationError("history_lengths must be increasing")
        if not history_lengths or history_lengths[0] < 1:
            raise ConfigurationError("history_lengths must be positive and non-empty")
        if tag_bits < 2 or table_bits < len(history_lengths) - 1:
            raise ConfigurationError(
                "TAGE needs tag_bits >= 2 and table_bits >= len(history_lengths) - 1"
            )
        require_power_of_two(1 << table_bits, "TAGE table size")
        self.table_bits = table_bits
        self.history_lengths = tuple(history_lengths)
        self.tag_bits = tag_bits
        self.bimodal_bits = bimodal_bits
        self.name = name
        self.n_tables = len(history_lengths)
        self._reset_structures()

    def _reset_structures(self) -> None:
        entries = self.n_tables << self.table_bits
        self._bimodal = [2] * (1 << self.bimodal_bits)
        # Tagged entry (table i, index idx) lives at (i << table_bits) | idx.
        self._tag = [0] * entries
        self._ctr = [4] * entries  # 3-bit counters, 4 = weakly taken
        self._useful = [0] * entries
        self._hist = 0
        self._fold_idx = [0] * self.n_tables
        self._fold_tag0 = [0] * self.n_tables
        self._fold_tag1 = [0] * self.n_tables
        # Deterministic allocation tie-breaker (LFSR).
        self._lfsr = 0xACE1
        self._use_alt_on_new = 8  # 4-bit counter, >= 8 means "use alt"

    def reset(self) -> None:
        self._reset_structures()

    def storage_bits(self) -> int:
        tagged = self.n_tables * (1 << self.table_bits) * (self.tag_bits + 3 + 2)
        return tagged + 2 * (1 << self.bimodal_bits)

    def _next_random(self) -> int:
        lfsr = self._lfsr
        bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
        self._lfsr = (lfsr >> 1) | (bit << 15)
        return self._lfsr

    def _indices_and_tags(self, pc: int) -> tuple[list[int], list[int]]:
        """Flat entry indices and tags of every tagged table for *pc*."""
        idx_mask = (1 << self.table_bits) - 1
        tag_mask = (1 << self.tag_bits) - 1
        pc2 = pc >> 2
        indices = []
        tags = []
        for i in range(self.n_tables):
            idx = (pc2 ^ (pc2 >> (self.table_bits - i)) ^ self._fold_idx[i]) & idx_mask
            tag = (pc2 ^ self._fold_tag0[i] ^ (self._fold_tag1[i] << 1)) & tag_mask
            indices.append((i << self.table_bits) | idx)
            tags.append(tag)
        return indices, tags

    def _update_histories(self, outcome: int) -> None:
        old_hist = self._hist
        for i, length in enumerate(self.history_lengths):
            evicted = (old_hist >> (length - 1)) & 1
            self._fold_idx[i] = _fold_step(
                self._fold_idx[i], outcome, evicted, length, self.table_bits
            )
            self._fold_tag0[i] = _fold_step(
                self._fold_tag0[i], outcome, evicted, length, self.tag_bits
            )
            self._fold_tag1[i] = _fold_step(
                self._fold_tag1[i], outcome, evicted, length, self.tag_bits - 1
            )
        max_len = self.history_lengths[-1]
        self._hist = ((old_hist << 1) | outcome) & ((1 << max_len) - 1)

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        indices, tags = self._indices_and_tags(pc)
        tag, ctr, useful = self._tag, self._ctr, self._useful

        provider = -1
        alt = -1
        for i in range(self.n_tables - 1, -1, -1):
            if tag[indices[i]] == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alt = i
                    break

        bim_idx = (pc >> 2) & ((1 << self.bimodal_bits) - 1)
        bim_pred = 1 if self._bimodal[bim_idx] >= 2 else 0

        if alt >= 0:
            alt_pred = 1 if ctr[indices[alt]] >= 4 else 0
        else:
            alt_pred = bim_pred

        if provider >= 0:
            entry = indices[provider]
            provider_pred = 1 if ctr[entry] >= 4 else 0
            # Newly allocated, unconfident entries may defer to alt.
            weak = ctr[entry] in (3, 4) and useful[entry] == 0
            if weak and self._use_alt_on_new >= 8:
                prediction = alt_pred
            else:
                prediction = provider_pred
        else:
            provider_pred = alt_pred
            prediction = alt_pred

        correct = prediction == outcome

        # --- update ---
        if provider >= 0:
            entry = indices[provider]
            weak = ctr[entry] in (3, 4) and useful[entry] == 0
            if weak and provider_pred != alt_pred:
                # Track whether alt beats a fresh provider.
                if alt_pred == outcome and self._use_alt_on_new < 15:
                    self._use_alt_on_new += 1
                elif alt_pred != outcome and self._use_alt_on_new > 0:
                    self._use_alt_on_new -= 1
            # Useful bit: provider was right where alt was wrong.
            if provider_pred != alt_pred:
                if provider_pred == outcome:
                    if useful[entry] < 3:
                        useful[entry] += 1
                elif useful[entry] > 0:
                    useful[entry] -= 1
            # Train the provider counter.
            if outcome:
                if ctr[entry] < 7:
                    ctr[entry] += 1
            elif ctr[entry] > 0:
                ctr[entry] -= 1
            if provider == 0 or useful[entry] == 0:
                # Also keep the base predictor warm for this branch.
                self._train_bimodal(bim_idx, outcome)
        else:
            self._train_bimodal(bim_idx, outcome)

        # Allocate on a misprediction if a longer history table exists.
        if not correct and provider < self.n_tables - 1:
            start = provider + 1
            allocated = False
            rand = self._next_random()
            # Skip one table with probability 1/2 to decorrelate.
            if start < self.n_tables - 1 and (rand & 1):
                start += 1
            for i in range(start, self.n_tables):
                entry = indices[i]
                if useful[entry] == 0:
                    tag[entry] = tags[i]
                    ctr[entry] = 4 if outcome else 3
                    allocated = True
                    break
            if not allocated:
                for i in range(start, self.n_tables):
                    entry = indices[i]
                    if useful[entry] > 0:
                        useful[entry] -= 1

        self._update_histories(outcome)
        return correct

    def _train_bimodal(self, idx: int, outcome: int) -> None:
        counter = self._bimodal[idx]
        if outcome:
            if counter < 3:
                self._bimodal[idx] = counter + 1
        elif counter > 0:
            self._bimodal[idx] = counter - 1

    def _vector_mispredict_mask(
        self, addresses: np.ndarray, outcomes: np.ndarray
    ) -> np.ndarray:
        """Closed-form index/tag streams, then one fused per-event loop.

        Runs from the power-on history, as :meth:`simulate` guarantees.
        Each event's lookup in tagged table ``i`` is one key,
        ``tag << entry_bits | entry``; a set of the keys the tables hold
        now turns the provider search into one ``isdisjoint`` call on
        the common all-miss path.  The streams and the set are locals,
        so they are freed when the call returns.
        """
        n = int(outcomes.size)
        n_tables = self.n_tables
        table_bits = self.table_bits
        entry_bits = ((n_tables << table_bits) - 1).bit_length()
        entry_mask = (1 << entry_bits) - 1
        pc2 = addresses.astype(np.int64) >> 2
        keys_by_table = np.empty((n_tables, n), dtype=np.int64)
        for i, length in enumerate(self.history_lengths):
            fold_idx, self._fold_idx[i] = folded_histories(outcomes, length, table_bits)
            fold_tag0, self._fold_tag0[i] = folded_histories(
                outcomes, length, self.tag_bits
            )
            fold_tag1, self._fold_tag1[i] = folded_histories(
                outcomes, length, self.tag_bits - 1
            )
            idx = (pc2 ^ (pc2 >> (table_bits - i)) ^ fold_idx) & ((1 << table_bits) - 1)
            tags = (pc2 ^ fold_tag0 ^ (fold_tag1 << 1)) & ((1 << self.tag_bits) - 1)
            keys_by_table[i] = (tags << entry_bits) | (i << table_bits) | idx
        self._hist = _packed_tail(outcomes, self.history_lengths[-1])
        bim_cols = (pc2 & ((1 << self.bimodal_bits) - 1)).tolist()
        has_loop = self.loop_entries > 0
        if has_loop:
            loop_idx = (pc2 & (self.loop_entries - 1)).tolist()
            loop_tags = (pc2 >> self.loop_entries.bit_length()).tolist()
            l_tag, l_past = self._loop_tag, self._loop_past
            l_cur, l_conf, l_age = self._loop_current, self._loop_confidence, self._loop_age
        else:
            loop_idx, loop_tags = repeat(0, n), repeat(0, n)

        tag, ctr, useful, bimodal = self._tag, self._ctr, self._useful, self._bimodal
        held = set(
            ((np.array(tag, dtype=np.int64) << entry_bits) | np.arange(len(tag))).tolist()
        )
        all_miss = held.isdisjoint
        lfsr, use_alt = self._lfsr, self._use_alt_on_new
        last = n_tables - 1
        newest_first = range(last, -1, -1)
        mispredicted = bytearray(n)
        # repro: allow-PERF001 TAGE's provider search, useful-bit training and LFSR allocation make each event's table state depend on every earlier event's hit pattern — no scan formulation exists; the layout-invariant history work is precomputed by folded_histories and this one fused loop does only the table walk
        for t, outcome, bi, keys, li, lt in zip(
            range(n), outcomes.tolist(), bim_cols, zip(*keys_by_table.tolist()),
            loop_idx, loop_tags,
        ):
            if has_loop:
                loop_hit = l_tag[li] == lt
                loop_pred = -1
                if loop_hit and l_conf[li] >= 3 and l_past[li] > 0:
                    loop_pred = 1 if l_cur[li] + 1 < l_past[li] else 0

            provider = alt = -1
            if not all_miss(keys):
                for i in newest_first:
                    if keys[i] in held:
                        if provider < 0:
                            provider = i
                        else:
                            alt = i
                            break
            bim = bimodal[bi]
            if alt >= 0:
                alt_pred = 1 if ctr[keys[alt] & entry_mask] >= 4 else 0
            else:
                alt_pred = 1 if bim >= 2 else 0

            if provider >= 0:
                e = keys[provider] & entry_mask
                c = ctr[e]
                u = useful[e]
                provider_pred = 1 if c >= 4 else 0
                weak = (c == 3 or c == 4) and u == 0
                if weak and use_alt >= 8:
                    correct = alt_pred == outcome
                else:
                    correct = provider_pred == outcome
                if provider_pred != alt_pred:
                    if weak:
                        if alt_pred == outcome:
                            if use_alt < 15:
                                use_alt += 1
                        elif use_alt > 0:
                            use_alt -= 1
                    if provider_pred == outcome:
                        if u < 3:
                            u += 1
                            useful[e] = u
                    elif u > 0:
                        u -= 1
                        useful[e] = u
                if outcome:
                    if c < 7:
                        ctr[e] = c + 1
                elif c > 0:
                    ctr[e] = c - 1
                train_bimodal = provider == 0 or u == 0
            else:
                correct = alt_pred == outcome
                train_bimodal = True
            if train_bimodal:
                if outcome:
                    if bim < 3:
                        bimodal[bi] = bim + 1
                elif bim > 0:
                    bimodal[bi] = bim - 1

            if not correct and provider < last:
                lfsr = (lfsr >> 1) | (
                    ((lfsr ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1) << 15
                )
                start = provider + 1
                if start < last and lfsr & 1:
                    start += 1
                for i in range(start, n_tables):
                    key = keys[i]
                    e = key & entry_mask
                    if useful[e] == 0:
                        held.remove((tag[e] << entry_bits) | e)
                        held.add(key)
                        tag[e] = key >> entry_bits
                        ctr[e] = 4 if outcome else 3
                        break
                else:
                    for i in range(start, n_tables):
                        e = keys[i] & entry_mask
                        if useful[e] > 0:
                            useful[e] -= 1

            if has_loop:
                if loop_hit:
                    if outcome:
                        current = l_cur[li] + 1
                        l_cur[li] = current
                        if l_past[li] and current > l_past[li]:
                            l_conf[li] = 0
                            l_past[li] = 0
                    else:
                        finished = l_cur[li] + 1
                        if l_past[li] == finished:
                            if l_conf[li] < 7:
                                l_conf[li] += 1
                        else:
                            l_past[li] = finished
                            l_conf[li] = 0
                        l_cur[li] = 0
                elif not correct and outcome == 0:
                    if l_age[li] == 0:
                        l_tag[li] = lt
                        l_past[li] = 0
                        l_cur[li] = 0
                        l_conf[li] = 0
                        l_age[li] = 7
                    else:
                        l_age[li] -= 1
                if loop_pred >= 0:
                    correct = loop_pred == outcome
            if not correct:
                mispredicted[t] = 1
        self._lfsr, self._use_alt_on_new = lfsr, use_alt
        return np.frombuffer(mispredicted, dtype=np.bool_)


class LTagePredictor(TagePredictor):
    """L-TAGE: TAGE plus a loop predictor.

    The loop predictor captures branches with a constant iteration
    count exactly (confidence builds when the same trip count repeats);
    when confident, it overrides TAGE for that branch.
    """

    def __init__(
        self,
        table_bits: int = 11,
        history_lengths: tuple[int, ...] = (5, 14, 40, 114),
        tag_bits: int = 9,
        bimodal_bits: int = 13,
        loop_entries: int = 256,
        name: str = "L-TAGE",
    ) -> None:
        self.loop_entries = require_power_of_two(loop_entries, "loop predictor entries")
        super().__init__(
            table_bits=table_bits,
            history_lengths=history_lengths,
            tag_bits=tag_bits,
            bimodal_bits=bimodal_bits,
            name=name,
        )

    def _reset_structures(self) -> None:
        super()._reset_structures()
        entries = self.loop_entries
        self._loop_tag = [-1] * entries
        self._loop_past = [0] * entries
        self._loop_current = [0] * entries
        self._loop_confidence = [0] * entries
        self._loop_age = [0] * entries

    def storage_bits(self) -> int:
        return super().storage_bits() + self.loop_entries * (14 + 14 + 14 + 3 + 8)

    def predict_and_update(self, pc: int, outcome: int) -> bool:
        idx = (pc >> 2) & (self.loop_entries - 1)
        loop_tag = (pc >> 2) >> self.loop_entries.bit_length()
        past, current = self._loop_past, self._loop_current
        confidence = self._loop_confidence

        loop_hit = self._loop_tag[idx] == loop_tag
        loop_pred = None
        if loop_hit and confidence[idx] >= 3 and past[idx] > 0:
            # Predict taken until the recorded trip count is reached.
            loop_pred = 1 if current[idx] + 1 < past[idx] else 0

        # Run TAGE for training regardless (records its own correctness).
        tage_correct = super().predict_and_update(pc, outcome)

        if loop_pred is not None:
            correct = loop_pred == outcome
        else:
            correct = tage_correct

        # --- loop predictor update ---
        if loop_hit:
            if outcome:
                current[idx] += 1
                if past[idx] and current[idx] > past[idx]:
                    # Trip count changed; lose confidence.
                    confidence[idx] = 0
                    past[idx] = 0
            else:
                finished = current[idx] + 1
                if past[idx] == finished:
                    if confidence[idx] < 7:
                        confidence[idx] += 1
                else:
                    past[idx] = finished
                    confidence[idx] = 0
                current[idx] = 0
        elif not tage_correct and outcome == 0:
            # Allocate on a mispredicted loop-exit-looking branch.
            if self._loop_age[idx] == 0:
                self._loop_tag[idx] = loop_tag
                past[idx] = 0
                current[idx] = 0
                confidence[idx] = 0
                self._loop_age[idx] = 7
            else:
                self._loop_age[idx] -= 1
        return correct
