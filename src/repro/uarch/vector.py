"""Vectorized batch kernels for the per-event simulation loops.

Every predictor/cache update loop in this package is a sequential
recurrence over one trace: saturating counters indexed by (pc, history)
hashes, LRU stacks indexed by set, last-value tables indexed by pc.
These kernels replace the per-event Python loops with numpy array
passes while reproducing the scalar semantics *bit for bit* — the
scalar loops stay as the differential-testing oracle (METHODOLOGY.md
§12), and `tests/test_vector_differential.py` enforces equality.

The key observation making branch structures vectorizable is that the
trace is known ahead of time: global/local history registers are pure
functions of past outcomes, so every table index can be materialized
up front.  What remains per table entry is an independent sequential
recurrence, handled by one of four segmented scans:

* :func:`counter_scan` — saturating-counter tables.  Counter updates
  are clamped additions ``x -> min(max(x + d, lo), hi)``; that function
  family is closed under composition, so per-event pre-update states
  come from a segmented Hillis–Steele scan over (delta, lo, hi)
  triples.  Runs of equal deltas within a segment collapse to a single
  clamp step first (exact for same-sign deltas), which shortens the
  scan on the taken-biased streams real traces produce.
* :func:`shifted_histories` — per-event shift-register values (global
  branch history, ITTAGE target history) in ``ceil(bits/shift)``
  passes.
* :func:`folded_histories` — TAGE's folded global histories as a
  closed-form XOR over the outcome stream.
* :func:`local_history_scan` — per-address shift registers (PAs and
  tournament BHTs): the same recurrence, segmented by table entry.
* :func:`last_value_scan` / :func:`sticky_install_scan` — last-target
  tables and set-once bias bits.

LRU state (caches, BTB) is *not* a pure function of past accesses with
any algebraic shortcut we know, so :func:`lru_scan` keeps the
recurrence but runs it set-parallel: accesses are grouped into rounds
by their position within their set, and each round updates every
active set at once on a matrix of MRU-ordered tag rows.  Consecutive
same-block accesses to a set are guaranteed MRU hits with no state
change and are condensed away first — sequential fetch streams shrink
by an order of magnitude.  The round count is set by the busiest set,
not by the number of sets, so :func:`lru_lanes` stacks the streams of
several layouts (*layout lanes*: lane ``k`` owns sets ``k * n_sets``
onwards) into one scan; a single stream is the one-lane case.  Lanes
are exact because they never share a set and the scan keeps each
set's accesses in stream order.  :data:`LANE_ACCESSES` sizes a lanes
call to bound its memory.

All kernels carry state across :data:`CHUNK_EVENTS`-sized chunks so
memory stays bounded on long traces.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Engines accepted by every ``simulate(..., engine=...)`` knob.
ENGINES = ("scalar", "vector")

#: Events processed per kernel invocation; state is carried between
#: chunks, so results are independent of the chunk size.
CHUNK_EVENTS = 1 << 18

# Sentinel bounds for the identity clamp function (no-op composition
# partner in the segmented scan).  Far outside any counter range but
# small enough that adding a trace-length delta cannot overflow int64.
_NEG = -(1 << 40)
_POS = 1 << 40


def require_engine(engine: str) -> str:
    """Validate an ``engine`` knob value and return it."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    return engine


def iter_chunks(n: int, chunk: int = CHUNK_EVENTS) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` slices covering ``range(n)``."""
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def _stable_order(indices: np.ndarray, value_bound: int) -> np.ndarray:
    """Stable argsort of bounded non-negative integer keys.

    Casting to the narrowest sufficient integer type lets numpy use
    radix sorting, which dominates the scan cost otherwise.
    """
    if value_bound <= (1 << 15):
        return np.argsort(indices.astype(np.int16), kind="stable")
    return np.argsort(indices.astype(np.int32), kind="stable")


def _trailing_packed(values: np.ndarray, depth: int, shift: int) -> np.ndarray:
    """Bit-pack the trailing window before each position.

    Returns ``s`` with ``s[i] = OR_j values[i - 1 - j] << (shift * j)``
    for ``j in 0 .. depth - 1`` (missing positions contribute zero).
    *values* must already be masked to *shift* bits, so the packed
    fields are disjoint and OR equals the weighted sum.  Pure integer
    shift/OR passes — exact, no float round-trip.
    """
    n = int(values.size)
    out = np.zeros(n, dtype=np.int64)
    w = values.astype(np.int64)
    for j in range(min(depth, n)):
        if j:
            w <<= shift
        out[j + 1 :] |= w[: n - 1 - j]
    return out


def shifted_histories(
    bits: int, values: np.ndarray, carry_in: int, shift: int = 1
) -> tuple[np.ndarray, int]:
    """Per-event values of a shift register fed by *values*.

    Models ``h_next = ((h << shift) | value) & ((1 << bits) - 1)`` with
    *values* already masked to *shift* bits.  Returns the register as
    seen *before* each event, plus the carry-out after the last event.
    """
    mask = (1 << bits) - 1
    n = int(values.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64), carry_in
    depth = -(-bits // shift)
    hist = _trailing_packed(values, depth, shift)
    head = min(depth, n)
    hist[:head] |= np.int64(carry_in) << (shift * np.arange(head, dtype=np.int64))
    hist &= mask
    carry_out = int(((hist[n - 1] << shift) | values[n - 1]) & mask)
    return hist, carry_out


def folded_histories(
    outcomes: np.ndarray, length: int, bits: int
) -> tuple[np.ndarray, int]:
    """Per-event values of a TAGE folded global history, in closed form.

    A folded history squeezes the newest *length* outcomes into *bits*
    bits: the register seen before event ``t`` is ``XOR_{j < length}
    outcomes[t - 1 - j] << (j % bits)``, with outcomes before the trace
    reading as zero.  The predictor maintains it incrementally
    (rotate, shift in, cancel the evicted bit); here it comes from the
    outcome stream alone.  With ``w[t]`` the newest *bits* outcomes
    packed newest-first, the fold is the XOR of ``w`` at strides of
    *bits* over ``length // bits`` chunks — a difference of two
    stride-*bits* prefix XORs — plus the partial chunk masked to
    ``length % bits`` bits.

    Returns the register before each event and its value after the
    last one.
    """
    if length < 1 or bits < 1:
        raise ConfigurationError(
            f"folded history needs length >= 1 and bits >= 1, got {length}/{bits}"
        )
    m = int(outcomes.size) + 1
    values = np.zeros(m, dtype=np.int64)
    values[: m - 1] = outcomes
    packed = _trailing_packed(values, bits, 1)
    rows = -(-m // bits)
    prefix = np.zeros(rows * bits, dtype=np.int64)
    prefix[:m] = packed
    prefix = np.bitwise_xor.accumulate(prefix.reshape(rows, bits), axis=0).ravel()[:m]
    whole, part = divmod(length, bits)
    span = whole * bits
    fold = prefix.copy()
    if span < m:
        fold[span:] ^= prefix[: m - span]
        if part:
            fold[span:] ^= packed[: m - span] & ((1 << part) - 1)
    return fold[: m - 1], int(fold[m - 1])


class IndexGroups:
    """Sorted grouping of one table-index stream.

    Precomputes the stable sort and segment boundaries every scan
    needs; scans over *different* tables indexed by the *same* stream
    (e.g. a hybrid's bimodal and chooser tables) share one instance
    and pay for the sort once.
    """

    __slots__ = ("order", "entry", "seg_first", "seg_last", "_position")

    def __init__(self, indices: np.ndarray, table_size: int) -> None:
        n = int(indices.size)
        narrow = np.int16 if table_size <= (1 << 15) else np.int32
        keys = indices.astype(narrow)
        self.order = np.argsort(keys, kind="stable")
        entry = keys[self.order]
        seg_first = np.empty(n, dtype=bool)
        seg_last = np.empty(n, dtype=bool)
        if n:
            seg_first[0] = True
            np.not_equal(entry[1:], entry[:-1], out=seg_first[1:])
            seg_last[-1] = True
            seg_last[:-1] = seg_first[1:]
        self.entry = entry
        self.seg_first = seg_first
        self.seg_last = seg_last
        self._position = None

    @property
    def position(self) -> np.ndarray:
        """Each event's rank within its entry's segment (sorted order)."""
        if self._position is None:
            n = int(self.entry.size)
            arange = np.arange(n, dtype=np.int32)
            self._position = arange - np.maximum.accumulate(
                np.where(self.seg_first, arange, 0)
            )
        return self._position


#: Longest per-entry run chain handled by the round-based strategy in
#: :func:`counter_scan`; longer chains (one entry dominating the
#: stream) switch to the segmented doubling scan.  Tuned on the
#: campaign branch streams: pc-indexed tables (bimodal, bi-mode
#: choice) are skewed enough that round counts near 100 lose to the
#: log-depth doubling scan, while history-hashed streams (depth ~40)
#: must stay on the cheaper direct path.
SCAN_ROUNDS_LIMIT = 64


def _clamp_doubling(
    amount: np.ndarray,
    lo_run: np.ndarray,
    hi_run: np.ndarray,
    rseg_first: np.ndarray,
) -> None:
    """In-place segmented inclusive scan over clamp functions.

    Each position holds ``f(x) = min(max(x + A, L), U)``; composition
    keeps the family closed, so a Hillis-Steele doubling pass leaves
    every position holding the composition of its whole segment
    prefix.  Once most positions have absorbed their full prefix the
    pass narrows to the still-linked indices only.
    """
    runs = int(amount.size)
    rseg = np.cumsum(rseg_first)
    stride = 1
    active = None
    while stride < runs:
        if active is None:
            linked = rseg[stride:] == rseg[:-stride]
            count = int(np.count_nonzero(linked))
            if count == 0:
                return
            if count * 4 < runs:
                active = np.nonzero(linked)[0] + stride
                continue
            a_left = np.where(linked, amount[:-stride], 0)
            l_left = np.where(linked, lo_run[:-stride], _NEG)
            u_left = np.where(linked, hi_run[:-stride], _POS)
            hi_new = np.minimum(
                np.maximum(u_left + amount[stride:], lo_run[stride:]),
                hi_run[stride:],
            )
            lo_new = np.minimum(
                np.maximum(l_left + amount[stride:], lo_run[stride:]), hi_new
            )
            amount[stride:] += a_left
            lo_run[stride:] = lo_new
            hi_run[stride:] = hi_new
        else:
            left = active - stride
            still = left >= 0
            still &= rseg[np.maximum(left, 0)] == rseg[active]
            active = active[still]
            if active.size == 0:
                return
            left = active - stride
            a_right = amount[active]
            hi_new = np.minimum(
                np.maximum(hi_run[left] + a_right, lo_run[active]),
                hi_run[active],
            )
            lo_new = np.minimum(
                np.maximum(lo_run[left] + a_right, lo_run[active]), hi_new
            )
            a_new = amount[left] + a_right
            amount[active] = a_new
            lo_run[active] = lo_new
            hi_run[active] = hi_new
        stride <<= 1


def counter_scan(
    indices: np.ndarray,
    deltas: np.ndarray,
    table: np.ndarray,
    low: int,
    high: int,
    groups: IndexGroups | None = None,
) -> np.ndarray:
    """Pre-update states of saturating counters under a delta stream.

    Event ``i`` applies ``table[indices[i]] = min(max(x + deltas[i],
    low), high)`` to the value ``x`` it observed.  Returns those
    observed (pre-update) values in stream order and leaves *table*
    holding every entry's final state.  Deltas must not change sign
    within one event (i.e. each delta is applied once); -1, 0 and +1
    are the only values the predictors use.  Pass *groups* to reuse a
    sort computed for another scan over the same index stream.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=table.dtype)
    if groups is None:
        groups = IndexGroups(indices, int(table.size))
    order = groups.order
    entry = groups.entry
    seg_first = groups.seg_first
    delta = deltas[order].astype(np.int8)
    out = np.empty(n, dtype=table.dtype)

    event_depth = int(groups.position.max())
    if event_depth < SCAN_ROUNDS_LIMIT:
        # Round-based recurrence straight over events: round r applies
        # the r-th event of every segment at once; entries are distinct
        # within a round, so the table gather/scatter has no conflicts.
        pre = np.empty(n, dtype=table.dtype)
        by_pos = _stable_order(groups.position, event_depth + 1)
        bounds = np.searchsorted(
            groups.position[by_pos], np.arange(event_depth + 2)
        )
        for r in range(event_depth + 1):
            sl = by_pos[int(bounds[r]) : int(bounds[r + 1])]
            g = entry[sl]
            x = table[g]
            pre[sl] = x
            table[g] = np.minimum(np.maximum(x + delta[sl], low), high)
        out[order] = pre
        return out

    # Collapse runs of equal deltas on one entry into single clamp
    # steps: a monotone walk saturates and stays, so clamp(x + d*len)
    # equals len iterated steps exactly — and any |amount| beyond the
    # counter range acts exactly like the range itself.
    span = high - low
    run_first = seg_first.copy()
    run_first[1:] |= delta[1:] != delta[:-1]
    run_start = np.flatnonzero(run_first)
    runs = run_start.size
    run_len = np.empty(runs, dtype=np.int64)
    run_len[:-1] = np.diff(run_start)
    run_len[-1] = n - run_start[-1]

    amount = delta[run_start] * np.minimum(run_len, span).astype(np.int8)
    run_entry = entry[run_start]
    rseg_first = seg_first[run_start]

    arange_r = np.arange(runs, dtype=np.int32)
    position = arange_r - np.maximum.accumulate(
        np.where(rseg_first, arange_r, 0)
    )
    depth = int(position.max())

    if depth < SCAN_ROUNDS_LIMIT:
        run_pre = np.empty(runs, dtype=table.dtype)
        by_pos = _stable_order(position, depth + 1)
        bounds = np.searchsorted(position[by_pos], np.arange(depth + 2))
        for r in range(depth + 1):
            sl = by_pos[int(bounds[r]) : int(bounds[r + 1])]
            g = run_entry[sl]
            x = table[g]
            run_pre[sl] = x
            table[g] = np.minimum(np.maximum(x + amount[sl], low), high)
    else:
        amount = amount.astype(np.int64)
        lo_run = np.full(runs, low, dtype=np.int64)
        hi_run = np.full(runs, high, dtype=np.int64)
        _clamp_doubling(amount, lo_run, hi_run, rseg_first)
        start = table[run_entry].astype(np.int64)
        run_pre = start.copy()
        inner = np.flatnonzero(~rseg_first)
        if inner.size:
            left = inner - 1
            run_pre[inner] = np.minimum(
                np.maximum(start[inner] + amount[left], lo_run[left]),
                hi_run[left],
            )
        rseg_last = np.empty(runs, dtype=bool)
        rseg_last[-1] = True
        rseg_last[:-1] = rseg_first[1:]
        table[run_entry[rseg_last]] = np.minimum(
            np.maximum(start[rseg_last] + amount[rseg_last], lo_run[rseg_last]),
            hi_run[rseg_last],
        )

    run_id = np.cumsum(run_first, dtype=np.int32) - 1
    offset = np.arange(n, dtype=np.int64) - run_start[run_id]
    offset = np.minimum(offset, span).astype(np.int8)
    out[order] = np.minimum(
        np.maximum(run_pre[run_id] + delta * offset, low), high
    )
    return out


def last_value_scan(
    indices: np.ndarray,
    values: np.ndarray,
    table: np.ndarray,
    groups: IndexGroups | None = None,
) -> np.ndarray:
    """Pre-update contents of a last-value table.

    Event ``i`` reads ``table[indices[i]]`` then overwrites it with
    ``values[i]``.  Returns the values read, in stream order.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if groups is None:
        groups = IndexGroups(indices, int(table.size))
    order, entry = groups.order, groups.entry
    seg_first, seg_last = groups.seg_first, groups.seg_last
    value = values[order].astype(np.int64)
    previous = np.empty(n, dtype=np.int64)
    previous[seg_first] = table[entry[seg_first]]
    inner = np.nonzero(~seg_first)[0]
    previous[inner] = value[inner - 1]
    table[entry[seg_last]] = value[seg_last]
    out = np.empty(n, dtype=np.int64)
    out[order] = previous
    return out


def sticky_install_scan(
    indices: np.ndarray,
    values: np.ndarray,
    table: np.ndarray,
    groups: IndexGroups | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Set-once table reads (agree-predictor bias bits).

    An entry holding -1 is *unset*; the first event touching it
    installs its value.  Returns ``(seen, installed)`` in stream
    order: the entry value each event observed (-1 at installing
    events) and a mask of the installing events.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    if groups is None:
        groups = IndexGroups(indices, int(table.size))
    order, entry, seg_first = groups.order, groups.entry, groups.seg_first
    value = values[order].astype(np.int64)
    seg_id = np.cumsum(seg_first) - 1
    base = table[entry[seg_first]].astype(np.int64)
    first_value = value[seg_first]
    effective = np.where(base >= 0, base, first_value)
    base_ev = base[seg_id]
    seen = np.where(base_ev >= 0, base_ev, np.where(seg_first, -1, effective[seg_id]))
    installed = seg_first & (base_ev < 0)
    table[entry[seg_first]] = effective
    out_seen = np.empty(n, dtype=np.int64)
    out_seen[order] = seen
    out_installed = np.empty(n, dtype=bool)
    out_installed[order] = installed
    return out_seen, out_installed


def local_history_scan(
    indices: np.ndarray,
    outcomes: np.ndarray,
    table: np.ndarray,
    history_bits: int,
    groups: IndexGroups | None = None,
) -> np.ndarray:
    """Pre-update values of per-entry outcome shift registers.

    Event ``i`` reads ``table[indices[i]]`` then shifts ``outcomes[i]``
    in: ``table[g] = ((h << 1) | outcome) & mask``.  Returns the values
    read, in stream order.

    Bit ``j`` of an event's register is simply the outcome ``j+1``
    events earlier *on the same entry*; in entry-sorted order that is
    the trailing window sum, with bits reaching past the segment start
    masked off and replaced by the entry's initial register.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    mask = (1 << history_bits) - 1
    if groups is None:
        groups = IndexGroups(indices, int(table.size))
    order, entry = groups.order, groups.entry
    seg_first, seg_last = groups.seg_first, groups.seg_last
    outcome = outcomes[order].astype(np.int64)
    arange = np.arange(n, dtype=np.int64)
    position = arange - np.maximum.accumulate(np.where(seg_first, arange, 0))
    raw = _trailing_packed(outcome, history_bits, 1)
    depth = np.minimum(position, history_bits)
    init = table[entry].astype(np.int64)
    history = (raw & ((np.int64(1) << depth) - 1)) | (init << depth)
    history &= mask
    table[entry[seg_last]] = ((history[seg_last] << 1) | outcome[seg_last]) & mask
    out = np.empty(n, dtype=np.int64)
    out[order] = history
    return out


def _index_dtype(bound: int) -> type:
    """Narrowest signed integer type holding every value in ``[-1, bound)``."""
    if bound <= 1 << 15:
        return np.int16
    if bound <= 1 << 31:
        return np.int32
    return np.int64


def lean_tag_dtype(max_tag: int) -> type:
    """Tag storage type: int32 while every tag fits, int64 beyond.

    Tags are non-negative (-1 marks an empty way), so int32 holds any
    tag below ``2**31``.
    """
    return np.int32 if max_tag < (1 << 31) else np.int64


class LruState:
    """A bank of true-LRU sets: one row per set, ways in MRU-first order.

    Row ``s`` holds set ``s``'s tags from most to least recently used.
    Empty ways hold -1 and always sit at the LRU end, so a row read up
    to its first -1 is exactly the scalar engine's way list.  Tags are
    stored as int32 until a tag needs more bits (:meth:`widen`).
    """

    __slots__ = ("tags",)

    def __init__(self, n_sets: int, associativity: int) -> None:
        self.tags = np.full((n_sets, associativity), -1, dtype=np.int32)

    def widen(self, dtype: type) -> None:
        """Store tags as *dtype* if it is wider than the current type."""
        if np.dtype(dtype).itemsize > self.tags.dtype.itemsize:
            self.tags = self.tags.astype(dtype)

    def to_ways_lists(self) -> list[list[int]]:
        """MRU-first way lists, matching the scalar representation."""
        return [[tag for tag in row if tag >= 0] for row in self.tags.tolist()]


def _set_positions(sorted_sets: np.ndarray, dtype: type) -> np.ndarray:
    """Each access's rank within its set, for set-sorted accesses."""
    n = int(sorted_sets.size)
    seg_first = np.empty(n, dtype=bool)
    seg_first[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=seg_first[1:])
    arange = np.arange(n, dtype=dtype)
    return arange - np.maximum.accumulate(np.where(seg_first, arange, 0))


def _drop_certain_hits(
    origin: np.ndarray, sets: np.ndarray, tags: np.ndarray, ways: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop the accesses whose hit and effect need no simulation.

    Inputs are in set-sorted stream order with MRU repeats removed.
    An access is *near* when its tag was used within the previous
    *ways* accesses of its set: at most ``ways - 1`` distinct tags lie
    between, so it hits.  Each set starts with a far access, and a far
    access plus the near accesses after it (its *run*) leave the set
    with the run's tags in front, ordered by their last use, and the
    other ways in their old order.  Replaying only the far access and
    the last use of each tag in the run gives the same set, so a near
    access whose tag recurs later in its run is dropped: its miss bit
    stays False.  A recurrence in the same run is itself near, so it
    lies within *ways* positions.
    """
    n = int(origin.size)
    position = _set_positions(sets, origin.dtype)
    near = np.zeros(n, dtype=bool)
    recurs = []
    for d in range(2, ways + 1):  # distance 1 is an MRU repeat, gone
        same = tags[d:] == tags[:-d]
        same &= position[d:] >= d
        near[d:] |= same
        recurs.append(same)
    run = np.cumsum(~near, dtype=origin.dtype)
    recurs_later = np.zeros(n, dtype=bool)
    for d, same in enumerate(recurs, start=2):
        same &= run[d:] == run[:-d]
        recurs_later[:-d] |= same
    del recurs, run, position
    near &= recurs_later
    replay = np.logical_not(near, out=near)
    return origin[replay], sets[replay], tags[replay]


def lru_scan(state: LruState, set_ids: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Stream ``(set, tag)`` accesses through an LRU bank; miss mask.

    Accesses are grouped into rounds by their position within their
    set; a round touches each set at most once, so every active set
    updates at once.  An access repeating its set's previous tag is a
    guaranteed MRU hit with no state change and is dropped first, and
    so are the hits :func:`_drop_certain_hits` proves need no replay.
    The loop runs once per round, and the round count is the access
    count of the busiest set: it barely grows with the number of sets,
    which is what makes :func:`lru_lanes` pay.

    The touched sets are copied out in order of decreasing access
    count, so round ``r``'s sets are exactly a prefix of that working
    copy and each round updates a contiguous view, with no gather or
    scatter.  Index arrays stay narrow (int16/int32 set ids and
    orders, int32 tags while they fit) and temporaries are released
    once consumed: peak memory is about 20 bytes per access.
    """
    n = int(set_ids.size)
    miss = np.zeros(n, dtype=bool)
    if n == 0:
        return miss
    state.widen(lean_tag_dtype(int(tags.max())))
    table = state.tags
    rows, ways = table.shape
    sets = set_ids.astype(_index_dtype(rows), copy=False)
    tags = tags.astype(table.dtype, copy=False)
    order_type = np.int32 if n <= 1 << 31 else np.int64
    by_set = np.argsort(sets, kind="stable").astype(order_type)
    sorted_sets = sets[by_set]
    sorted_tags = tags[by_set]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=keep[1:])
    keep[1:] |= sorted_tags[1:] != sorted_tags[:-1]
    origin = by_set[keep]
    sorted_sets = sorted_sets[keep]
    sorted_tags = sorted_tags[keep]
    del by_set, keep
    origin, sorted_sets, sorted_tags = _drop_certain_hits(
        origin, sorted_sets, sorted_tags, ways
    )
    m = int(origin.size)

    # Rank the sets by decreasing access count; an access at position
    # r of the set ranked q lands at slot bounds[r] + q of its round.
    position = _set_positions(sorted_sets, order_type)
    by_count = np.argsort(-np.bincount(sorted_sets, minlength=rows), kind="stable")
    rank = np.empty(rows, dtype=order_type)
    rank[by_count] = np.arange(rows, dtype=order_type)
    widths = np.bincount(position)
    bounds = np.zeros(widths.size + 1, dtype=order_type)
    np.cumsum(widths, out=bounds[1:])
    slot = bounds[position]
    slot += rank[sorted_sets]
    del position, sorted_sets
    round_tags = np.empty(m, dtype=table.dtype)
    round_tags[slot] = sorted_tags
    round_origin = np.empty(m, dtype=order_type)
    round_origin[slot] = origin
    del slot, sorted_tags, origin

    # A hit at way w moves ways 0..w-1 one step towards LRU and puts the
    # tag in front; a miss does the same with w = ways (the LRU way
    # falls off).  The probe's extra always-true column makes argmax
    # return w = ways exactly when no way matches.
    touched = by_count[: int(widths[0])]
    work = table[touched]
    probe = np.ones((int(widths[0]), ways + 1), dtype=bool)
    # shifts[w] marks the ways 1..ways-1 whose content comes from the
    # way before them when the access lands at way w.
    shifts = np.arange(1, ways) <= np.arange(ways + 1)[:, None]
    found = np.empty(m, dtype=np.intp)
    edges = bounds.tolist()
    for r in range(widths.size):
        lo, hi = edges[r], edges[r + 1]
        width = hi - lo
        live = work[:width]
        wanted = round_tags[lo:hi]
        match = probe[:width]
        np.equal(live, wanted[:, None], out=match[:, :ways])
        way = match.argmax(axis=1, out=found[lo:hi])
        np.copyto(live[:, 1:], live[:, :-1], where=shifts.take(way, axis=0))
        live[:, 0] = wanted
    table[touched] = work
    miss[round_origin] = found == ways
    return miss


#: Accesses one layout-lanes call stacks: the sum, over its lanes, of
#: each layout's longest LRU stream.  At the ``small`` scale (20 000
#: branch events, ~25-38 k instruction fetches) that is 3-5 layouts.
#: More lanes shorten the round loop further but raise peak memory.
LANE_ACCESSES = 1 << 17


def lru_lanes(
    streams: Sequence[np.ndarray], shift: int, n_sets: int, associativity: int
) -> tuple[list[np.ndarray], LruState]:
    """Run one cold LRU bank per lane over that lane's access stream.

    Lane ``k``'s access ``a`` touches block ``b = a >> shift``, which
    maps to set ``b & (n_sets - 1)`` with tag ``b >> log2(n_sets)`` as
    in a single cache; its set id is then offset by ``k * n_sets``, so
    the lanes share one :func:`lru_scan` but never a set.  Because the
    scan keeps each set's accesses in stream order, every lane's miss
    mask equals that of a run over its stream alone.  A single stream
    is the one-lane case.

    Lanes advance through their streams in windows of equal length so
    one scan sees at most :data:`CHUNK_EVENTS` accesses; the state is
    carried between windows.  Set ids and tags are written straight
    into narrow arrays.  Returns the per-lane miss masks and the final
    state (lane ``k`` owns rows ``k * n_sets`` up to
    ``(k + 1) * n_sets``).
    """
    lanes = len(streams)
    state = LruState(lanes * n_sets, associativity)
    masks = [np.zeros(int(stream.size), dtype=bool) for stream in streams]
    longest = max((int(stream.size) for stream in streams), default=0)
    tag_shift = shift + n_sets.bit_length() - 1
    set_type = _index_dtype(lanes * n_sets)
    for start, stop in iter_chunks(longest, max(1, CHUNK_EVENTS // lanes)):
        parts = [stream[start:stop] for stream in streams]
        ends = np.cumsum([part.size for part in parts])
        top = max(int(part.max()) for part in parts if part.size)
        set_ids = np.empty(int(ends[-1]), dtype=set_type)
        tags = np.empty(int(ends[-1]), dtype=lean_tag_dtype(top >> tag_shift))
        lane_sets = np.split(set_ids, ends[:-1])
        lane_tags = np.split(tags, ends[:-1])
        for lane in range(lanes):
            # Narrowing keeps the low bits, so masking after the cast
            # gives the same set index as masking before it.
            np.right_shift(parts[lane], shift, out=lane_sets[lane], casting="unsafe")
            lane_sets[lane] &= n_sets - 1
            lane_sets[lane] += lane * n_sets
            np.right_shift(
                parts[lane], tag_shift, out=lane_tags[lane], casting="unsafe"
            )
        lane_miss = np.split(lru_scan(state, set_ids, tags), ends[:-1])
        for lane in range(lanes):
            masks[lane][start : start + parts[lane].size] = lane_miss[lane]
    return masks, state
