"""A stand-alone model of the Table-1 cache hierarchy.

Written apart from ``repro.memory`` so that it can check the program's
miss stream: direct-mapped 8 KB L1 instruction and data caches, a 4-way
LRU unified L2 (256 KB or 1 MB), 32-byte lines, write-back and
write-allocate throughout, the L2 inclusive of the L1s, and the periodic
dirty flush keyed off retired instructions.

The model works on line numbers.  Each L1 is a pair of arrays (tag and
dirty bit per set); each L2 set is an ordered dict from line to dirty bit
whose order is the LRU order.  It returns the same summary a
``MissTrace`` carries, plus the event stream with addresses in bytes.
"""

from __future__ import annotations

from collections import OrderedDict

LINE_BYTES = 32
L1_BYTES = 8 * 1024
L2_WAYS = 4


class _DirectMapped:
    def __init__(self, size_bytes: int):
        self.sets = size_bytes // LINE_BYTES
        self.line = [None] * self.sets
        self.dirty = [False] * self.sets

    def access(self, line: int, write: bool):
        """Returns (hit, victim_line, victim_dirty)."""
        index = line % self.sets
        if self.line[index] == line:
            self.dirty[index] = self.dirty[index] or write
            return True, None, False
        victim, victim_dirty = self.line[index], self.dirty[index]
        self.line[index], self.dirty[index] = line, write
        return False, victim, victim_dirty

    def drop(self, line: int) -> bool:
        """Remove ``line`` if resident; returns whether it was dirty."""
        index = line % self.sets
        if self.line[index] != line:
            return False
        dirty = self.dirty[index]
        self.line[index], self.dirty[index] = None, False
        return dirty

    def clean_all(self) -> list[int]:
        lines = []
        for index in range(self.sets):
            if self.dirty[index]:
                self.dirty[index] = False
                lines.append(self.line[index])
        return lines


class _SetAssociativeLru:
    def __init__(self, size_bytes: int):
        self.sets_count = size_bytes // (LINE_BYTES * L2_WAYS)
        self.sets = [OrderedDict() for _ in range(self.sets_count)]

    def access(self, line: int, write: bool):
        """Returns (hit, victim_line, victim_dirty)."""
        ways = self.sets[line % self.sets_count]
        if line in ways:
            ways.move_to_end(line)
            ways[line] = ways[line] or write
            return True, None, False
        victim, victim_dirty = None, False
        if len(ways) >= L2_WAYS:
            victim, victim_dirty = ways.popitem(last=False)
        ways[line] = write
        return False, victim, victim_dirty

    def mark_dirty(self, line: int) -> bool:
        ways = self.sets[line % self.sets_count]
        if line not in ways:
            return False
        ways[line] = True
        return True

    def clean_all(self) -> list[int]:
        lines = []
        for ways in self.sets:
            for line, dirty in ways.items():
                if dirty:
                    ways[line] = False
                    lines.append(line)
        return lines


def simulate(trace, l2_bytes: int, flush_interval: int) -> dict:
    """Run a list of accesses (``address``, ``is_write``, ``is_instruction``,
    ``gap_instructions``) through the model."""
    l1i, l1d = _DirectMapped(L1_BYTES), _DirectMapped(L1_BYTES)
    l2 = _SetAssociativeLru(l2_bytes)
    events = []
    counts = dict(l1_hits=0, l2_hits=0, l2_misses=0, references=0, instructions=0)
    gap_instructions = gap_l2_hits = 0
    next_flush = flush_interval

    def emit(fetched, written):
        nonlocal gap_instructions, gap_l2_hits
        events.append(
            (
                gap_instructions,
                gap_l2_hits,
                tuple(line * LINE_BYTES for line in fetched),
                tuple(sorted(line * LINE_BYTES for line in written)),
            )
        )
        gap_instructions = gap_l2_hits = 0

    for access in trace:
        gap_instructions += access.gap_instructions
        counts["instructions"] += access.gap_instructions
        counts["references"] += 1
        if flush_interval and counts["instructions"] >= next_flush:
            next_flush += flush_interval
            orphans = [line for line in l1d.clean_all() if not l2.mark_dirty(line)]
            flushed = l2.clean_all() + orphans
            if flushed:
                emit((), flushed)

        line = access.address // LINE_BYTES
        write = access.is_write
        l1 = l1i if access.is_instruction else l1d
        hit, victim, victim_dirty = l1.access(line, write)
        if hit:
            counts["l1_hits"] += 1
            continue
        fetched, written = [], []
        if victim is not None and victim_dirty and not l2.mark_dirty(victim):
            refill_hit, refill_victim, refill_dirty = l2.access(victim, True)
            if not refill_hit:
                fetched.append(victim)
            if refill_victim is not None and refill_dirty:
                written.append(refill_victim)
        l2_hit, l2_victim, l2_victim_dirty = l2.access(line, write)
        if l2_hit:
            counts["l2_hits"] += 1
            gap_l2_hits += 1
            continue
        counts["l2_misses"] += 1
        fetched.append(line)
        if l2_victim is not None:
            l1i.drop(l2_victim)
            if l1d.drop(l2_victim) or l2_victim_dirty:
                written.append(l2_victim)
        emit(fetched, written)

    counts["fetches"] = sum(len(event[2]) for event in events)
    counts["writebacks"] = sum(len(event[3]) for event in events)
    return {"counts": counts, "events": events}


def summarize_miss_trace(miss_trace) -> dict:
    """The program's ``MissTrace`` in the model's terms."""
    events = [
        (
            event.gap_instructions,
            event.gap_l2_hits,
            tuple(event.fetch_addresses),
            tuple(sorted(event.writeback_addresses)),
        )
        for event in miss_trace.events
    ]
    counts = dict(
        l1_hits=miss_trace.l1_hits,
        l2_hits=miss_trace.l2_hits,
        l2_misses=miss_trace.l2_misses,
        references=miss_trace.total_references,
        instructions=miss_trace.total_instructions,
        fetches=sum(len(event[2]) for event in events),
        writebacks=sum(len(event[3]) for event in events),
    )
    return {"counts": counts, "events": events}
