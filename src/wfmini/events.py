"""The event log of a run: what `RunTrace.events` holds.

Events are mappings with a "kind" discriminator. Kernel events are most of
a run's events, so the log keeps them in typed `array` columns, one entry
per event and field: eight 8-byte numbers and two 4-byte name indexes,
72 B per event and no Python object for the collector to track. Reading
the log materialises each as a `KernelEvent` row on access. The other
kinds (`task_start`, `task_end`, `slot_busy`, `slot_idle`) are few and stay
the dicts they are.
"""
from __future__ import annotations

import json
import math
import operator
import threading
from array import array
from bisect import bisect_left
from collections.abc import Mapping, Sequence

# Lines decoded per json.loads call when a trace is read, and kernel lines
# rendered per string when one is written. The decoder keeps one object per
# distinct key within a call, so a batch of events shares its key strings
# where a call per line gave every event its own copies. A single call for
# the whole file would hold the text twice at the peak; a batch of 256 lines
# keeps that copy to a few tens of KB.
READ_BATCH = 256


class KernelEvent(Mapping):
    """The event of one kernel call on one rank: a read-only mapping of the
    eleven keys in `KEYS`, which is also the order a trace line writes them.

    `execute_kernel` appends one per kernel call to its sink, which keeps
    its fields in columns; reading a `MetricsSink` builds one per kernel
    event on access. `kind` is a class constant. Being a `Mapping`, an
    event indexes, iterates and compares equal like the dict it renders
    (`dict(ev)`)."""

    __slots__ = ("task", "rank", "kernel", "t_start", "t_end", "wall_time",
                 "bytes_read", "bytes_written", "bytes_communicated", "checksum")
    kind = "kernel"
    KEYS = ("kind",) + __slots__
    _KEY_SET = frozenset(KEYS)

    def __init__(self, task, rank, kernel, t_start, t_end, wall_time,
                 bytes_read, bytes_written, bytes_communicated, checksum):
        self.task = task
        self.rank = rank
        self.kernel = kernel
        self.t_start = t_start
        self.t_end = t_end
        self.wall_time = wall_time
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written
        self.bytes_communicated = bytes_communicated
        self.checksum = checksum

    def __getitem__(self, key):
        if key in self._KEY_SET:
            return getattr(self, key)
        raise KeyError(key)

    def __iter__(self):
        return iter(self.KEYS)

    def __len__(self):
        return len(self.KEYS)

    def __repr__(self):
        return f"KernelEvent({dict(self)!r})"


# one array typecode per KernelEvent field, in __slots__ order: "task" and
# "kernel" hold indexes into the log's name list
_TYPECODES = "IqIdddqqqd"
_NAME_COLUMNS = (0, 2)
_FLOAT_COLUMNS = tuple(i for i, code in enumerate(_TYPECODES) if code == "d")
_row_of = operator.attrgetter(*KernelEvent.__slots__)
_fields_of = operator.itemgetter(*KernelEvent.__slots__)
# a kernel line as json.dumps writes the dict of its KEYS
_KERNEL_LINE = ('{{"kind": "kernel", '
                + ", ".join(f'"{key}": {{}}' for key in KernelEvent.__slots__) + "}}\n")


class MetricsSink(Sequence):
    """The event log of a run: appended to by many threads, read as a
    sequence of events in arrival order.

    Kernel events are kept in typed `array` columns, one entry per event and
    field, with the task and kernel names as indexes into a per-log name
    list. Other events are kept as the dicts they are, with their positions
    in an order column. Reading an index or iterating materialises each
    kernel event as a `KernelEvent` row; the log compares equal to any
    sequence of equal events. Two logs with the same name list compare
    column by column, so a NaN equals a NaN in the same place.

    `append` is the one way a single event enters a log. A kernel event may
    be a `KernelEvent` or a mapping of exactly its keys; its values must fit
    the columns (integers for `rank` and the byte counts, reals for the
    times and the checksum), or ValueError is raised."""

    def __init__(self, events=()):
        self._lock = threading.Lock()
        self._names = []
        self._codes = {}         # name -> index in _names
        self._columns = tuple(array(code) for code in _TYPECODES)
        self._dicts = []         # the other events, in arrival order
        self._dict_at = array("q")  # the position of each in the log
        for event in events:
            self._add(event)

    def append(self, event):
        with self._lock:
            self._add(event)

    def extend(self, events):
        """Append every event of `events`; another log's columns are
        concatenated to this one's, its names re-indexed."""
        if not isinstance(events, MetricsSink):
            events = MetricsSink(events)
        with self._lock:
            base = len(self)
            codes = [self._code(name) for name in events._names]
            for i, (mine, theirs) in enumerate(zip(self._columns, events._columns)):
                if i in _NAME_COLUMNS:
                    theirs = array("I", map(codes.__getitem__, theirs))
                mine.extend(theirs)
            self._dicts.extend(events._dicts)
            self._dict_at.extend(array("q", [base + at for at in events._dict_at]))

    def __iadd__(self, events):
        self.extend(events)
        return self

    def remove(self, event):
        """Delete the first event equal to `event`; ValueError if none is."""
        i = self.index(event)
        with self._lock:
            j = bisect_left(self._dict_at, i)
            if j < len(self._dict_at) and self._dict_at[j] == i:
                del self._dicts[j], self._dict_at[j]
            else:
                for column in self._columns:
                    del column[i - j]
            for m in range(j, len(self._dict_at)):
                self._dict_at[m] -= 1

    def _code(self, name):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._names)
            self._names.append(name)
        return code

    def _add(self, event):
        if type(event) is KernelEvent:
            values = _row_of(event)
        elif event.get("kind") == "kernel":
            try:
                values = _fields_of(event)
            except KeyError as e:
                raise ValueError(f"a kernel event lacks {e}") from None
            if len(event) != len(KernelEvent.KEYS):
                extra = sorted(event.keys() - KernelEvent._KEY_SET)
                raise ValueError(f"a kernel event has unknown field {extra[0]!r}")
        else:
            self._dict_at.append(len(self))
            self._dicts.append(event)
            return
        task, rank, kernel, t_start, t_end, wall_time, read, written, sent, checksum = values
        c = self._columns
        n = len(c[0])
        try:
            c[0].append(self._code(task))
            c[1].append(rank)
            c[2].append(self._code(kernel))
            c[3].append(t_start)
            c[4].append(t_end)
            c[5].append(wall_time)
            c[6].append(read)
            c[7].append(written)
            c[8].append(sent)
            c[9].append(checksum)
        except (TypeError, OverflowError) as e:
            # the first column still at n entries is the one that refused
            key = next(key for key, column in zip(KernelEvent.__slots__, c) if len(column) == n)
            for column in c:
                del column[n:]
            raise ValueError(f"a kernel event's {key!r} is {event[key]!r}: {e}") from None

    def _row(self, k) -> KernelEvent:
        task, rank, kernel, *rest = (column[k] for column in self._columns)
        return KernelEvent(self._names[task], rank, self._names[kernel], *rest)

    def __len__(self):
        return len(self._columns[0]) + len(self._dicts)

    def __getitem__(self, i):
        n = len(self)
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("event index out of range")
        j = bisect_left(self._dict_at, i)
        if j < len(self._dict_at) and self._dict_at[j] == i:
            return self._dicts[j]
        return self._row(i - j)

    def _segments(self) -> list:
        """(lo, hi, event) in arrival order: the kernel rows lo to hi - 1,
        then the dict event that follows them (None after the last rows)."""
        segments, lo = [], 0
        for j, (at, event) in enumerate(zip(self._dict_at, self._dicts)):
            segments.append((lo, at - j, event))
            lo = at - j
        segments.append((lo, len(self._columns[0]), None))
        return segments

    def __iter__(self):
        for lo, hi, event in self._segments():
            yield from map(self._row, range(lo, hi))
            if event is not None:
                yield event

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, MetricsSink) and self._names == other._names:
            # column by column, so a NaN equals a NaN in the same place
            return (len(self) == len(other) and self._dict_at == other._dict_at
                    and self._dicts == other._dicts
                    and all(a == b or all(x == y or x != x and y != y for x, y in zip(a, b))
                            for a, b in zip(self._columns, other._columns)))
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"MetricsSink({list(self)!r})"

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def dict_events(self) -> list:
        """The events that are not kernel events, in arrival order."""
        return self._dicts

    def bytes_by_task(self) -> dict:
        """task name -> (bytes read, bytes written), summed over its kernel
        events from the columns."""
        totals = {}
        c = self._columns
        for task, read, written in zip(c[0], c[6], c[7]):
            moved = totals.get(task)
            if moved is None:
                totals[task] = [read, written]
            else:
                moved[0] += read
                moved[1] += written
        return {self._names[task]: tuple(moved) for task, moved in totals.items()}

    def lines(self):
        """The JSON Lines text of the events, in batches of lines: a kernel
        line as `json.dumps` writes the dict of its `KernelEvent.KEYS`."""
        names = [json.dumps(name) for name in self._names]
        for lo, hi, event in self._segments():
            for start in range(lo, hi, READ_BATCH):
                block = [column[start:min(start + READ_BATCH, hi)]
                         for column in self._columns]
                for i in _NAME_COLUMNS:
                    block[i] = [names[c] for c in block[i]]
                for i in _FLOAT_COLUMNS:
                    # json writes NaN and Infinity where str writes nan and
                    # inf; a column sum is finite only if every value is
                    if not math.isfinite(sum(block[i])):
                        block[i] = [json.dumps(x) for x in block[i]]
                yield "".join(map(_KERNEL_LINE.format, *block))
            if event is not None:
                yield json.dumps(event) + "\n"
