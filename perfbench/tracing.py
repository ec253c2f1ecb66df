"""Spans around the benchmark's calls into the library.

Workloads call every library function through ``tr.call(name, fn, *args)``.
``Forward`` only forwards the call and is what the untraced runs use, so
that both kinds of run execute the same workload code.  ``Tracer`` records
one span per call and keeps all spans in memory until the run writes them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Forward:
    """The untraced stand-in: calls through, records nothing."""

    @staticmethod
    def begin_item(item) -> None:
        pass

    @staticmethod
    def end_item() -> None:
        pass

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans as tuples ``(id, name, start, end, parent_id, item)``.

    An item span (name ``"item"``) is the parent of the layer calls made
    while it is open; a call made with no item open is a root span that
    still carries the id of the item it measures.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._next_id = 0
        self._item = None
        self._parent = None
        self._item_start = 0.0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin_item(self, item) -> None:
        self._item = item
        self._parent = self._new_id()
        self._item_start = perf_counter()

    def end_item(self) -> None:
        end = perf_counter()
        self.spans.append((self._parent, "item", self._item_start, end, None, self._item))
        self._parent = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans.append((self._new_id(), name, start, end, self._parent, self._item))

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time, span count).  Self time is the
        span's duration minus the part of it covered by its children."""
        covered: dict[int, float] = defaultdict(float)
        for (_sid, _name, start, end, parent, _item) in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (sid, name, start, end, _parent, _item) in self.spans:
            acc = out[name]
            acc[0] += (end - start) - covered.get(sid, 0.0)
            acc[1] += 1
        return {name: (acc[0], acc[1]) for name, acc in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for (sid, name, start, end, parent, item) in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "item": item}
                    )
                )
                fh.write("\n")
