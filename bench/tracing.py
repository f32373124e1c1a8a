"""Layer spans recorded from outside the program.

Tracer replaces public loralink functions with timing wrappers for the
length of a `with` block: in their home module and in every loralink
module that imported them by name (as `loralink.cli` does), so calls made
through any of those names are seen. Spans are folded into per-layer call
counts and total seconds as they close, which keeps the trace's memory
independent of run length (`DryRunTransport.send` alone fires tens of
thousands of times a round). Garbage-collector pauses come from
`gc.callbacks`.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, record RSS growth across each call)
LAYERS = (
    ("loralink.tdma_sim", "run_simulation", True),
    ("loralink.tdma_sim", "serialize_report", True),
    ("loralink.tdma_sim", "parse_report", True),
    ("loralink.uplink_bridge", "bridge_sim_report", False),
    ("loralink.uplink_bridge", "DryRunTransport.send", False),
    ("loralink.cli", "build_parser", False),
    ("loralink.dataset", "load_measurements", False),
    ("loralink.dataset", "reconstruct_excess_loss", False),
    ("loralink.recommender", "recommend_sf_bw", False),
    ("loralink.link_budget", "loss_breakdown", False),
)

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20 if hasattr(os, "sysconf") else 0.0


def rss_mb() -> float:
    """Current resident set size (Linux /proc), else the peak so far."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_MB
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.rss_growth: dict[str, float] = defaultdict(float)
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original, with_rss: bool):
        calls, seconds, growth = self.calls, self.seconds, self.rss_growth

        def span(*args, **kwargs):
            before = rss_mb() if with_rss else 0.0
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1
                if with_rss:
                    growth[name] = max(growth[name], rss_mb() - before)

        return span

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "loralink"]
        for module_name, path, with_rss in LAYERS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            span = self._wrap(f"{module_name.removeprefix('loralink.')}.{path}", original, with_rss)
            holders = [owner] if outer else [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, span)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def per_call_us(self, name: str) -> float:
        return 1e6 * self.seconds[name] / self.calls[name] if self.calls[name] else 0.0

    def rate(self, name: str, work: float) -> float:
        """`work` units done by all calls of `name`, per second spent in them."""
        return work / self.seconds[name] if self.seconds[name] else 0.0

    def max_growth_mb(self, name: str) -> float:
        """Largest resident-set growth across one call: the memory a call
        still holds when it returns, seen best on the first call in a
        fresh process, before freed memory is reused."""
        return self.rss_growth[name]
