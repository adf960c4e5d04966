"""Span recording around the program's layer boundaries (traced runs only).

A :class:`SpanRecorder` replaces public functions at their module
boundaries with wrappers that time each call.  Spans stay in memory and
are written once, at the end, as a Chrome trace.  Processes forked while
recording (the supervisor's per-cell workers) start with an empty span
list and append each finished top-level span to ``spans-<pid>.jsonl`` in
the spill directory, because they leave through ``os._exit``; the
recording process folds those files in before it exports.

All timestamps come from ``time.perf_counter`` (the system-wide monotonic
clock on Linux), so spans from different processes share one axis.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from pathlib import Path


class SpanRecorder:
    """Spans of one traced run: name, start, end, parent, pid, tid, attrs."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        self._root_pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attribute: str, name: str, describe=None) -> None:
        """Replace ``owner.attribute`` with a timed wrapper.

        ``describe(args, kwargs, result)`` returns the span's attributes.
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            with recorder._lock:
                recorder._next_id += 1
                span_id = recorder._next_id
            span = {
                "name": name,
                "id": span_id,
                "parent": stack[-1] if stack else None,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "start": time.perf_counter(),
            }
            stack.append(span_id)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                span["attrs"] = describe(args, kwargs, result) if describe else {}
                with recorder._lock:
                    recorder.spans.append(span)
                if not stack and os.getpid() != recorder._root_pid:
                    recorder._spill()

        setattr(owner, attribute, wrapper)

    def _spill(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    def collect(self) -> list[dict]:
        """This process's spans plus every forked worker's spilled spans."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                if line.strip():
                    spans.append(json.loads(line))
        return spans


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the time its child spans cover."""
    child_time: dict[tuple[int, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    return {
        (span["pid"], span["id"]): span["end"]
        - span["start"]
        - child_time.get((span["pid"], span["id"]), 0.0)
        for span in spans
    }


def chrome_trace(spans: list[dict], root_pid: int) -> dict:
    """Chrome ``trace_event`` JSON: one complete event per span, with the
    process and thread names the viewer labels its lanes by."""
    epoch = min((span["start"] for span in spans), default=0.0)
    events = []
    for pid, tid in sorted({(span["pid"], span["tid"] % 1_000_000) for span in spans}):
        role = "benchmark" if pid == root_pid else "cell worker"
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": tid,
                       "args": {"name": f"{role} {pid}"}})
        events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                       "args": {"name": f"thread {tid}"}})
    for span in sorted(spans, key=lambda span: span["start"]):
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "ts": round((span["start"] - epoch) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": span["pid"],
            "tid": span["tid"] % 1_000_000,
            "args": span["attrs"],
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def layer_metrics(spans: list[dict], rounds: int, latencies: dict) -> dict:
    """Per-layer figures of one traced run, normalised per round.

    A round is one grid for the grid workloads and one completed job for
    the service.  Seconds are self time, except ``store.recover_s``,
    which is the whole ``recover()`` call; rates divide a layer's work by
    its own self time.  ``latencies`` holds the service's journaled
    per-job stage latencies (empty for grids); they are reported as
    medians.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    batched_parents = {
        (span["pid"], span["parent"]) for span in by_name.get("engine.compile", [])
    }

    def seconds(name: str, keep=lambda span: True) -> float:
        return sum(
            own[(span["pid"], span["id"])]
            for span in by_name.get(name, [])
            if keep(span)
        )

    def total(name: str, attr: str) -> float:
        return sum(span["attrs"].get(attr, 0) for span in by_name.get(name, []))

    def rate(work: float, busy: float) -> float:
        return work / busy if busy else 0.0

    def batched(span: dict) -> bool:
        return (span["pid"], span["id"]) in batched_parents

    replays = by_name.get("engine.replay", [])
    per = max(1, rounds)
    values = {
        "workloads.build_s": seconds("workloads.build") / per,
        "workloads.builds": len(by_name.get("workloads.build", [])) / per,
        "hierarchy.collect_s": seconds("hierarchy.collect") / per,
        "hierarchy.refs_per_s": rate(
            total("hierarchy.collect", "refs"), seconds("hierarchy.collect")
        ),
        "preseed.apply_s": seconds("preseed.apply") / per,
        "preseed.lines_per_s": rate(
            total("preseed.apply", "lines"), seconds("preseed.apply")
        ),
        "controller.build_s": seconds("controller.build") / per,
        "engine.compile_s": seconds("engine.compile") / per,
        "engine.batched_replay_s": seconds("engine.replay", batched) / per,
        "engine.reference_replay_s": seconds(
            "engine.replay", lambda span: not batched(span)
        ) / per,
        "engine.fetches_per_s": rate(
            total("engine.replay", "fetches"), seconds("engine.replay")
        ),
        "engine.batched_cells": sum(1 for span in replays if batched(span)) / per,
        "engine.cells": len(replays) / per,
        "snapshot.collect_s": seconds("snapshot.collect") / per,
        "sim.l2_misses": total("engine.replay", "l2_misses") / per,
        "sim.fetches": total("engine.replay", "fetches") / per,
        "sim.writebacks": total("engine.replay", "writebacks") / per,
        "http.submit_s": seconds("http.submit") / per,
        "http.status_s": seconds("http.status") / per,
        "http.result_s": seconds("http.result") / per,
        "http.result_bytes": total("http.result", "bytes") / per,
        "store.scan_s": seconds("store.scan") / per,
        "store.scans": len(by_name.get("store.scan", [])) / per,
        "store.recover_s": sum(
            span["end"] - span["start"] for span in by_name.get("store.recover", [])
        ),
        "supervisor.grid_s": seconds("supervisor.grid") / per,
        "supervisor.cells_computed": total("supervisor.grid", "cells_computed") / per,
        "cache.lookup_s": seconds("cache.lookup") / per,
        "cache.hits": total("cache.lookup", "hit") / per,
        "cache.lookups": len(by_name.get("cache.lookup", [])) / per,
    }
    for name in ("admit_wait_s", "first_cell_s", "execute_s"):
        samples = latencies.get(name, [])
        values[f"service.{name}"] = statistics.median(samples) if samples else 0.0
    lines = latencies.get("journal_lines", [])
    values["store.journal_lines_per_job"] = statistics.mean(lines) if lines else 0.0
    return values


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.cpu import engine
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache
    from repro.service import scheduler
    from repro.service.client import ServiceClient
    from repro.service.queue import JobStore

    wrap = recorder.wrap
    wrap(runner, "build_workload", "workloads.build")
    wrap(
        runner, "collect_miss_trace", "hierarchy.collect",
        lambda args, kwargs, result: {"refs": len(args[0])},
    )
    wrap(runner, "make_controller", "controller.build")
    wrap(
        runner, "apply_preseed", "preseed.apply",
        lambda args, kwargs, result: {"lines": len(args[1])},
    )
    wrap(engine, "compile_trace", "engine.compile")
    wrap(
        runner, "replay_miss_trace", "engine.replay",
        lambda args, kwargs, result: {
            "scheme": kwargs.get("scheme"),
            "fetches": result.fetches if result else 0,
            "l2_misses": result.l2_misses if result else 0,
            "writebacks": result.writebacks if result else 0,
        },
    )
    wrap(runner, "collect_cell_snapshot", "snapshot.collect")
    wrap(JobStore, "jobs", "store.scan")
    wrap(JobStore, "recover", "store.recover")
    wrap(
        ResultCache, "lookup_cell", "cache.lookup",
        lambda args, kwargs, result: {"hit": int(result is not None)},
    )
    wrap(
        scheduler, "run_grid_supervised", "supervisor.grid",
        lambda args, kwargs, result: {
            "cells_computed": (result.supervision or {}).get("cells_completed", 0)
            if result is not None
            else 0
        },
    )
    wrap(ServiceClient, "submit", "http.submit")
    wrap(ServiceClient, "job", "http.status")
    wrap(
        ServiceClient, "result_bytes", "http.result",
        lambda args, kwargs, result: {"bytes": len(result or b"")},
    )
