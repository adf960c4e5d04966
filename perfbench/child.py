"""One child process of a benchmark run.

Usage: ``python3 perfbench/child.py CONFIG.json OUT.json``

``run.py`` starts every measured step in a fresh process of
this module, over a fresh ``REPRO_CACHE_DIR``, so no step sees another's
in-process memo or on-disk cache.  ``CONFIG["role"]`` picks the step:

* ``grid`` — one repetition of a grid workload, cell by cell through
  ``run_grid``; writes each machine's ``SweepResult`` for the checks;
* ``service`` — the closed-loop two-tenant run against an in-process
  server over a job store that already holds a history;
* ``probe`` — set-up only (imports, and for the service the server start
  over the pre-filled store up to ``/readyz``), then exit;
* ``fixture`` — write the service's job-store history (never timed);
* ``check-hierarchy`` / ``check-reference`` / ``check-service`` — the
  correctness checks that run outside the timed steps.

With ``CONFIG["traced"]`` the step records spans at the layer boundaries
(see ``spans.py``) and writes a Chrome trace plus the per-layer figures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TERMINAL = ("done", "failed", "cancelled")
POLL_SECONDS = 0.01
# Each client pauses a seeded random think time before every submission,
# so submissions do not lock onto the scheduler's admission-poll phase.
THINK_SECONDS = 0.05
JOB_TIMEOUT_SECONDS = 120.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_program_location() -> None:
    import repro

    expected = ROOT / "src" / "repro"
    if Path(repro.__file__).resolve().parent != expected.resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not {expected}")


def start_recorder(config):
    if not config.get("traced"):
        return None
    import spans

    spill = Path(config["out_dir"]) / "spill"
    spill.mkdir(parents=True, exist_ok=True)
    recorder = spans.SpanRecorder(spill)
    spans.instrument(recorder)
    return recorder


def finish_trace(recorder, config, rounds: int, latencies: dict, out: dict) -> None:
    """Write the Chrome trace and add the per-layer figures to ``out``."""
    import spans
    from repro.telemetry.events import validate_chrome_trace

    collected = recorder.collect()
    trace = spans.chrome_trace(collected, os.getpid())
    trace_path = Path(config["out_dir"]) / "trace.json"
    trace_path.write_text(json.dumps(trace))
    out["trace"] = str(trace_path)
    out["trace_problems"] = validate_chrome_trace(trace)
    out["layers"] = spans.layer_metrics(collected, rounds, latencies)


# -- grid workloads ------------------------------------------------------------


def run_grid_rep(config) -> dict:
    recorder = start_recorder(config)
    from repro.experiments.config import TABLE1_1M, TABLE1_256K
    from repro.experiments.sweep import SweepResult, run_grid

    check_program_location()
    machines = {machine.name: machine for machine in (TABLE1_256K, TABLE1_1M)}
    spec = workloads.WORKLOADS[config["workload"]]
    references = spec["references"]
    seed = workloads.program_seed(config["seed"])
    setup_s = time.time() - config["spawn_ts"]
    if config["role"] == "probe":
        return {"setup_s": setup_s}

    cells, errors = [], []
    sweeps = {}
    started = time.perf_counter()
    for machine_name in spec["machines"]:
        machine = machines[machine_name]
        sweep = sweeps[machine_name] = SweepResult(
            machine=machine_name, references=references
        )
        for benchmark in spec["benchmarks"]:
            for position, scheme in enumerate(spec["schemes"]):
                cell_start = time.perf_counter()
                try:
                    result = run_grid(
                        [benchmark], [scheme], machine=machine,
                        references=references, seed=seed,
                        jobs=1, use_cache=False,
                    )
                except Exception as error:  # noqa: BLE001 — counted as failed
                    errors.append(f"{benchmark}/{scheme}@{machine_name}: {error!r}")
                    continue
                cells.append({
                    "cell": f"{benchmark}/{scheme}@{machine_name}",
                    "benchmark": benchmark,
                    "seconds": time.perf_counter() - cell_start,
                    "cold": position == 0,
                })
                sweep.results.update(result.results)
                sweep.snapshots.update(result.snapshots)
    wall_s = time.perf_counter() - started
    rss = peak_rss_mb()
    results = {}
    for machine_name, sweep in sweeps.items():
        text = sweep.canonical_json()
        path = Path(config["out_dir"]) / f"{machine_name}.json"
        path.write_text(text)
        results[machine_name] = {"path": str(path), "sha256": sha256(text.encode())}
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss,
        "cells": cells,
        "attempted": len(spec["machines"]) * len(spec["benchmarks"]) * len(spec["schemes"]),
        "errors": errors,
        "results": results,
    }
    if recorder is not None:
        finish_trace(recorder, config, 1, {}, out)
    return out


# -- service workload ----------------------------------------------------------


def write_history(config) -> dict:
    """Fill the job store with finished jobs, as the scheduler journals them."""
    from repro.experiments.sweep import SweepResult
    from repro.service.queue import JobSpec, JobStore
    from repro.telemetry.fleet import TraceContext, span_record
    from repro.telemetry.snapshot import MetricsSnapshot

    check_program_location()
    store = JobStore()
    for job in workloads.history_jobs(config["seed"]):
        spec = JobSpec(
            tenant=job["tenant"], benchmarks=tuple(job["benchmarks"]),
            schemes=tuple(job["schemes"]), machine=job["machine"],
            references=job["references"], seed=job["seed"],
        )
        total = len(spec.benchmarks) * len(spec.schemes)
        hits = round(job["hit_share"] * total)
        job_id = store.submit(spec).job_id
        root = TraceContext.mint(job_id)
        store.append(job_id, span_record("submitted", "server", root, tenant=spec.tenant))
        store.append(job_id, span_record("admitted", "scheduler", root.child()))
        store.set_state(job_id, "running", sweep_key=spec.sweep_key)
        store.append(job_id, span_record("scheduled", "scheduler", root.child()))
        for index in range(job["samples"]):
            progress = {
                "service.job.cells_done": min(total, index * 2),
                "service.job.cells_failed": 0,
                "service.job.cells_total": total,
            }
            kinds = dict.fromkeys(progress, "counter")
            kinds["service.job.cells_total"] = "gauge"
            snapshot = MetricsSnapshot(
                values=progress, kinds=kinds,
                meta={"accesses": index + 1, "job_id": job_id},
            )
            store.append(
                job_id,
                {"event": "sample", "ts": time.time(), "snapshot": snapshot.to_dict()},
            )
        empty = SweepResult(machine=spec.machine, references=spec.references)
        store.store_result(job_id, empty.canonical_json())
        store.append(job_id, span_record("result_stored", "scheduler", root.child()))
        store.set_state(
            job_id, "done", resumed=False, complete=True,
            cells_total=total, cache_hits=hits, cells_computed=total - hits,
        )
        # The stage split of a typical small cold job.
        store.append(
            job_id,
            {"event": "latency", "ts": time.time(), "submit_to_schedule_sec": 0.05,
             "schedule_to_first_cell_sec": 0.01, "first_cell_to_result_sec": 0.5,
             "submit_to_result_sec": 0.56},
        )
    return {"jobs": len(store.jobs())}


class Tenant(threading.Thread):
    """One closed-loop client: cold job, warm job, cold job, ... until the
    deadline, always finishing the pair it started.  A job's latency runs
    from its submission until its result bytes are fetched; completion is
    detected by polling the job's status every ``POLL_SECONDS``."""

    def __init__(self, client, index: int, config, deadline: float):
        super().__init__(name=f"tenant-{index}")
        spec = workloads.WORKLOADS["service-mixed"]
        self.client = client
        self.index = index
        self.tenant = spec["tenants"][index]
        self.grid = spec["cold_grid"]
        self.references = spec["cold_references"]
        self.seed = config["seed"]
        self.deadline = deadline
        self.rng = random.Random(f"warm-{config['seed']}-{index}")
        self.think = random.Random(f"think-{config['seed']}-{index}")
        self.jobs: list[dict] = []
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            pair = 0
            while time.perf_counter() < self.deadline:
                cold_seed = workloads.cold_job_seed(self.seed, self.index, pair)
                cold = self.run_job("cold", cold_seed)
                done = [job["seed"] for job in self.jobs if job["kind"] == "cold"
                        and job["state"] == "done"]
                warm = self.run_job("warm", self.rng.choice(done) if done else cold_seed)
                cold["pair_s"] = warm["pair_s"] = cold["latency_s"] + warm["latency_s"]
                pair += 1
        except Exception as error:  # noqa: BLE001 — re-raised by the main thread
            self.error = error

    def run_job(self, kind: str, seed: int) -> dict:
        time.sleep(self.think.uniform(0.0, THINK_SECONDS))
        started = time.perf_counter()
        receipt = self.client.submit(
            self.tenant, self.grid["benchmarks"], self.grid["schemes"],
            references=self.references, seed=seed,
        )
        job_id = receipt["job_id"]
        while True:
            record = self.client.job(job_id)
            if record["state"] in TERMINAL:
                break
            if time.perf_counter() - started > JOB_TIMEOUT_SECONDS:
                break
            time.sleep(POLL_SECONDS)
        data = self.client.result_bytes(job_id) if record["state"] == "done" else b""
        finished = time.perf_counter()
        job = {
            "kind": kind, "tenant": self.tenant, "job_id": job_id, "seed": seed,
            "state": record["state"], "detail": record["detail"],
            "latency_s": finished - started, "end": finished, "sha256": sha256(data),
        }
        self.jobs.append(job)
        return job


def run_service(config) -> dict:
    recorder = start_recorder(config)
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.queue import JobStore
    from repro.service.scheduler import ServiceScheduler
    from repro.service.server import serve_in_thread

    check_program_location()
    store = JobStore()
    handle = serve_in_thread(ServiceScheduler(store=store))
    try:
        client = ServiceClient(handle.url)
        while True:
            try:
                client.ready()
                break
            except ServiceError:
                time.sleep(0.002)
        setup_s = time.time() - config["spawn_ts"]
        if config["role"] == "probe":
            return {"setup_s": setup_s}
        started = time.perf_counter()
        tenants = [
            Tenant(client, index, config, started + config["seconds"])
            for index in range(len(workloads.WORKLOADS["service-mixed"]["tenants"]))
        ]
        for tenant in tenants:
            tenant.start()
        for tenant in tenants:
            tenant.join()
        for tenant in tenants:
            if tenant.error is not None:
                raise tenant.error
        jobs = [job for tenant in tenants for job in tenant.jobs]
        phase_s = max(job["end"] for job in jobs) - started
        rss = peak_rss_mb()
    finally:
        handle.stop()

    latencies = {"admit_wait_s": [], "first_cell_s": [], "execute_s": [], "journal_lines": []}
    for job in jobs:
        events = store.job(job["job_id"]).events
        latencies["journal_lines"].append(len(events))
        for event in events:
            if event.get("event") == "latency":
                latencies["admit_wait_s"].append(event["submit_to_schedule_sec"])
                latencies["first_cell_s"].append(event["schedule_to_first_cell_sec"])
                latencies["execute_s"].append(event["first_cell_to_result_sec"])
    out = {
        "setup_s": setup_s,
        "phase_s": phase_s,
        "peak_rss_mb": rss,
        "jobs": [{key: job[key] for key in job if key != "end"} for job in jobs],
    }
    if recorder is not None:
        completed = sum(1 for job in jobs if job["state"] == "done")
        finish_trace(recorder, config, completed, latencies, out)
    return out


# -- checks --------------------------------------------------------------------


def check_hierarchy(config) -> dict:
    """Stand-alone hierarchy model == the program's MissTrace, event by event."""
    import hiermodel
    from repro.experiments import runner
    from repro.experiments.config import TABLE1_1M, TABLE1_256K
    from repro.workloads.spec import build_workload

    check_program_location()
    machines = {machine.name: machine for machine in (TABLE1_256K, TABLE1_1M)}
    references = workloads.WORKLOADS[config["workload"]]["references"]
    seed = workloads.program_seed(config["seed"])
    problems = []
    for benchmark, machine_name in config["cells"]:
        machine = machines[machine_name]
        trace = build_workload(benchmark, references=references, seed=seed).trace
        model = hiermodel.simulate(
            trace, machine.hierarchy.l2_size, machine.flush_interval_instructions
        )
        miss_trace, _ = runner.get_miss_trace(
            benchmark, machine, references, seed
        )
        program = hiermodel.summarize_miss_trace(miss_trace)
        if model["counts"] != program["counts"]:
            problems.append(
                f"{benchmark}@{machine_name}: model {model['counts']} "
                f"!= program {program['counts']}"
            )
        elif model["events"] != program["events"]:
            first = next(
                index for index, (a, b) in enumerate(zip(model["events"], program["events"]))
                if a != b
            )
            problems.append(f"{benchmark}@{machine_name}: event {first} differs")
    return {"problems": problems}


def check_reference(config) -> dict:
    """Every cell replayed through the reference loop on a fresh controller
    must equal the timed run's metrics and snapshot."""
    from repro.cpu.system import replay_miss_trace
    from repro.experiments import runner
    from repro.experiments.config import TABLE1_1M, TABLE1_256K

    check_program_location()
    machine = {m.name: m for m in (TABLE1_256K, TABLE1_1M)}[config["machine"]]
    references = workloads.WORKLOADS[config["workload"]]["references"]
    seed = workloads.program_seed(config["seed"])
    expected = json.loads(Path(config["result_path"]).read_text())
    benchmark = config["benchmark"]
    miss_trace, preseed = runner.get_miss_trace(
        benchmark, machine, references, seed
    )
    problems = []
    for scheme in config["schemes"]:
        spec = runner.SCHEMES[scheme]
        controller = runner.make_controller(spec, machine, seed)
        runner.apply_preseed(controller, preseed)
        metrics = replay_miss_trace(
            miss_trace, controller, core=machine.core, scheme=scheme, backend="reference"
        )
        meta = {"benchmark": benchmark, "scheme": scheme, "machine": machine.name,
                "references": references, "seed": seed}
        snapshot = runner.collect_cell_snapshot(controller, miss_trace, meta=meta)
        cell = f"{benchmark}/{scheme}"
        if json.loads(json.dumps(dataclasses.asdict(metrics))) != expected["results"][cell]:
            problems.append(f"{cell}: RunMetrics differ from the reference loop")
        if json.loads(json.dumps(snapshot.to_dict())) != expected["snapshots"][cell]:
            problems.append(f"{cell}: snapshot differs from the reference loop")
    return {"problems": problems}


def check_service(config) -> dict:
    """Service result bytes == a direct run_grid of the same spec."""
    from repro.experiments.config import TABLE1_256K
    from repro.experiments.sweep import run_grid

    check_program_location()
    grid = workloads.WORKLOADS["service-mixed"]["cold_grid"]
    problems = []
    for sample in config["samples"]:
        text = run_grid(
            grid["benchmarks"], grid["schemes"], machine=TABLE1_256K,
            references=workloads.WORKLOADS["service-mixed"]["cold_references"],
            seed=sample["seed"],
        ).canonical_json()
        if sha256(text.encode("utf-8")) != sample["sha256"]:
            problems.append(f"seed {sample['seed']}: service result != run_grid")
    return {"problems": problems}


ROLES = {
    "fixture": write_history,
    "check-hierarchy": check_hierarchy,
    "check-reference": check_reference,
    "check-service": check_service,
}


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text())
    role = config["role"]
    kind = workloads.WORKLOADS[config["workload"]]["kind"]
    if role in ROLES:
        out = ROLES[role](config)
    elif kind == "grid":
        out = run_grid_rep(config)
    else:
        out = run_service(config)
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
