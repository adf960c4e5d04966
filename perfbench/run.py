"""The repository benchmark: one named workload, end to end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figure-cold --seed 1 --seconds 30 --trace 0

Every measured step runs in a fresh child process (``child.py``) over a
fresh ``REPRO_CACHE_DIR`` under ``.perfbench-work/``.  With ``--trace 0``
the last line of standard output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer figures of a
traced repetition, plus ``tracing.overhead_s`` against an untraced one,
and the Chrome trace is kept in ``.perfbench-work/traces/``.  The exit
code is 0 when the run completed, whether or not its checks passed
(``correct``), and 2 when the program could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 3
CHILD_TIMEOUT_SECONDS = 170.0


class ChildFailed(RuntimeError):
    """A child process exited non-zero or timed out: the program did not run."""


class Run:
    """One benchmark run: its working directory and its child processes."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.counter = 0
        self.problems: list[str] = []

    def start(self, role: str, cache: Path | None = None, **extra):
        """Start one child; returns a handle for :meth:`finish`."""
        self.counter += 1
        step = self.dir / f"{self.counter:03d}-{role}"
        step.mkdir(parents=True)
        cache = cache or step / "cache"
        config = {
            "role": role, "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "out_dir": str(step), **extra,
        }
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["REPRO_CACHE_DIR"] = str(cache)
        env["PYTHONHASHSEED"] = "0"  # same string-hash layout in every child
        log = (step / "child.log").open("w")
        config["spawn_ts"] = time.time()
        (step / "config.json").write_text(json.dumps(config))
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(step / "config.json"),
             str(step / "out.json")],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        return process, step, log

    def finish(self, handle) -> dict:
        process, step, log = handle
        try:
            process.wait(timeout=CHILD_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        finally:
            log.close()
        if process.returncode != 0:
            tail = (step / "child.log").read_text()[-3000:]
            raise ChildFailed(f"{step.name} exited {process.returncode}:\n{tail}")
        return json.loads((step / "out.json").read_text())

    def child(self, role: str, cache: Path | None = None, **extra) -> dict:
        return self.finish(self.start(role, cache, **extra))

    def parallel(self, jobs: list[tuple[str, dict]]) -> list[dict]:
        """Run children two at a time, one per CPU, and wait for all of them."""
        outs = []
        for index in range(0, len(jobs), 2):
            handles = [self.start(role, **extra) for role, extra in jobs[index:index + 2]]
            failure = None
            for handle in handles:  # wait for every child, even after a failure
                try:
                    outs.append(self.finish(handle))
                except ChildFailed as error:
                    failure = error
            if failure is not None:
                raise failure
        return outs

    def check(self, outs: list[dict]) -> None:
        for out in outs:
            self.problems.extend(out["problems"])


# -- grid workloads ------------------------------------------------------------


def grid_properties(path: str, spec: dict) -> list[str]:
    """The method's properties on every cell of one machine's grid."""
    sweep = json.loads(Path(path).read_text())
    problems = []
    for benchmark in spec["benchmarks"]:
        cells = {
            key.split("/", 1)[1]: value
            for key, value in sweep["results"].items()
            if key.split("/", 1)[0] == benchmark
        }
        oracle = cells["oracle"]
        snapshot = sweep["snapshots"][f"{benchmark}/oracle"]["metrics"]
        trace_fetches = snapshot["memory.hierarchy.l2_misses"]
        references = (
            snapshot["memory.hierarchy.l1_hits"]
            + snapshot["memory.hierarchy.l2_hits"]
            + snapshot["memory.hierarchy.l2_misses"]
        )
        if references != spec["references"]:
            problems.append(f"{benchmark}: l1+l2 hits+misses {references} != refs")
        for scheme, metrics in cells.items():
            where = f"{benchmark}/{scheme}@{sweep['machine']}"
            if metrics["fetches"] != trace_fetches:
                problems.append(f"{where}: fetches {metrics['fetches']} != trace {trace_fetches}")
            classes = sum(metrics[key] for key in metrics if key.startswith("class_"))
            if classes != metrics["fetches"]:
                problems.append(f"{where}: class counts {classes} != fetches")
            if metrics["cycles"] < oracle["cycles"]:
                problems.append(f"{where}: normalized IPC above 1")
    return problems


def median_cells(reps: list[dict]) -> list[dict]:
    """Each cell with its median time over the run's repetitions.

    The host's speed drifts by a quarter over stretches of seconds, so one
    repetition of a grid reads whatever stretch it fell in; the median of
    each cell over every repetition of the run spans more of them.
    """
    times: dict[str, list[float]] = {}
    cells: dict[str, dict] = {}
    for rep in reps:
        for cell in rep["cells"]:
            times.setdefault(cell["cell"], []).append(cell["seconds"])
            cells[cell["cell"]] = cell
    return [
        dict(cell, seconds=statistics.median(times[name])) for name, cell in cells.items()
    ]


def typical_median(cells: list[dict], cold: bool) -> float:
    """Geometric mean over benchmarks of each benchmark's median cell time.

    Cell times differ several-fold between benchmarks, so a median over
    all cells lands between two benchmarks' clusters and jumps with small
    shifts; a median within each benchmark does not.
    """
    groups: dict[str, list[float]] = {}
    for cell in cells:
        if cell["cold"] == cold:
            groups.setdefault(cell["benchmark"], []).append(cell["seconds"])
    return statistics.geometric_mean(statistics.median(times) for times in groups.values())


def grid_run(run: Run, traced: bool) -> tuple[dict, int, int]:
    spec = run.spec
    setups = [run.child("probe")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    started = time.perf_counter()
    if traced:
        reps.append(run.child("grid"))
    else:
        # Two repetitions at a time, one per CPU: each CPU's speed drifts on
        # its own, so a pair doubles the samples of each cell's median.  At
        # least two pairs, so that every cell has four samples and the 90th
        # percentile has a dozen beyond it.
        pairs = 0
        while True:
            reps.extend(run.parallel([("grid", {}), ("grid", {})]))
            pairs += 1
            spent = time.perf_counter() - started
            if pairs >= 2 and spent + spent / pairs > run.seconds:
                break
    traced_rep = run.child("grid", traced=True) if traced else None

    attempted = sum(rep["attempted"] for rep in reps + ([traced_rep] if traced else []))
    errors = [error for rep in reps for error in rep["errors"]]
    if traced:
        errors += traced_rep["errors"]
    for error in errors:
        print(f"cell failed: {error}", file=sys.stderr)
    first = reps[0]["results"]
    for rep in reps[1:] + ([traced_rep] if traced else []):
        for machine, result in rep["results"].items():
            if result["sha256"] != first[machine]["sha256"]:
                run.problems.append(f"{machine}: SweepResult differs between repetitions")
    for machine in spec["machines"]:
        run.problems.extend(grid_properties(first[machine]["path"], spec))
    if spec["check"] == "hierarchy":
        run.check(run.parallel([
            ("check-hierarchy", {"cells": [cell]})
            for cell in workloads.hierarchy_check_cells(run.seed)
        ]))
    else:
        machine = spec["machines"][0]
        run.check(run.parallel([
            ("check-reference", {"benchmark": benchmark, "machine": machine,
                                 "schemes": spec["schemes"],
                                 "result_path": first[machine]["path"]})
            for benchmark in spec["benchmarks"]
        ]))

    if traced:
        run.problems.extend(traced_rep["trace_problems"])
        metrics = dict(traced_rep["layers"])
        metrics["tracing.overhead_s"] = traced_rep["wall_s"] - reps[0]["wall_s"]
        keep_trace(run, traced_rep["trace"])
        return metrics, attempted, len(errors)
    cells = median_cells(reps)
    seconds = [cell["seconds"] for cell in cells]
    every_cell = [cell["seconds"] for rep in reps for cell in rep["cells"]]
    metrics = {
        "setup_s": statistics.median(setups + [rep["setup_s"] for rep in reps]),
        "wall_s": sum(seconds),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "cold_job_p50_s": typical_median(cells, cold=True),
        "warm_job_p50_s": typical_median(cells, cold=False),
        "job_p90_s": statistics.quantiles(every_cell, n=10)[-1],
        "jobs_per_s": len(seconds) / sum(seconds),
    }
    return metrics, attempted, len(errors)


# -- service workload ----------------------------------------------------------


def service_phase(run: Run, traced: bool, seconds: float) -> dict:
    cache = run.dir / f"store-{run.counter + 1:03d}"
    run.child("fixture", cache)
    out = run.child("service", cache, traced=traced, seconds=seconds)
    cold = {}
    for job in out["jobs"]:
        detail = job["detail"]
        where = f"{job['kind']} job {job['job_id']} (seed {job['seed']})"
        if job["state"] != "done":
            print(f"{where}: ended {job['state']}", file=sys.stderr)
            continue
        hits, total = detail.get("cache_hits"), detail.get("cells_total")
        if job["kind"] == "cold":
            cold[job["seed"]] = job["sha256"]
            if hits != 0:
                run.problems.append(f"{where}: {hits} cache hits on new cells")
        elif hits != total:
            run.problems.append(f"{where}: {hits} of {total} cells from cache")
    for job in out["jobs"]:
        if job["kind"] == "warm" and job["state"] == "done":
            if cold.get(job["seed"]) != job["sha256"]:
                run.problems.append(f"warm job {job['job_id']}: bytes differ from cold")
    out["cold_sha256"] = cold
    return out


def service_run(run: Run, traced: bool) -> tuple[dict, int, int]:
    spec = run.spec
    phases = []
    setups = []
    if not traced:
        probe_cache = run.dir / "store-probe"
        run.child("fixture", probe_cache)
        setups = [run.child("probe", probe_cache)["setup_s"] for _ in range(SETUP_PROBES)]
        phases.append(service_phase(run, False, run.seconds))
    else:
        phases.append(service_phase(run, False, run.seconds / 2))
        phases.append(service_phase(run, True, run.seconds / 2))
    jobs = [job for phase in phases for job in phase["jobs"]]
    failed = sum(1 for job in jobs if job["state"] != "done")

    # Each client's first cold grid, recomputed directly over another cache.
    cold = phases[0]["cold_sha256"]
    samples = []
    for client in range(len(spec["tenants"])):
        seed = workloads.cold_job_seed(run.seed, client, 0)
        if seed in cold:
            samples.append({"seed": seed, "sha256": cold[seed]})
        else:
            run.problems.append(f"client {client}: first cold job did not complete")
    run.check([run.child("check-service", samples=samples)])

    if traced:
        untraced, traced_phase = phases
        run.problems.extend(traced_phase["trace_problems"])
        metrics = dict(traced_phase["layers"])
        metrics["tracing.overhead_s"] = (
            traced_phase["phase_s"] / len(traced_phase["jobs"])
            - untraced["phase_s"] / len(untraced["jobs"])
        )
        keep_trace(run, traced_phase["trace"])
        return metrics, len(jobs), failed
    out = phases[0]
    done = [job for job in jobs if job["state"] == "done"]
    latency = [job["latency_s"] for job in done]
    metrics = {
        "setup_s": statistics.median(setups + [out["setup_s"]]),
        "wall_s": statistics.median(job["pair_s"] for job in done if job["kind"] == "cold"),
        "peak_rss_mb": out["peak_rss_mb"],
        "cold_job_p50_s": statistics.median(j["latency_s"] for j in done if j["kind"] == "cold"),
        "warm_job_p50_s": statistics.median(j["latency_s"] for j in done if j["kind"] == "warm"),
        "job_p90_s": statistics.quantiles(latency, n=10)[-1],
        "jobs_per_s": len(done) / out["phase_s"],
    }
    return metrics, len(jobs), failed


def keep_trace(run: Run, source: str) -> None:
    """Keep the traced step's Chrome trace after the run directory goes."""
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(source, traces / f"{run.workload}-seed{run.seed}.json")


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    try:
        body = grid_run if run.spec["kind"] == "grid" else service_run
        values, attempted, failed = body(run, bool(args.trace))
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(values):
        print(f"error: metrics {sorted(values)} != BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in sorted(values)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
