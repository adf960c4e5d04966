"""Workload definitions: what each named workload runs, made from a seed.

Pure data, importable without the program, so ``run.py`` can plan a run
before any child process starts.
"""

from __future__ import annotations

import random

FIGURE_SCHEMES = ["oracle", "seqcache_4k", "seqcache_128k", "seqcache_512k", "pred_regular"]

LADDER_SCHEMES = [
    "oracle", "baseline", "seqcache_4k", "seqcache_32k", "seqcache_128k",
    "seqcache_512k", "pred_regular", "pred_regular_static", "pred_regular_history",
    "pred_two_level", "pred_context", "pred_plus_cache_32k", "predecrypt",
    "hybrid_predecrypt", "direct_encryption",
]

# The grids' trace lengths keep a repetition short enough that a run holds
# several (the host's speed drifts over seconds, and the grid figures are
# medians over a run's repetitions), yet long enough that the trace front
# end stays the largest stage of figure-cold and replay that of
# scheme-ladder; the preseed costs the same at any length.
WORKLOADS = {
    # FP sweep (swim), pointer chasing (mcf), mixed integer (gzip); mcf and
    # swim carry the largest preseeds.
    "figure-cold": {
        "kind": "grid",
        "benchmarks": ["mcf", "swim", "gzip"],
        "schemes": FIGURE_SCHEMES,
        "machines": ["table1-256K", "table1-1M"],
        "references": 40_000,
        "check": "hierarchy",
    },
    "scheme-ladder": {
        "kind": "grid",
        "benchmarks": ["gzip", "twolf"],
        "schemes": LADDER_SCHEMES,
        "machines": ["table1-256K"],
        "references": 20_000,
        "check": "reference",
    },
    "service-mixed": {
        "kind": "service",
        "tenants": ["alice", "bob"],
        "cold_grid": {"benchmarks": ["gzip"], "schemes": ["oracle", "pred_regular"]},
        "cold_references": 8_000,
        "history_jobs": 150,
    },
}


def program_seed(seed: int) -> int:
    """The simulator seed a benchmark seed maps to (always positive)."""
    return 1 + seed % (1 << 31)


def hierarchy_check_cells(seed: int) -> list[tuple[str, str]]:
    """One (benchmark, machine) per machine for the stand-alone model."""
    spec = WORKLOADS["figure-cold"]
    rng = random.Random(f"hierarchy-{seed}")
    return [(rng.choice(spec["benchmarks"]), machine) for machine in spec["machines"]]


def history_jobs(seed: int) -> list[dict]:
    """The finished jobs the service's store holds before the run starts."""
    spec = WORKLOADS["service-mixed"]
    rng = random.Random(f"history-{seed}")
    tenants = ["alice", "bob", "carol", "dave"]
    benchmarks = ["gzip", "twolf", "mcf", "swim", "gcc", "art"]
    jobs = []
    for _ in range(spec["history_jobs"]):
        jobs.append(
            {
                "tenant": rng.choice(tenants),
                "benchmarks": rng.sample(benchmarks, rng.randint(1, 2)),
                "schemes": rng.sample(FIGURE_SCHEMES, rng.randint(1, 3)),
                "machine": rng.choice(WORKLOADS["figure-cold"]["machines"]),
                "references": rng.choice([6_000, 20_000, 60_000]),
                "seed": rng.randint(1, 1 << 30),
                "hit_share": rng.random(),
                "samples": rng.randint(1, 4),
            }
        )
    return jobs


def cold_job_seed(seed: int, client: int, index: int) -> int:
    """A seed no other job of the run uses, so every cold cell is new."""
    return (seed % 20_000) * 100_000 + 2 * index + client + 1
