"""Seed -> generated inputs for every workload.

The seed only ever picks inputs: which benchmarks a sample runs, the
machine seed it measures them under, and the request mix a server
client sends.  Everything else (scale, layout seeds, sizes) is fixed,
so two runs with one seed run identical work and two seeds run the
same amount of work on different inputs.
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-all-ci", "campaign-small", "pin-sweep-small", "serve-warm")

#: Machine seeds a workload may draw.  Correctness references exist
#: for each of them (see ``record_reference.py``), so the set is small.
MACHINE_SEEDS = (1, 2, 3, 4)

#: Benchmark personalities the campaign workload spans, one benchmark
#: drawn from each.  Integer codes with many hard branches and a small
#: heap exercise the predictor and BTB; large-footprint codes exercise
#: the cache hierarchy; the three branch-insensitive FP codes are the
#: paper's t-test failures.
BRANCH_HEAVY_INT = (
    "400.perlbench", "403.gcc", "445.gobmk", "456.hmmer", "471.omnetpp",
    "483.xalancbmk",
)
LARGE_FOOTPRINT = (
    "429.mcf", "434.zeusmp", "450.soplex", "459.GemsFDTD", "473.astar",
)
INSENSITIVE_FP = ("410.bwaves", "433.milc", "470.lbm")
CAMPAIGN_POOLS = (BRANCH_HEAVY_INT, LARGE_FOOTPRINT, INSENSITIVE_FP)

#: Benchmarks the paper's t-test accepts: the Pin sweep only makes
#: sense where the CPI-on-MPKI model is significant.
SIGNIFICANT = (
    "400.perlbench", "401.bzip2", "403.gcc", "416.gamess", "429.mcf",
    "434.zeusmp", "435.gromacs", "444.namd", "445.gobmk", "450.soplex",
    "454.calculix", "456.hmmer", "459.GemsFDTD", "462.libquantum",
    "464.h264ref", "465.tonto", "471.omnetpp", "473.astar", "482.sphinx3",
    "483.xalancbmk",
)
PIN_SWEEP_BENCHMARKS = 2

#: The server workload: warm benchmarks, the layout counts a client
#: asks for (the last is the ``small`` scale's full campaign), and the
#: requests each client sends per sample.
SERVE_BENCHMARKS = 2
SERVE_LAYOUTS = (4, 8, 40)
SERVE_CLIENTS = 2
SERVE_REQUESTS_PER_CLIENT = 1200


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def draw(workload: str, seed: int) -> dict:
    """The inputs of *workload* under *seed* (a JSON-ready dict)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed)
    if workload == "cli-all-ci":
        # The CLI fixes machine seed 1 and the published layout seeds.
        return {}
    machine_seed = rng.choice(MACHINE_SEEDS)
    if workload == "campaign-small":
        benchmarks = [rng.choice(pool) for pool in CAMPAIGN_POOLS]
        return {"machine_seed": machine_seed, "benchmarks": benchmarks}
    if workload == "pin-sweep-small":
        benchmarks = sorted(rng.sample(SIGNIFICANT, PIN_SWEEP_BENCHMARKS))
        return {"machine_seed": machine_seed, "benchmarks": benchmarks}
    benchmarks = sorted(rng.sample(SIGNIFICANT, SERVE_BENCHMARKS))
    keys = [[name, n] for name in benchmarks for n in SERVE_LAYOUTS]
    mix = [
        [rng.randrange(len(keys)) for _ in range(SERVE_REQUESTS_PER_CLIENT)]
        for _ in range(SERVE_CLIENTS)
    ]
    return {
        "machine_seed": machine_seed,
        "benchmarks": benchmarks,
        "keys": keys,
        "mix": mix,
    }
