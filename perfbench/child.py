"""One benchmark sample, run in a fresh process.

Usage: ``python perfbench/child.py SPEC.json``.  The spec names the
workload, the checkout's ``src`` directory, the inputs and where to
write the result.  The child imports ``repro`` from that checkout,
marks the moment it is ready (imports and ``Laboratory`` done), runs
the workload body through the program's public entry points, and
writes a result JSON: timestamps, peak RSS, output digests and, when
traced, the span list.

Modes: ``sample`` runs the body; ``probe`` stops once ready (a set-up
measurement only); ``seed`` fills a campaign store and writes the
server's expected payloads; ``reference`` computes the correctness
digests over many inputs at once (``record_reference.py``).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def campaign_digest(lab, name: str) -> str:
    """Digest of one benchmark's ``dump_campaign`` payload."""
    from repro.persistence import dump_campaign
    from repro.store import CampaignKey

    key = CampaignKey.for_interferometer(lab.interferometer, name)
    return sha256(dump_campaign(lab.observations(name), key.provenance).encode())


def sweep_digest(evaluation) -> str:
    """Digest of the per-predictor mean MPKIs of one evaluation."""
    mpkis = {o.predictor: repr(o.mean_mpki) for o in evaluation.outcomes}
    return sha256(json.dumps(mpkis, sort_keys=True).encode())


def export_digest(directory: Path) -> tuple[int, str]:
    """(file count, digest) over the CSVs the CLI exported."""
    digest = hashlib.sha256()
    files = sorted(directory.glob("*.csv"))
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return len(files), digest.hexdigest()


def _laboratory(spec: dict, cache_dir=None):
    from repro.harness.lab import SCALES, Laboratory

    return Laboratory(
        scale=SCALES["small"], machine_seed=spec["machine_seed"], cache_dir=cache_dir
    )


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    workload, mode = spec["workload"], spec["mode"]
    result: dict = {"digests": {}}
    recorder = None
    if spec.get("trace"):
        import tracing

        recorder = tracing.Recorder()

    started = time.perf_counter()
    if workload == "cli-all-ci":
        import repro.cli  # noqa: F401
    elif workload == "serve-warm":
        import repro.serve
    else:
        import repro.harness.lab  # noqa: F401
    result["import_s"] = time.perf_counter() - started
    if recorder is not None:
        tracing.install(recorder, serving=workload == "serve-warm")

    lab = None
    if workload in ("campaign-small", "pin-sweep-small") and mode in ("sample", "probe"):
        lab = _laboratory(spec, spec.get("store"))
    result["ready"] = time.perf_counter()
    rc = 0
    if mode == "seed":
        rc = seed_store(spec)
    elif mode == "reference":
        reference_digests(spec, result)
    elif mode == "sample" and workload == "serve-warm":
        # Blocks until SIGTERM; readiness is the server's own banner.
        rc = repro.serve.main(spec["argv"])
    elif mode == "sample":
        root = recorder.open("run") if recorder is not None else None
        outputs = BODIES[workload](spec, lab)
        if root is not None:
            recorder.close(root)
        result["end"] = time.perf_counter()
        rc = DIGESTS[workload](spec, lab, outputs, result["digests"])
    result.setdefault("end", time.perf_counter())
    result["rc"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        result["spans"] = recorder.spans
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


# -- workload bodies (timed) and their output digests (not timed) --------


def cli_body(spec: dict, lab) -> int:
    import repro.cli

    return repro.cli.main(spec["argv"])


def cli_digests(spec: dict, lab, rc: int, digests: dict) -> int:
    count, digest = export_digest(Path(spec["export"]))
    digests["exports"] = f"{count}:{digest}"
    return rc


def campaign_body(spec: dict, lab) -> None:
    for name in spec["benchmarks"]:
        lab.model(name)


def campaign_digests(spec: dict, lab, outputs, digests: dict) -> int:
    for name in spec["benchmarks"]:
        digests[f"{spec['machine_seed']}/{name}"] = campaign_digest(lab, name)
    return 0


def sweep_body(spec: dict, lab) -> list:
    return [lab.evaluation(name) for name in spec["benchmarks"]]


def sweep_digests(spec: dict, lab, evaluations, digests: dict) -> int:
    for evaluation in evaluations:
        digests[evaluation.benchmark] = sweep_digest(evaluation)
    return 0


BODIES = {
    "cli-all-ci": cli_body,
    "campaign-small": campaign_body,
    "pin-sweep-small": sweep_body,
}
DIGESTS = {
    "cli-all-ci": cli_digests,
    "campaign-small": campaign_digests,
    "pin-sweep-small": sweep_digests,
}


def reference_digests(spec: dict, result: dict) -> None:
    """Digests of every (machine seed, benchmark) a workload may draw."""
    for machine_seed in spec["machine_seeds"]:
        sub = {**spec, "machine_seed": machine_seed}
        lab = _laboratory(sub)
        outputs = BODIES[spec["workload"]](sub, lab)
        DIGESTS[spec["workload"]](sub, lab, outputs, result["digests"])


def seed_store(spec: dict) -> int:
    """Measure the warm campaigns into a store; write expected payloads.

    The expected payload of each served key is a direct
    ``dump_campaign`` of that slice, read back from the seeded store.
    """
    from repro.core.observations import ObservationSet
    from repro.persistence import dump_campaign
    from repro.store import CampaignKey, CampaignStore

    lab = _laboratory(spec, spec["store"])
    for name in spec["benchmarks"]:
        lab.observations(name)
    store = CampaignStore(spec["store"])
    expected = Path(spec["expected"])
    expected.mkdir(parents=True, exist_ok=True)
    for name, n_layouts in spec.get("keys", []):
        key = CampaignKey.for_interferometer(lab.interferometer, name)
        subset = ObservationSet(benchmark=name)
        subset.extend(store.load(key).observations[:n_layouts])
        payload = dump_campaign(subset, provenance=key.provenance)
        (expected / f"{name}-{n_layouts}.json").write_text(payload)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(sys.argv[1]))
