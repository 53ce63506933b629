#!/usr/bin/env python3
"""Record ``reference.json``: the output digests every sample is checked against.

Usage: ``python3 perfbench/record_reference.py``  (a few minutes).

Run it only on a commit whose outputs are known good; a later commit
that changes any digest fails the benchmark's correctness check.  It
covers every input a seed can draw: the CLI export set, each campaign
benchmark under each machine seed, and each Pin-sweep benchmark (the
Pin tool's MPKIs do not depend on the machine seed).
"""

from __future__ import annotations

import json
import shutil

import inputs
from run import HERE, WORK, Run, cli_fields


def record(run: Run, mode: str, **fields) -> dict:
    spec, directory = run.make_spec(mode, **fields)
    proc, _ = run.spawn(spec, directory)
    proc.wait()
    path = directory / "result.json"
    if proc.returncode != 0 or json.loads(path.read_text())["rc"] != 0:
        raise SystemExit(f"{run.workload} {mode} failed; see {directory}/child.log")
    return json.loads(path.read_text())["digests"]


def main() -> int:
    reference: dict = {}
    runs = []
    try:
        cli = Run("cli-all-ci", 0, 0, False, {})
        runs.append(cli)
        reference["cli-all-ci"] = record(
            cli, "sample", **cli_fields(cli.work / "cli")
        )["exports"]
        campaign = Run("campaign-small", 0, 0, False, {})
        runs.append(campaign)
        reference["campaign-small"] = record(
            campaign, "reference",
            machine_seeds=list(inputs.MACHINE_SEEDS),
            benchmarks=sorted(b for pool in inputs.CAMPAIGN_POOLS for b in pool),
        )
        sweep = Run("pin-sweep-small", 0, 0, False, {})
        runs.append(sweep)
        reference["pin-sweep-small"] = record(
            sweep, "reference", machine_seeds=[1], benchmarks=list(inputs.SIGNIFICANT),
        )
    finally:
        for run in runs:
            shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
