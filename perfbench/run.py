#!/usr/bin/env python3
"""The repository benchmark: cold-process samples of four workloads.

Usage::

    python3 perfbench/run.py --workload cli-all-ci --seed 1 --seconds 24 --trace 0

Every sample is a fresh child process (``perfbench/child.py``) that
imports ``repro`` from this checkout's ``src`` and calls the program's
public entry points; nothing is shared between samples but inputs
copied byte for byte.  Samples repeat until ``--seconds`` of sampling
are used (at least one).  Every sample's outputs are checked against
``reference.json`` (or, for the server, against direct dumps of the
seeded store).  With ``--trace 1`` samples alternate traced/untraced
and the per-layer metrics are reported instead of the end-to-end ones.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
}
#: Every run stops sampling and exits well inside the 180 s limit.
HARD_LIMIT_S = 165.0
#: Set-up is measured at least this many times per run (median reported).
MIN_SETUPS = 3
SERVE_WORKERS = 2


class SampleFailed(Exception):
    """A sample's process failed or its outputs did not check."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def expected_digests(workload: str, drawn: dict, reference: dict) -> dict:
    """The reference digest of every output a sample with *drawn* inputs makes."""
    if workload == "cli-all-ci":
        return {"exports": reference["cli-all-ci"]}
    table = reference[workload]
    keys = [
        f"{drawn['machine_seed']}/{name}" if workload == "campaign-small" else name
        for name in drawn["benchmarks"]
    ]
    return {key: table.get(key, "<no reference>") for key in keys}


def check_digests(expected: dict, digests: dict) -> list[str]:
    """One message per output whose digest is missing or differs."""
    return [
        f"{key}: digest {digests.get(key)} != reference {value}"
        for key, value in sorted(expected.items())
        if digests.get(key) != value
    ]


def cli_fields(directory: Path) -> dict:
    """The CLI's arguments: a fresh store and export dir under *directory*."""
    export = str(directory / "export")
    argv = ["all", "--scale", "ci", "--cache-dir", str(directory / "cache"),
            "--export", export]
    return {"export": export, "argv": argv}


class Run:
    """One ``run.py`` invocation: its inputs, work directory and children."""

    def __init__(
        self, workload: str, seed: int, seconds: int, trace: bool, reference: dict
    ) -> None:
        self.workload = workload
        self.inputs = inputs.draw(workload, seed)
        self.seconds = seconds
        self.trace = trace
        self.reference = reference
        self.started = time.perf_counter()
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []
        self._count = 0
        self._procs: list[subprocess.Popen] = []

    # -- child processes -------------------------------------------------

    def remaining(self) -> float:
        """Seconds left before the run must stop waiting on children."""
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def _env(self) -> dict:
        # No REPRO_* setting of the caller (fault plans, cache dirs,
        # deadlines) may reach the program under test.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_SCALE"] = "small"
        return env

    def make_spec(self, mode: str, trace: bool = False, **fields) -> tuple[dict, Path]:
        """A child's spec (inputs plus *fields*) and its own directory."""
        self._count += 1
        directory = self.work / f"{self._count:03d}-{mode}"
        directory.mkdir(parents=True)
        spec = {
            "workload": self.workload,
            "mode": mode,
            "trace": trace,
            "src": str(SRC),
            "result": str(directory / "result.json"),
            **self.inputs,
            **fields,
        }
        return spec, directory

    def spawn(self, spec: dict, directory: Path, stdout=None):
        """Start ``child.py`` on *spec*; returns (process, spawn time)."""
        spec_path = directory / "spec.json"
        spec_path.write_text(json.dumps(spec))
        log = open(directory / "child.log", "w")
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=log if stdout is None else stdout,
            stderr=log,
            env=self._env(),
            cwd=str(directory),
        )
        log.close()
        self._procs.append(proc)
        return proc, spawned

    def stop_children(self) -> None:
        """Kill and reap any child still running (an aborted run)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def _finish(self, proc, spec: dict) -> dict:
        """Wait for a child; its result JSON, or SampleFailed."""
        try:
            proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SampleFailed(f"{spec['mode']} timed out") from None
        path = Path(spec["result"])
        if proc.returncode != 0 or not path.exists():
            log = Path(spec["result"]).with_name("child.log")
            tail = log.read_text()[-800:] if log.exists() else ""
            raise SampleFailed(f"{spec['mode']} exited {proc.returncode}: {tail}")
        result = json.loads(path.read_text())
        if result["rc"] != 0:
            raise SampleFailed(f"{spec['mode']} body returned {result['rc']}")
        return result

    def child(self, mode: str, **fields) -> tuple[dict, float]:
        """Run one untraced child to completion: (result, spawn time)."""
        spec, directory = self.make_spec(mode, **fields)
        proc, spawned = self.spawn(spec, directory)
        return self._finish(proc, spec), spawned

    # -- workloads ---------------------------------------------------------

    def prepare(self) -> None:
        """Seed the campaign store the samples copy (not measured)."""
        if self.workload not in ("pin-sweep-small", "serve-warm"):
            return
        self.seeded = self.work / "seeded-store"
        expected = self.work / "expected"
        self.child("seed", store=str(self.seeded), expected=str(expected))
        #: Direct dumps of every served key, in ``inputs["keys"]`` order.
        self.expected = [
            (expected / f"{name}-{n}.json").read_bytes()
            for name, n in self.inputs.get("keys", [])
        ]

    def batch_sample(self, trace: bool) -> dict:
        """One cold child running the workload body."""
        fields: dict = {}
        spec, directory = self.make_spec("sample", trace)
        if self.workload == "cli-all-ci":
            fields = cli_fields(directory)
        elif self.workload == "pin-sweep-small":
            fields["store"] = str(directory / "store")
            shutil.copytree(self.seeded, fields["store"])
        spec.update(fields)
        proc, spawned = self.spawn(spec, directory)
        result = self._finish(proc, spec)
        exited = time.perf_counter()
        # A wrong output fails the sample's check, not the benchmark:
        # its timings stay valid and the run reports correct=false.
        self.failures.extend(check_digests(
            expected_digests(self.workload, self.inputs, self.reference),
            result["digests"],
        ))
        return {
            "setup_s": result["ready"] - spawned,
            "run_s": result["end"] - result["ready"],
            "peak_rss_mb": result["peak_rss_mb"],
            "latencies_ms": [(exited - spawned) * 1000.0],
            "requests": 1,
            "busy_s": exited - spawned,
            "import_s": result["import_s"],
            "spans": result.get("spans"),
        }

    def probe(self) -> float:
        """Set-up only: spawn to ready, then exit."""
        result, spawned = self.child("probe")
        return result["ready"] - spawned

    def serve_sample(self, trace: bool) -> dict:
        """A server over a store copy, hit by closed-loop clients."""
        spec, directory = self.make_spec("sample", trace)
        store = directory / "store"
        shutil.copytree(self.seeded, store)
        spec["argv"] = [
            "--port", "0", "--cache-dir", str(store),
            "--workers", str(SERVE_WORKERS),
            "--machine-seed", str(self.inputs["machine_seed"]),
        ]
        proc, spawned = self.spawn(spec, directory, stdout=subprocess.PIPE)
        try:
            ready, port = self._await_banner(proc)
            keys = [f"/campaign?benchmark={name}&layouts={n}"
                    for name, n in self.inputs["keys"]]
            # Warm-up: every key once, so the timed batch is all warm.
            for index in range(len(keys)):
                self._request(port, keys, index, [])
            self.attempted += len(keys)
            latencies: list[list[float]] = [[] for _ in self.inputs["mix"]]
            threads = [
                threading.Thread(
                    target=self._client, args=(port, keys, mix, latencies[c])
                )
                for c, mix in enumerate(self.inputs["mix"])
            ]
            batch_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(1.0, self.remaining()))
            batch_end = time.perf_counter()
            if any(thread.is_alive() for thread in threads):
                raise SampleFailed("client threads did not finish in time")
            server_view = json.loads(self._get(port, "/metrics")[1]) if trace else {}
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        try:
            tail, _ = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SampleFailed("server did not drain in time") from None
        if b"drained:" not in tail:
            raise SampleFailed(f"server exited {proc.returncode} without a drain")
        result = self._finish(proc, spec)
        timed = [ms for per_client in latencies for ms in per_client]
        self.attempted += len(timed)
        return {
            "setup_s": ready - spawned,
            "run_s": batch_end - batch_start,
            "peak_rss_mb": result["peak_rss_mb"],
            "latencies_ms": timed,
            "requests": len(timed),
            "busy_s": batch_end - batch_start,
            "import_s": result["import_s"],
            "spans": result.get("spans"),
            "window": (batch_start, batch_end),
            "server": server_view,
        }

    def _await_banner(self, proc) -> tuple[float, int]:
        ready, _, _ = select.select([proc.stdout], [], [], max(1.0, self.remaining()))
        banner = proc.stdout.readline().decode() if ready else ""
        if "serving campaigns on http://" not in banner:
            raise SampleFailed(f"server did not start: {banner!r}")
        return time.perf_counter(), int(banner.rsplit(":", 1)[1].split()[0])

    @staticmethod
    def _get(port: int, target: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", target)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _request(self, port: int, keys: list[str], index: int, latencies: list) -> None:
        started = time.perf_counter()
        status, body = self._get(port, keys[index])
        latencies.append((time.perf_counter() - started) * 1000.0)
        if status != 200:
            self.failures.append(f"{keys[index]}: HTTP {status}")
        elif body != self.expected[index]:
            self.failures.append(f"{keys[index]}: body differs from the direct dump")

    def _client(self, port: int, keys: list[str], mix: list[int], latencies: list) -> None:
        """Closed loop: the next request leaves when the previous returns."""
        try:
            for index in mix:
                self._request(port, keys, index, latencies)
        except OSError as exc:
            self.failures.append(f"client error: {exc}")

    # -- the sampling loop -------------------------------------------------

    def sample(self, trace: bool) -> dict | None:
        self.attempted += 1
        try:
            if self.workload == "serve-warm":
                return self.serve_sample(trace)
            return self.batch_sample(trace)
        except (SampleFailed, OSError) as exc:
            self.failures.append(str(exc))
            return None

    def collect(self) -> list[tuple[bool, dict]]:
        """Samples until the budget is used: ``(traced, sample)`` pairs."""
        deadline = time.perf_counter() + self.seconds
        samples: list[tuple[bool, dict]] = []
        while self.remaining() > 0:
            traced = self.trace and len(samples) % 2 == 0
            began = time.perf_counter()
            sample = self.sample(traced)
            if sample is None:
                break
            samples.append((traced, sample))
            spent = time.perf_counter() - began
            if self.trace and len(samples) < 2:
                continue  # a traced run needs one traced and one untraced
            if time.perf_counter() + spent > deadline:
                break
        return samples

    def setups(self, samples: list[dict]) -> list[float]:
        """Set-up times of the samples, topped up by probes to MIN_SETUPS.

        A server sample is short, so a run has several; a probe could
        not measure the server's set-up (it ends at the banner).
        """
        values = [s["setup_s"] for s in samples]
        while (len(values) < MIN_SETUPS and self.workload != "serve-warm"
               and self.remaining() > 10):
            self.attempted += 1
            try:
                values.append(self.probe())
            except SampleFailed as exc:
                self.failures.append(str(exc))
                break
        return values


def end_to_end(samples: list[dict], setups: list[float]) -> dict:
    """Each metric is the median over the run's samples of its per-sample value."""

    def median(per_sample) -> float:
        return statistics.median(per_sample(s) for s in samples)

    return {
        "setup_s": statistics.median(setups),
        "run_s": median(lambda s: s["run_s"]),
        "peak_rss_mb": median(lambda s: s["peak_rss_mb"]),
        "latency_p50_ms": median(lambda s: percentile(s["latencies_ms"], 0.50)),
        "latency_p99_ms": median(lambda s: percentile(s["latencies_ms"], 0.99)),
        "throughput_rps": median(lambda s: s["requests"] / s["busy_s"]),
    }


def per_layer(run: Run, traced: list[dict], untraced: list[dict]) -> dict:
    rows = []
    for sample in traced:
        row = tracing.summarize(sample["spans"], sample.get("window"))
        row["startup.import_s"] = sample["import_s"]
        if run.workload == "serve-warm":
            server = sample["server"]
            client_p50 = percentile(sample["latencies_ms"], 0.50)
            row.update({
                "trace.unattributed_s": 0.0,
                "serve.server_p50_ms": server["latency_ms"]["p50"],
                "serve.server_p99_ms": server["latency_ms"]["p99"],
                "serve.front_end_ms": client_p50 - server["latency_ms"]["p50"],
                "serve.coalesced": server["coalesced"],
                "serve.rejected": server["rejected"],
                "serve.pool_saturation": (
                    row["serve.lab_lookup_s"] + row["persistence.dump_s"]
                ) / (SERVE_WORKERS * sample["run_s"]),
            })
        rows.append(row)
    # serve.* rows exist only on the server workload; elsewhere they read 0.
    out = {name: statistics.median(row.get(name, 0.0) for row in rows)
           for name in tracing.METRICS if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (
        statistics.median(s["run_s"] for s in traced)
        - statistics.median(s["run_s"] for s in untraced)
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("error: perfbench/reference.json is missing", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              load_reference())
    try:
        try:
            run.prepare()
        except SampleFailed as exc:
            print(f"error: seeding the store failed: {exc}", file=sys.stderr)
            return 1
        samples = run.collect()
        traced = [s for t, s in samples if t]
        untraced = [s for t, s in samples if not t]
        if not untraced or (run.trace and not traced):
            print("error: no sample completed: " + "; ".join(run.failures[:3]),
                  file=sys.stderr)
            return 1
        if run.trace:
            metrics = per_layer(run, traced, untraced)
            units = tracing.METRICS
        else:
            metrics = end_to_end(untraced, run.setups(untraced))
            units = END_TO_END
    finally:
        run.stop_children()
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = len(run.failures)
    print(f"workload {run.workload}: {len(samples)} sample(s), inputs "
          f"{json.dumps({k: v for k, v in run.inputs.items() if k != 'mix'})}")
    for traced_sample, sample in samples:
        latencies = sample["latencies_ms"]
        print(f"  sample{' (traced)' if traced_sample else ''}: "
              f"setup {sample['setup_s']:.3f} s, run {sample['run_s']:.3f} s, "
              f"{sample['requests']} request(s), p50 {percentile(latencies, 0.5):.4g} ms, "
              f"p99 {percentile(latencies, 0.99):.4g} ms")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'fail_rate':34s} {failed / run.attempted:14.6g} ratio "
          f"({failed} of {run.attempted} operations)")
    for failure in run.failures[:10]:
        print(f"  FAILED: {failure}")
    if run.trace and run.workload != "serve-warm":
        share = metrics["trace.unattributed_s"] / statistics.median(
            s["run_s"] for s in traced)
        if share > 0.05:
            print(f"  NOTE: trace.unattributed_s is {share:.1%} of the traced run_s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
