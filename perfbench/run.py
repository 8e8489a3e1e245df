#!/usr/bin/env python3
"""forcing-lab benchmark: the CLI driven as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Scenario files are generated from the seed
before timing starts (workloads.py); each operation is then one
`python -m forcing_lab.cli` process, timed from spawn to exit, with its
peak RSS read from os.wait4.  --seconds sets how many blocks of
operations the run makes (workloads.BLOCK_SECONDS), so a run spends about
that long in operations on a typical host.  Times are rescaled by the
host's speed at that moment (REF_START_S).  Every distinct output is
checked by checker.py outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs each operation
untraced and then through launcher.py, and prints per-layer spans, the
tracing overhead, and a generic-run depth sweep.  The last line of stdout
is one JSON object; a fuller record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import workloads
from launcher import ALL_SPANS, COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# The host's speed drifts by tens of percent within a minute, and every
# operation slows with it.  So a bare `python -c pass` is timed before each
# operation, and each time metric is rescaled to a host on which that
# start-up takes REF_START_S: wall * REF_START_S / (median of the five
# start-ups around it).  The raw wall-clock figures go to the results file.
REF_START_S = 0.045
# start-ups that import the CLI (for setup_s) per run, spread evenly
START_PROBES = 7
SETUP_CODE = (
    "import json, forcing_lab.cli\n"
    "from importlib import resources\n"
    "d = resources.files('forcing_lab.schemas')\n"
    "[json.loads(d.joinpath(n).read_text()) for n in ('scenario.schema.json', 'report.schema.json')]\n"
)
# The README cover, run at 3..6 steps of 3 new levels: depth 9 to 18.
SWEEP_DEPTHS = (9, 12, 15, 18)
SWEEP_COVER = {"cover": {"resolution": [1, 2], "rects": [["0", "00"]]}, "eps": "1/4"}

END_TO_END = {
    "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
    "out_bytes_per_op": "B", "setup_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in ALL_SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update({"poset.keys_out": "count", "poset.search.attempts_per_stem": "ratio",
                  "host.python_start_s": "s", "trace.overhead_ratio": "ratio"})
    for d in SWEEP_DEPTHS:
        units[f"sweep.d{d:02d}.s"] = "s"
        units[f"sweep.d{d:02d}.rss_mb"] = "MB"
    return units


@dataclass
class Sample:
    op: workloads.Op
    wall_s: float
    rss_mb: float
    out_bytes: int
    problems: list
    keys_out: int = 0  # h entries in the emitted stem
    retries: tuple = (0, 0)  # (sum of per-stem retries, stems searched)


class Client:
    """Runs CLI processes one at a time, through spawner.py, and checks
    what they print.  Create it before the benchmark process grows."""

    def __init__(self, work: Path):
        self.work = work
        # children log nothing and cache bytecode, as an installed package would
        skip = ("FORCING_LAB_LOG", "PYTHONDONTWRITEBYTECODE")
        env = {k: v for k, v in os.environ.items() if k not in skip}
        env["PYTHONPATH"] = str(SRC)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.schema = checker.Schema(SRC)
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, list] = {}
        self.digest_changes: list[str] = []
        self.check_s = 0.0

    def reset(self) -> None:
        """Forget the outputs and check time seen so far."""
        self.digests.clear()
        self.verdicts.clear()
        self.digest_changes.clear()
        self.check_s = 0.0

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, argv: list[str], out: Path) -> tuple[float, int, float]:
        """Run `python argv` with stdout to `out`; (wall seconds, exit code,
        peak RSS in MB)."""
        req = {"argv": [sys.executable, *argv], "out": str(out), "err": str(out.with_suffix(".err"))}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        reply = json.loads(reply)
        return reply["wall_s"], reply["code"], reply["rss_kb"] / 1024

    def scenario_path(self, op: workloads.Op) -> Path:
        path = self.work / f"{op.key}.json"
        if not path.exists():
            path.write_text(json.dumps(op.scenario))
        return path

    def run(self, op: workloads.Op, spans: Path | None = None) -> Sample:
        cli_args = [op.command, *op.args, "--input", str(self.scenario_path(op))]
        out = self.work / "out.json"
        if spans is None:
            argv = ["-m", "forcing_lab.cli", *cli_args]
        else:
            argv = [str(HERE / "launcher.py"), str(spans), *cli_args]
        wall, code, rss = self.spawn(argv, out)
        start = time.perf_counter()
        sample = Sample(op, wall, rss, out.stat().st_size, [])
        self.check(op, out, code, sample)
        self.check_s += time.perf_counter() - start
        return sample

    def check(self, op: workloads.Op, out: Path, code: int, sample: Sample) -> None:
        """Fill in the sample's problems and effort counts.  An output whose
        report digest was already checked for this operation reuses that
        verdict; a different digest is recorded and checked afresh."""
        if code != 0:
            err = out.with_suffix(".err").read_text(errors="replace").strip().splitlines()
            sample.problems = [f"exit code {code}: {err[-1] if err else ''}"]
            return
        try:
            envelope = json.loads(out.read_bytes())
        except ValueError as exc:
            sample.problems = [f"envelope is not JSON: {exc}"]
            return
        report = envelope.get("report") if isinstance(envelope, dict) else None
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        seen = self.digests.setdefault(op.key, digest)
        if seen != digest:
            self.digest_changes.append(op.key)
        if seen != digest or op.key not in self.verdicts:
            self.verdicts[op.key] = checker.check_envelope(op.command, op.scenario, envelope, self.schema)
        sample.problems = self.verdicts[op.key]
        if not sample.problems:
            stem = report.get("condition") or report.get("final") or {"h": ()}
            sample.keys_out = len(stem["h"])
            retries = [n for _, n in report.get("stats", {}).get("retries", ())]
            sample.retries = (sum(retries), len(retries))

    def start_time(self, code: str) -> float:
        """Wall time of one `python -c code`."""
        out = self.work / "start.out"
        wall, status, _ = self.spawn(["-c", code], out)
        if status != 0:
            raise RuntimeError(f"python -c failed: {out.with_suffix('.err').read_text()}")
        return wall


@dataclass
class Run:
    plain: list  # untraced samples
    traced: list  # traced samples, one per untraced one when tracing
    spans: dict  # span and counter totals over the traced samples
    host_s: list  # bare interpreter start-up before each untraced sample
    setup: list  # (sample index, start-up that imports the CLI and its schemas)

    def scale(self) -> list[float]:
        """Per untraced sample: REF_START_S over the median bare start-up
        of the five samples around it."""
        h = self.host_s
        return [REF_START_S / statistics.median(h[max(0, i - 2):i + 3]) for i in range(len(h))]


def closed_loop(client: Client, blocks, traced: bool) -> Run:
    """Run every operation of every block, each one untraced and, when
    tracing, once more through the launcher.  A bare start-up precedes each
    operation; the set-up probes run evenly over the run."""
    run = Run([], [], {"spans": {}, "counters": {}}, [], [])
    spans_path = client.work / "spans.json"
    ops = [op for block in blocks for op in block]
    every = max(1, len(ops) // START_PROBES)
    for i, op in enumerate(ops):
        if i % every == 0 and len(run.setup) < START_PROBES:
            run.setup.append((i, client.start_time(SETUP_CODE)))
        run.host_s.append(client.start_time("pass"))
        run.plain.append(client.run(op))
        if traced:
            run.traced.append(client.run(op, spans_path))
            if spans_path.exists():
                merge_spans(run.spans, json.loads(spans_path.read_text()))
                spans_path.unlink()
    while len(run.setup) < START_PROBES:
        run.setup.append((len(ops) - 1, client.start_time(SETUP_CODE)))
    return run


def merge_spans(totals: dict, one: dict) -> None:
    for name, (self_s, calls) in one["spans"].items():
        acc = totals["spans"].setdefault(name, [0.0, 0])
        acc[0] += self_s
        acc[1] += calls
    for name, n in one["counters"].items():
        totals["counters"][name] = totals["counters"].get(name, 0) + n


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile)."""
    ordered = sorted(walls)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(run: Run, scale: list[float]) -> tuple[dict, float]:
    """The end-to-end metrics, times multiplied by `scale` (per sample),
    and the percentile op_tail_s stands at."""
    samples = run.plain
    walls = [s.wall_s * k for s, k in zip(samples, scale)]
    tail_s, pct = tail(walls)
    values = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "ops_per_s": len(samples) / sum(walls),
        "peak_rss_mb": max(s.rss_mb for s in samples),
        "out_bytes_per_op": sum(s.out_bytes for s in samples) / len(samples),
        "setup_s": statistics.median(t * scale[i] for i, t in run.setup),
    }
    return values, pct


def layer_metrics(run: Run) -> dict:
    totals, ops, plain, traced = run.spans, len(run.plain), run.plain, run.traced
    values = {}
    for name in ALL_SPANS:
        self_s, calls = totals["spans"].get(name, [0.0, 0])
        values[f"{name}.self_s"] = self_s / ops
        values[f"{name}.calls"] = calls / ops
    for name in COUNTERS:
        values[name] = totals["counters"].get(name, 0) / ops
    retries = sum(s.retries[0] for s in traced)
    stems = sum(s.retries[1] for s in traced)
    values["poset.keys_out"] = sum(s.keys_out for s in traced) / ops
    values["poset.search.attempts_per_stem"] = (retries + stems) / stems if stems else 0.0
    untraced = sum(s.wall_s for s in plain)
    values["trace.overhead_ratio"] = (sum(s.wall_s for s in traced) - untraced) / untraced
    return values


def sweep(client: Client) -> tuple[dict, list[Sample]]:
    values, samples = {}, []
    for depth in SWEEP_DEPTHS:
        steps = depth // 3
        op = workloads.Op(f"sweep-00-generic-run-d{depth:02d}", "generic-run", ("--seed", "2026"),
                          {"steps": steps, "covers": [SWEEP_COVER]})
        sample = client.run(op)
        samples.append(sample)
        values[f"sweep.d{depth:02d}.s"] = sample.wall_s
        values[f"sweep.d{depth:02d}.rss_mb"] = sample.rss_mb
    return values, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its spawner and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "forcing_lab" / "cli.py").is_file():
        print(f"forcing_lab sources not found under {SRC}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    client = Client(work)
    try:
        # a traced run makes each operation twice and adds the depth sweep,
        # so it keeps to one block
        count = 1 if args.trace else workloads.block_count(args.workload, args.seconds)
        blocks = workloads.build(args.workload, args.seed, count)
        client.start_time(SETUP_CODE)  # warm caches before timing
        client.run(blocks[0][0])
        client.reset()
        run = closed_loop(client, blocks, bool(args.trace))
        plain, traced = run.plain, run.traced
        samples = plain + traced
        host_s = statistics.median(run.host_s)
        record = {}
        if args.trace:
            metrics = layer_metrics(run)
            metrics["host.python_start_s"] = host_s
            sweep_values, sweep_samples = sweep(client)
            metrics.update(sweep_values)
            samples += sweep_samples
            units = per_layer_units()
        else:
            metrics, pct = end_to_end(run, run.scale())
            record["op_tail_percentile"] = pct
            record["wall"], _ = end_to_end(run, [1.0] * len(plain))
            units = END_TO_END
        failed = [s for s in samples if s.problems]
        record.update({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "host.python_start_s": host_s,
            "ref_start_s": REF_START_S,
            "ops": len(plain),
            "ops_traced": len(traced),
            "ops_by_kind": dict(sorted(workloads.mix(blocks).items())),
            "blocks": len(blocks),
            "check_s": client.check_s,
            "by_kind": by_kind(plain),
            "failures": [[s.op.key, s.problems[:3]] for s in failed[:20]],
            "digest_changes_in_run": client.digest_changes,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            "report_sha256": client.digests,
        })
        record["metrics"]["fail_ratio"] = {"value": len(failed) / len(samples), "unit": "ratio"}
        write_record(record)
    finally:
        client.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def by_kind(samples: list[Sample]) -> dict:
    """Median wall time, peak RSS and mean output bytes per operation kind."""
    groups: dict[str, list[Sample]] = {}
    for s in samples:
        groups.setdefault(s.op.kind, []).append(s)
    return {kind: {"ops": len(g), "p50_s": statistics.median(x.wall_s for x in g),
                   "rss_mb": max(x.rss_mb for x in g),
                   "out_bytes": sum(x.out_bytes for x in g) / len(g)}
            for kind, g in sorted(groups.items())}


def write_record(record: dict) -> None:
    """Write the results file, listing the operations whose report digest
    differs from the previous results file for this workload and seed."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    changed = []
    if path.exists():
        try:
            before = json.loads(path.read_text()).get("report_sha256", {})
        except ValueError:
            before = {}
        changed = sorted(k for k, d in record["report_sha256"].items() if before.get(k, d) != d)
    record["digest_changes_vs_previous"] = changed
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
