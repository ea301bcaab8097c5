#!/usr/bin/env python3
"""voljump benchmark.

    python3 bench/run.py --workload verify --seed 1 --seconds 40 --trace 0

With `--trace 0` every op is a fresh `python -m voljump.cli ...` process
(started from a small launcher process, see launcher.py), because every
user run pays for the interpreter, the import and the cold caches; the run
reports the end-to-end metrics of that workload, with times scaled to a
reference machine speed (see REFERENCE_PROGRAM).  With `--trace 1` every
workload runs in this process with spans at the layer boundaries (see
layers.py), whichever `--workload` names, and the run reports the
per-layer metrics.  Run from the root of a checkout: the program is
imported from its `src/` directory.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are for
people.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, OutputJudge, schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: `wall_s.tail` is the highest order statistic with this many samples
#: above it, so a run measures at least one more op than this.
TAIL_BEYOND = 10

#: One block of the schedule, shuffled by the seed: an op, an import probe
#: (`setup_s`) and two runs of the reference program, so that the probes
#: sample the machine across the whole run rather than at its start.
BLOCK = ("op", "setup", "reference", "reference")

#: A fixed pure-Python program, independent of voljump.  The machine is
#: shared and its speed drifts by up to 1.5x within a run; the reference
#: program's times move with it.  Every timed process is scaled by
#: REFERENCE_S / (mean time of the reference runs just before and just after
#: it), so it is reported at the machine speed at which the reference program
#: takes REFERENCE_S, and the time metrics are taken over the scaled times.
REFERENCE_PROGRAM = """
from fractions import Fraction
total = Fraction(0)
for i in range(1, 12000):
    total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
"""
REFERENCE_S = 0.1

#: An op that runs longer than this is killed and counted as failed.
OP_TIMEOUT_S = 90


@dataclass(frozen=True)
class Finished:
    start_s: float
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    stdout: str
    stderr: str


class Launcher:
    """The small process that starts every timed process (see launcher.py)."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(OP_TIMEOUT_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list[str]) -> Finished:
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit(f"launcher exited with code {self.proc.wait()}")
        return Finished(**json.loads(reply))

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def local_reference(references: list[Finished], start_s: float) -> float:
    """Mean wall time of the reference runs just before and just after `start_s`."""
    i = bisect.bisect([r.start_s for r in references], start_s)
    return statistics.fmean(r.wall_s for r in references[i - 1 : i + 1])


def fresh_process_run(workload: str, seconds: int, rng: random.Random, judge: OutputJudge) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # An installed package has its bytecode compiled; let the warm-up probe
    # write it so that no timed process compiles the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    op = [sys.executable, "-m", "voljump.cli", *WORKLOADS[workload]]
    probes = {
        "setup": [sys.executable, "-c", "import voljump.cli"],
        "reference": [sys.executable, "-c", REFERENCE_PROGRAM],
    }

    ops: list[Finished] = []
    probed: dict[str, list[Finished]] = {kind: [] for kind in probes}
    references = probed["reference"]
    failed = 0
    with Launcher(env) as launcher:

        def probe(kind: str) -> Finished:
            done = launcher.run(probes[kind])
            if done.exit_code != 0 or done.stdout:
                raise SystemExit(f"{kind} probe failed (exit {done.exit_code}):\n{done.stderr}")
            return done

        probe("setup")
        # A reference run before and after the timed loop, so every timed
        # process has one on each side.
        references.append(probe("reference"))
        start = time.perf_counter()
        for kind in schedule(rng, BLOCK):
            if time.perf_counter() - start >= seconds and len(ops) > TAIL_BEYOND and probed["setup"]:
                break
            if kind in probes:
                probed[kind].append(probe(kind))
                continue
            done = launcher.run(op)
            ops.append(done)
            problems = judge.problems(done.exit_code, done.stdout)
            if problems:
                failed += 1
                print(f"op {len(ops)} failed: {'; '.join(problems)}\n{done.stderr}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        references.append(probe("reference"))

    def time_metrics(scale) -> dict[str, float]:
        walls = sorted(d.wall_s * scale(d) for d in ops)
        return {
            "setup_s": statistics.median(d.wall_s * scale(d) for d in probed["setup"]),
            "wall_s.p50": statistics.median(walls),
            "wall_s.tail": walls[n - 1 - TAIL_BEYOND],
            "cpu_s.p50": statistics.median(d.cpu_s * scale(d) for d in ops),
        }

    n = len(ops)
    raw_times = time_metrics(lambda d: 1.0)
    scaled = time_metrics(lambda d: REFERENCE_S / local_reference(references, d.start_s))
    metrics = {name: metric(value, "s") for name, value in scaled.items()}
    metrics["maxrss_mb"] = metric(max(d.maxrss_kb for d in ops) * 1024 / 1e6, "MB")
    print(
        f"{workload}: {n} ops, {failed} failed (fail_ratio {failed / n:.4f}), "
        f"{len(probed['setup'])} setup probes, {elapsed:.1f} s"
    )
    print(f"  wall_s.tail is p{100 * (n - TAIL_BEYOND) / n:.0f} of {n} samples ({TAIL_BEYOND} above it)")
    reference = statistics.median(r.wall_s for r in references)
    print(
        f"  reference program median {reference:.4f} s over {len(references)} runs; "
        "each process scaled by the runs beside it"
    )
    for name, m in metrics.items():
        raw = f"  (measured {raw_times[name]:.4f} s)" if name in raw_times else ""
        print(f"  {name:<12} {m['value']:.4f} {m['unit']}{raw}")
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "voljump" / "cli.py").is_file():
        print(f"no voljump sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ.pop("VOLJUMP_CONFIG", None)  # a user's config file would change the ops
    schema = json.loads((SRC / "voljump" / "schemas" / "report-v1.json").read_text())
    rng = random.Random(args.seed)
    if args.trace:
        sys.path.insert(0, str(SRC))
        import layers

        result = layers.traced_run(args.seconds, rng, schema)
    else:
        judge = OutputJudge(args.workload, schema)
        result = fresh_process_run(args.workload, args.seconds, rng, judge)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
