"""Per-layer split of every workload, traced from the benchmark's side.

Each public function in SPANS is replaced, at every binding its callers use
(`report.py` and `cli.py` import names directly), by a wrapper that records
a span: name, parent span, and the time spent inside it.  Generators such as
`orbit.orbit` are timed over their consumption, one fragment per resume, not
over the call, which returns before any work is done.  A span's self time is
its duration minus the durations of the spans whose parent it is.

The run covers every workload: plain and traced in-process ops of each (the
difference of their medians is the tracing overhead) and microbenchmarks of
the primitives the layers spend their time in, in an order the seed
shuffles.  Per-layer metrics are named `<workload>.<span>.self_s` and so on,
and only the spans and counts that occur on a workload are reported for it.
Every op starts with the program's caches cleared, as every fresh CLI
process does.  Nothing in `src/` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from voljump import cli, polynomials, spectral, transform
from voljump.intervals import ClassEnclosure, RealEnclosure
from voljump.lattice import DivisorClass, pair
from voljump.nefcheck import CandidateCurve, margin

from workloads import WORKLOADS, OutputJudge, schedule

#: Layer boundaries: `voljump.<module>.<function>`.
SPANS = (
    "spectral.select_orientation",
    "spectral.eigensystem",
    "polynomials.count_roots_outside_unit_circle",
    "polynomials.cyclotomic_factors",
    "nefcheck.full_report",
    "nefcheck.check_degree_one",
    "nefcheck.check_degree_two",
    "orbit.orbit",
    "orbit.verify_distinct",
    "orbit.growth_profile",
    "orbit.max_norm_increase_start",
    "orbit.iterate",
    "report.run_verification",
    "report.render_report_json",
    "transform.verify_isometry",
)
GENERATOR_SPANS = {"orbit.orbit"}
ROOT_SPAN = "cli.main"

#: The spans each workload's ops pass through, besides the root.
WORKLOAD_SPANS = {
    "verify": tuple(s for s in SPANS if s != "report.render_report_json"),
    "nef": (
        "spectral.eigensystem",
        "nefcheck.full_report",
        "nefcheck.check_degree_one",
        "nefcheck.check_degree_two",
    ),
    "deep-report": SPANS,
}

#: Spans whose number of calls per op is a metric.
CALL_COUNTS = (
    "polynomials.count_roots_outside_unit_circle",
    "polynomials.cyclotomic_factors",
)

#: Counts per op -> the span they are taken in.
COUNTS = {
    "nefcheck.margins": "nefcheck.full_report",
    "nefcheck.candidates": "nefcheck.full_report",
    "orbit.steps": "orbit.orbit",
    "report.bytes": "report.render_report_json",
}

#: Counts taken from a span's result: span -> (metric, result -> count).
RESULT_COUNTS = {
    "nefcheck.full_report": (
        "nefcheck.candidates",
        lambda nef: sum(s.candidate_count for s in nef.degrees),
    ),
    "report.render_report_json": ("report.bytes", lambda text: len(text.encode())),
}

#: Caches a fresh process starts without.
CACHES = (spectral.eigensystem, transform.composite_T, polynomials.cyclotomic)

MICRO_CALLS = 200


@dataclass
class Span:
    name: str
    parent: int | None
    duration: float = 0.0
    resumed: float = 0.0


class Tracer:
    """Spans of one op, kept in memory; a stack gives each span its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def open(self, name: str) -> int:
        self.spans.append(Span(name, self.stack[-1] if self.stack else None))
        return len(self.spans) - 1

    def resume(self, index: int) -> None:
        self.stack.append(index)
        self.spans[index].resumed = time.perf_counter()

    def pause(self, index: int) -> None:
        span = self.spans[index]
        span.duration += time.perf_counter() - span.resumed
        self.stack.pop()

    def wrap(self, name: str, fn):
        result_count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            self.resume(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pause(index)
            if result_count:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)
            index = self.open(name)
            while True:
                self.resume(index)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self.pause(index)
                self.counts["orbit.steps"] += 1
                yield item

        return traced

    def wrap_counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def op_metrics(self) -> dict[str, float]:
        """Self time per span name and the op's counts."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        values: dict[str, float] = {f"{name}.self_s": 0.0 for name in SPANS + (ROOT_SPAN,)}
        for span, children in zip(self.spans, covered):
            values[f"{span.name}.self_s"] += span.duration - children
        calls = Counter(span.name for span in self.spans)
        for name in CALL_COUNTS:
            values[f"{name}.calls"] = calls[name]
        for name in COUNTS:
            values[name] = self.counts[name]
        return values


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every binding of each traced function inside the voljump package."""
    wrappers = {}
    for name in SPANS + ("nefcheck.margin",):
        module, attr = name.split(".")
        original = getattr(importlib.import_module(f"voljump.{module}"), attr)
        if name == "nefcheck.margin":
            wrappers[id(original)] = tracer.wrap_counter("nefcheck.margins", original)
        elif name in GENERATOR_SPANS:
            wrappers[id(original)] = tracer.wrap_generator(name, original)
        else:
            wrappers[id(original)] = tracer.wrap(name, original)
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "voljump" and not module_name.startswith("voljump."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def in_process_op(main, argv: list[str]) -> tuple[float, int, str]:
    """One CLI op in this process, from cold caches: (wall time, exit code, stdout)."""
    for cached in CACHES:
        cached.cache_clear()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return time.perf_counter() - start, code, out.getvalue()


def micro_inputs(rng: random.Random) -> dict:
    """Fixed-size inputs from the seed: 64-bit integral classes, 320-bit dyadic intervals."""

    def integral_class() -> DivisorClass:
        return DivisorClass(rng.randrange(-(2**63), 2**63) for _ in range(11))

    def unit_interval() -> RealEnclosure:
        lo = Fraction(rng.getrandbits(318), 1 << 320)
        return RealEnclosure(lo, lo + Fraction(rng.getrandbits(64), 1 << 320))

    a, b = integral_class(), integral_class()
    x, y = unit_interval(), unit_interval()
    t = transform.composite_T()
    witness = ClassEnclosure([RealEnclosure.exact(1)] + [-unit_interval() for _ in range(10)])
    curve = CandidateCurve(6, [rng.randint(0, 3) for _ in range(10)])
    return {
        "lattice.pair.ns": lambda: pair(a, b),
        "transform.apply.ns": lambda: transform.apply(t, a),
        "intervals.RealEnclosure.mul.ns": lambda: x * y,
        "nefcheck.margin.ns": lambda: margin(curve, witness),
    }


def workload_metric_names(workload: str) -> list[str]:
    """Per-layer metrics of one workload: the spans and counts that occur on it."""
    spans = WORKLOAD_SPANS[workload]
    names = [f"{span}.self_s" for span in spans + (ROOT_SPAN,)]
    names += [f"{span}.calls" for span in CALL_COUNTS if span in spans]
    names += [count for count, span in COUNTS.items() if span in spans]
    names.append("trace.overhead_s")
    return [f"{workload}.{name}" for name in names]


def traced_run(seconds: int, rng: random.Random, schema: dict) -> dict:
    """Plain and traced ops of every workload, in an order the seed shuffles."""
    micro = micro_inputs(rng)
    judges = {w: OutputJudge(w, schema) for w in WORKLOADS}
    plain_walls: dict[str, list[float]] = {w: [] for w in WORKLOADS}
    traced_walls: dict[str, list[float]] = {w: [] for w in WORKLOADS}
    per_op: dict[str, list[dict[str, float]]] = {w: [] for w in WORKLOADS}
    micro_ns: dict[str, list[float]] = {name: [] for name in micro}
    attempted = failed = 0

    def judged(workload: str, problems: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            print(f"{workload} op failed: {'; '.join(problems)}", file=sys.stderr)

    kinds = [("micro", None)] + [(k, w) for w in WORKLOADS for k in ("plain", "traced")]
    start = time.perf_counter()
    for kind, workload in schedule(rng, kinds):
        if time.perf_counter() - start >= seconds and all(
            len(per_op[w]) >= 3 and plain_walls[w] for w in WORKLOADS
        ):
            break
        if kind == "plain":
            wall, code, text = in_process_op(cli.main, list(WORKLOADS[workload]))
            plain_walls[workload].append(wall)
            judged(workload, judges[workload].problems(code, text))
        elif kind == "traced":
            tracer = Tracer()
            with installed(tracer):
                main = tracer.wrap(ROOT_SPAN, cli.main)
                wall, code, text = in_process_op(main, list(WORKLOADS[workload]))
            traced_walls[workload].append(wall)
            values = tracer.op_metrics()
            per_op[workload].append(values)
            problems = judges[workload].problems(code, text)
            problems += [
                f"{name} is {values[name]}, {per_op[workload][0][name]} on the first op"
                for name in values
                if not name.endswith(".self_s") and values[name] != per_op[workload][0][name]
            ]
            judged(workload, problems)
        else:
            for name, fn in micro.items():
                begin = time.perf_counter_ns()
                for _ in range(MICRO_CALLS):
                    fn()
                micro_ns[name].append((time.perf_counter_ns() - begin) / MICRO_CALLS)

    metrics = {}
    for workload in WORKLOADS:
        first = per_op[workload][0]
        overhead = statistics.median(traced_walls[workload]) - statistics.median(plain_walls[workload])
        for name in workload_metric_names(workload):
            key = name[len(workload) + 1 :]
            if key == "trace.overhead_s":
                metrics[name] = {"value": overhead, "unit": "s"}
            elif key.endswith(".self_s"):
                value = statistics.median(op[key] for op in per_op[workload])
                metrics[name] = {"value": value, "unit": "s"}
            else:
                metrics[name] = {"value": first[key], "unit": "bytes" if key == "report.bytes" else "count"}
        print(
            f"{workload} (traced): {len(per_op[workload])} traced and "
            f"{len(plain_walls[workload])} plain in-process ops, "
            f"plain op median {statistics.median(plain_walls[workload]):.4f} s"
        )
    for name, values in micro_ns.items():
        metrics[name] = {"value": statistics.median(values), "unit": "ns"}

    def order(item):
        name, m = item
        prefix = name.split(".")[0]
        return (prefix not in WORKLOADS, prefix, m["unit"] != "s", -m["value"])

    for name, m in sorted(metrics.items(), key=order):
        print(f"  {name:<64} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
