#!/usr/bin/env python3
"""Benchmark of the parse -> compile -> validate -> evaluate -> render pipeline.

    python3 bench/run.py --workload lookup-2k --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 34 --trace 0

One process, one thread, one closed-loop client: the next query starts
when the previous one has been rendered and checked.  The graph is built
from --seed by bench/graphgen.py and handed to the program as JSON text
(or, for cli-oneshot, as a file).  Every answer is checked against a
plain-Python reference (bench/queries.py).  The end-to-end times are
scaled to a fixed reference pace of the machine, sampled between
operations by bench/pace.py; the raw times are kept in the result file.

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
variant and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full result, with machine facts, graph shape, per-class
latencies, output digests and (traced) spans, is written to
bench/out/<workload>-seed<seed>-trace<t>.json.  --workload all runs each
workload in its own process, since peak memory is per process.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

if not (SRC / "grem_algebra" / "__init__.py").is_file():
    sys.exit(f"error: no grem_algebra package under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import grem_algebra  # noqa: E402
from grem_algebra import (  # noqa: E402
    algebra,
    cli,
    compile_traversal,
    evaluate,
    load_graph,
    parse_traversal,
    to_jsonl,
    tokenize,
    validate,
)
from grem_algebra.errors import EvaluationError  # noqa: E402

import queries  # noqa: E402
from check import Checker  # noqa: E402
from graphgen import Shape, generate  # noqa: E402
from pace import REF_CALIBRATION_S, Pace  # noqa: E402
from spans import (  # noqa: E402
    OPERATORS,
    SPAN_FIELDS,
    NoTracer,
    Tracer,
    on_fresh_stack,
    patched,
    plan_nodes,
    profile_plan,
)

# A run stops early enough to exit well inside three minutes.
HARD_LIMIT_S = 120.0
CLI_PROBES = 3
VERTEX_IDS_CALLS = 21
SETUP_CALIBRATIONS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    mode: str  # "analytic": whole passes of a fixed mix; "lookup"/"cli": a stream
    tail_pct: int  # fixed per workload so that the reported percentile is stable
    setup_reps: int
    why: str


LOOKUP_SHAPE = Shape(
    persons=1800, software=200, knows=7200, created=1800, skew=0.5,
    person_names=600, software_names=60,
)
ANALYTIC_SHAPE = Shape(
    persons=8000, software=1000, knows=32000, created=8000, skew=0.5,
    person_names=270, software_names=250,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic-9k", ANALYTIC_SHAPE, "analytic", 75, 3,
            "a few heavy pattern matches: evaluator operators and rendering do the work",
        ),
        Workload(
            "lookup-2k", LOOKUP_SHAPE, "lookup", 99, 7,
            "many short distinct selective reads: per-query overhead and source scans",
        ),
        Workload(
            "cli-oneshot", LOOKUP_SHAPE, "cli", 90, 7,
            "one cli.main call per query: graph loading sits on the request path",
        ),
    )
}


class CliFailure(Exception):
    """cli.main exited non-zero."""


# -- one operation --------------------------------------------------------------


def run_pipeline(text: str, graph, tr) -> str:
    ast = tr.call("parser.parse_traversal", parse_traversal, text)
    expr = tr.call("compiler.compile_traversal", compile_traversal, ast)
    diags = tr.call("algebra.validate", validate, expr)
    if diags:
        raise EvaluationError("invalid plan: " + "; ".join(diags))
    result = tr.call("evaluator.evaluate", evaluate, expr, graph)
    return tr.call("evaluator.to_jsonl", to_jsonl, result)


def run_cli(text: str, graph_path: str, tr) -> str:
    out, err = io.StringIO(), io.StringIO()
    argv = ["run", "--graph", graph_path, "--query", text, "--format", "jsonl"]
    with redirect_stdout(out), redirect_stderr(err):
        code = tr.call("cli.main", cli.main, argv)
    if code != 0:
        raise CliFailure(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


# Module attributes cli.main calls, routed through the tracer in traced
# cli-oneshot runs.
CLI_TARGETS = [
    (cli, "parse_traversal", "parser.parse_traversal"),
    (cli, "compile_traversal", "compiler.compile_traversal"),
    (algebra, "validate", "algebra.validate"),
    (cli, "load_graph_file", "property_graph.load_graph_file"),
    (cli, "evaluate", "evaluator.evaluate"),
    (cli, "to_jsonl", "evaluator.to_jsonl"),
]


class Client:
    """Issues one query end to end, times it and checks the answer."""

    def __init__(self, workload: Workload, graph, graph_path: str | None, ref, checker):
        self.workload = workload
        self.graph = graph
        self.graph_path = graph_path
        self.ref = ref
        self.checker = checker
        self.by_class: dict[str, list[float]] = {}
        self.result_rows: list[int] = []

    def _issue(self, q: queries.Query, tr) -> str:
        if self.workload.mode != "cli":
            return tr.call("op", run_pipeline, q.text, self.graph, tr)
        if isinstance(tr, Tracer):
            with patched(tr, CLI_TARGETS):
                return run_cli(q.text, self.graph_path, tr)
        return run_cli(q.text, self.graph_path, tr)

    def _timed(self, q: queries.Query, tr) -> tuple[str | None, str | None, float, float]:
        start = perf_counter()
        try:
            rendered, error = self._issue(q, tr), None
        except (Exception, SystemExit) as exc:  # every failure is counted, none stops the run
            rendered, error = None, f"{type(exc).__name__}: {exc}"
        return rendered, error, start, perf_counter() - start

    def execute(self, q: queries.Query, tr) -> tuple[float, float]:
        """Run one query on a fresh data stack (see spans.on_fresh_stack),
        check it and return its start time and latency in seconds."""
        tr.qid = q.qid
        rendered, error, start, elapsed = on_fresh_stack(self._timed, q, tr)
        tr.qid = None
        self.by_class.setdefault(q.template, []).append(elapsed)
        if error is not None:
            self.checker.record_error(q.qid, q.text, error)
        else:
            reference = queries.TEMPLATES[q.template].reference
            self.checker.check(q.qid, q.text, rendered, lambda: reference(self.ref, *q.consts))
            self.result_rows.append(len(rendered.splitlines()))
        return start, elapsed


# -- set-up -------------------------------------------------------------------


@dataclass
class Setup:
    ref: queries.RefGraph
    graph: object  # loaded Graph; None for cli-oneshot
    graph_path: str | None
    starts_s: list[float]
    times_s: list[float]


def set_up(w: Workload, seed: int, tr, graph_path: Path, pace: Pace) -> Setup:
    """Generate the graph and load it (or write it, for cli-oneshot),
    setup_reps times; every repetition does the whole work.  The pace is
    sampled before and after each repetition."""
    starts, times = [], []
    pace.sample(SETUP_CALIBRATIONS)
    for _ in range(w.setup_reps):
        data = text = graph = None
        start = perf_counter()
        data = tr.call("bench.generate", generate, w.shape, seed)
        text = data.to_json()
        if w.mode == "cli":
            graph_path.write_text(text, encoding="utf-8")
        else:
            graph = tr.call("property_graph.load_graph", load_graph, text)
        times.append(perf_counter() - start)
        starts.append(start)
        graph = None
        pace.sample(SETUP_CALIBRATIONS)
    ref = queries.RefGraph(data)
    del data
    # What the benchmark keeps is frozen before the program's graph is
    # loaded, so the program's garbage collections scan only its own objects.
    gc.freeze()
    if w.mode == "cli":
        return Setup(ref, None, str(graph_path), starts, times)
    return Setup(ref, load_graph(text), None, starts, times)


# -- closed loop ----------------------------------------------------------------


def query_batches(w: Workload, seed: int, ref):
    """Batches of queries: the same analytic pass over and over, or one
    fresh lookup at a time."""
    rng = random.Random(seed)
    if w.mode == "analytic":
        one_pass = queries.analytic_pass(rng, ref)
        while True:
            yield one_pass
    else:
        for q in queries.lookup_stream(rng, ref):
            yield [q]


def min_samples(pct: int) -> int:
    """Samples needed for at least ten beyond the pct-th percentile."""
    return int(10 / (1 - pct / 100)) + 1


def closed_loop(
    client: Client, batches, seconds: float, min_ops: int, pair: Tracer | None, pace: Pace
):
    """Run whole batches until the next would end past `seconds` (and at
    least min_ops operations ran).  Returns the untraced operations' start
    times and latencies, and the traced latencies.  Untraced, the pace is
    sampled between operations.  With a tracer, every query runs twice,
    traced and untraced, alternating which goes first."""
    starts, plain, traced = [], [], []

    def untraced(q):
        op_start, elapsed = client.execute(q, NoTracer)
        starts.append(op_start)
        plain.append(elapsed)

    start = perf_counter()
    done = 0
    for batch in batches:
        for q in batch:
            if pair is None:
                pace.tick()
                untraced(q)
            elif (len(plain) % 2) == 0:
                traced.append(client.execute(q, pair)[1])
                untraced(q)
            else:
                untraced(q)
                traced.append(client.execute(q, pair)[1])
        done += 1
        elapsed = perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            break
        if len(plain) >= min_ops and elapsed + elapsed / done > seconds:
            break
    pace.sample()
    return starts, plain, traced


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(w: Workload, latencies: list[float], setup_times: list[float]) -> dict:
    return {
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, w.tail_pct) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# -- traced-run analysis ------------------------------------------------------------


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def representatives(w: Workload, seed: int, ref) -> list[tuple[queries.Query, float]]:
    """One query per class with its share of the mix."""
    batches = query_batches(w, seed, ref)
    if w.mode == "analytic":
        one_pass = next(batches)
        first: dict[str, queries.Query] = {}
        for q in one_pass:
            first.setdefault(q.template, q)
        return [(q, queries.ANALYTIC_PASS[name] / len(one_pass)) for name, q in first.items()]
    n = len(queries.LOOKUP_TEMPLATES)
    return [(next(batches)[0], 1 / n) for _ in range(n)]


def operator_profile(reps, graph) -> tuple[dict, float]:
    """Mix-weighted per-query operator numbers, and rows per result."""
    acc = {f"{op}.{k}": 0.0 for op in OPERATORS for k in ("self_ms", "rows_in", "rows_out")}
    produced = results = 0.0
    for q, weight in reps:
        expr = compile_traversal(parse_traversal(q.text))
        nodes = profile_plan(expr, graph)
        for node in nodes:
            for k in ("self_ms", "rows_in", "rows_out"):
                acc[f"{node['op']}.{k}"] += weight * node[k]
        produced += weight * sum(node["rows_out"] for node in nodes)
        results += weight * nodes[-1]["rows_out"]
    return acc, produced / results if results else float("nan")


def layer_metrics(w, seed, tracer, setup, client, plain, traced, reps, probe_path) -> dict:
    graph = setup.graph
    if graph is None:
        graph = load_graph(Path(setup.graph_path).read_text(encoding="utf-8"))

    # per-operation means are over traced operations
    n_ops = max(1, len(traced))

    def per_op_ms(name: str) -> float:
        return sum(tracer.durations_ms(name)) / n_ops

    token_counts = []
    node_counts = []
    for q, weight in reps:
        token_counts.append((len(tokenize(q.text)), weight))
        node_counts.append((plan_nodes(compile_traversal(parse_traversal(q.text))), weight))

    if w.mode != "cli":
        probe_path.write_text(generate(w.shape, seed).to_json(), encoding="utf-8")
        probe = min(
            (q for q, _ in reps), key=lambda q: statistics.median(client.by_class[q.template])
        )
        for _ in range(CLI_PROBES):
            tracer.qid = None
            on_fresh_stack(run_cli, probe.text, str(probe_path), tracer)
        probe_path.unlink()

    vertex_ids = []
    for _ in range(VERTEX_IDS_CALLS):
        start = perf_counter()
        graph.vertex_ids()
        vertex_ids.append((perf_counter() - start) * 1e3)

    # last: profiling freezes the collector's view of existing objects
    ops, rows_per_result = operator_profile(reps, graph)

    loads = tracer.durations_ms("property_graph.load_graph") + tracer.durations_ms(
        "property_graph.load_graph_file"
    )
    m = {
        "parser.parse_ms": (per_op_ms("parser.parse_traversal"), "ms"),
        "parser.tokens": (sum(c * wt for c, wt in token_counts), "count"),
        "compiler.compile_ms": (per_op_ms("compiler.compile_traversal"), "ms"),
        "compiler.plan_nodes": (sum(c * wt for c, wt in node_counts), "count"),
        "algebra.validate_ms": (per_op_ms("algebra.validate"), "ms"),
        "evaluator.evaluate_ms": (per_op_ms("evaluator.evaluate"), "ms"),
        "evaluator.render_ms": (per_op_ms("evaluator.to_jsonl"), "ms"),
        "evaluator.result_rows": (mean(client.result_rows), "count"),
        "evaluator.rows_per_result": (rows_per_result, "rows/row"),
    }
    for op in OPERATORS:
        m[f"evaluator.op.{op}.self_ms"] = (ops[f"{op}.self_ms"], "ms")
        m[f"evaluator.op.{op}.rows_in"] = (ops[f"{op}.rows_in"], "count")
        m[f"evaluator.op.{op}.rows_out"] = (ops[f"{op}.rows_out"], "count")
    m["property_graph.load_s"] = (statistics.median(loads) / 1e3, "s")
    m["property_graph.vertex_ids_ms"] = (statistics.median(vertex_ids), "ms")
    m["cli.main_ms"] = (mean(tracer.durations_ms("cli.main")), "ms")
    m["trace.overhead_p50_ms"] = (
        (statistics.median(traced) - statistics.median(plain)) * 1e3, "ms",
    )
    m["trace.overhead_pct"] = ((mean(traced) / mean(plain) - 1) * 100, "%")
    return m


# -- one workload ---------------------------------------------------------------------


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    tracer = Tracer() if trace else None
    graph_path = OUT / f"{tag}.graph.json"
    pace = Pace()
    setup = set_up(w, seed, tracer or NoTracer, graph_path, pace)
    ref = setup.ref
    checker = Checker()
    client = Client(w, setup.graph, setup.graph_path, ref, checker)
    batches = query_batches(w, seed, ref)

    try:
        if trace:
            _, plain, traced = closed_loop(client, batches, seconds / 2, 1, tracer, pace)
            reps = representatives(w, seed, ref)
            metrics = layer_metrics(
                w, seed, tracer, setup, client, plain, traced, reps, OUT / f"{tag}.probe.json"
            )
        else:
            starts, plain, traced = closed_loop(
                client, batches, seconds, min_samples(w.tail_pct), None, pace
            )
            latencies = [pace.scaled(s, x) for s, x in zip(starts, plain)]
            setup_times = [pace.scaled(s, x) for s, x in zip(setup.starts_s, setup.times_s)]
            metrics = end_to_end(w, latencies, setup_times)
            raw_metrics = end_to_end(w, plain, setup.times_s)
    finally:
        if graph_path.exists():
            graph_path.unlink()

    result = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(),
        "package": str(Path(grem_algebra.__file__).resolve().parent.relative_to(BENCH.parent)),
        "shape": w.shape.as_dict(),
        "graph": {
            "vertices": w.shape.persons + w.shape.software,
            "edges": w.shape.knows + w.shape.created,
        },
        "samples": len(plain),
        "tail_percentile": w.tail_pct,
        "error_rate": checker.failed / checker.attempted if checker.attempted else 0.0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "pace": {
            "calibrations": len(pace.times),
            "median_ms": pace.median_ms(),
            "reference_ms": REF_CALIBRATION_S * 1e3,
        },
        "setup_times_s": setup.times_s,
        "class_latency_ms": {
            name: {
                "count": len(xs),
                "p50": statistics.median(xs) * 1e3,
                "samples": [round(x * 1e3, 3) for x in xs],
            }
            for name, xs in sorted(client.by_class.items())
        },
        "mismatches": checker.mismatches[:20],
        "ordered_digests": checker.ordered,
        "attempted": checker.attempted,
        "failed": checker.failed,
    }
    if not trace:
        result["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()}
    if trace:
        result["spans_fields"] = SPAN_FIELDS
        result["spans"] = tracer.spans
        result["traced_samples"] = len(traced)
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"  why: {result['why']}")
    m = result["machine"]
    print(f"  machine: nproc={m['nproc']} python={m['python']} {m['platform']}")
    print(f"  graph: {result['graph']['vertices']} vertices, {result['graph']['edges']} edges; "
          f"shape {result['shape']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")
    if not result["trace"]:
        print(f"  latency samples {result['samples']}; latency_tail_ms is "
              f"p{result['tail_percentile']}")
        pace = result["pace"]
        print(f"  times at the reference pace: calibration median {pace['median_ms']:.3f} ms "
              f"over {pace['calibrations']} samples, reference {pace['reference_ms']:.3f} ms")
        for name, metric in result["raw_metrics"].items():
            print(f"  raw {name:<32} {metric['value']:>14.4f} {metric['unit']}")
    print(f"  {'error_rate':<36} {result['error_rate']:>14.4f} "
          f"({result['failed']} of {result['attempted']} operations)")
    for bad in result["mismatches"][:5]:
        print(f"  FAILED {bad['qid']}: {bad['reason']}")


def summary_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process; prints each report and a combined
    last line keyed <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}")
            code = 1
            continue
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_report(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
