#!/usr/bin/env python3
"""twf benchmark: seeded `.twf` documents driven through `cli.main` in process.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

One client, closed loop, one request in flight: each request is one command
on one (or, for `subsumes`, two) generated files, sent only after the last
one finished.  The program sees nothing but the files.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` a separate run
wraps each layer's public functions in spans and reports per-layer numbers.
The last line of standard output is the JSON result; a summary with sample
counts and digest coverage goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import gen
import verify
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 11


def run_request(main, argv: list[str], tracer: Tracer | None = None):
    """One cli.main call: (exit code, stdout, stderr, seconds).

    The code is None when an exception escaped.  With a tracer, the call is
    a request span that the layer spans nest under.
    """
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.open("cli.main")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # counted as a failed request, never hidden
        code = None
        err.write(f"{type(exc).__name__}: {str(exc)[:200]}")
    finally:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close()
    return code, out.getvalue(), err.getvalue(), seconds


class Session:
    """Requests of one run, their files, and the answer checks."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from twf import cli

        self.main = cli.main
        self.workload = workload
        self.requests = gen.generate(workload, seed)
        self.checker = verify.Checker()
        self.answers: dict[str, tuple[str, bool]] = {}
        self.wrong: list[str] = []
        self.defects: list[str] = []
        self.tracer: Tracer | None = None
        workdir.mkdir(parents=True)
        for doc in gen.documents(self.requests).values():
            (workdir / f"{doc.name}.twf").write_text(doc.text, encoding="utf-8")
        self.argv = {
            r.key: [r.command, *(str(workdir / f"{d.name}.twf") for d in r.docs), *r.extra]
            for r in self.requests
        }

    def send(self, req: gen.Request) -> tuple[bool, float, float]:
        """Run and check one request: (succeeded, request seconds, check seconds)."""
        code, out, err, seconds = run_request(self.main, self.argv[req.key], self.tracer)
        if code is None:
            return False, seconds, 0.0
        start = time.perf_counter()
        digest = verify.answer_digest(code, out)
        seen, ok = self.answers.get(req.key, (None, False))
        if seen != digest:
            ok = False
            try:
                self.checker.check(req, code, out, err)
                ok = True
            except verify.PropertyError as exc:
                self.defects.append(f"{req.key}: {exc}")
            except ValueError as exc:
                self.wrong.append(f"{req.key}: {exc}")
            self.answers[req.key] = (digest, ok)
        return ok, seconds, time.perf_counter() - start


def upper_percentile(values: list[float]) -> tuple[float, float]:
    """p95, or with fewer than 200 samples the highest percentile that still
    has 10 samples above it (never below the median, for tiny runs).
    Returns (value, percentile used)."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 200:
        return ordered[min(n - 1, int(0.95 * n))], 95.0
    index = max(n // 2, n - 11)
    return ordered[index], 100.0 * index / n


def fresh(mode: str, arg: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "fresh.py"), mode, str(SRC), arg],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds() -> float:
    smallest = min((SRC / "twf" / "corpus").glob("*.twf"), key=lambda p: p.stat().st_size)
    runs = [fresh("setup", str(smallest)) for _ in range(SETUP_RUNS)]
    if any(r["code"] != 0 for r in runs):
        raise RuntimeError("set-up call on the corpus failed")
    return statistics.median(r["setup_s"] for r in runs)


def measure(session: Session, seconds: float) -> dict:
    """The timed loop: cycle the request order until the time is up."""
    latencies: list[float] = []
    attempted = failed = 0
    checking = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start - checking < seconds:
        req = session.requests[attempted % len(session.requests)]
        attempted += 1
        ok, took, check_s = session.send(req)
        checking += check_s
        if ok:
            latencies.append(took)
        else:
            failed += 1
    wall = time.perf_counter() - start - checking
    p95, pct = upper_percentile(latencies) if latencies else (0.0, 0.0)
    metrics = {
        "docs_per_s": (len(latencies) / wall, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies) if latencies else 0.0, "ms"),
        "latency_p95_ms": (1000 * p95, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (len(latencies) / attempted, "fraction"),
    }
    note = f"{len(latencies)} latency samples, upper percentile p{pct:.1f}"
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "note": note}


# ---------------------------------------------------------------------------
# Traced run


def install(tracer: Tracer) -> None:
    from twf import cli, dsl, extended, qcn, semantics

    for module, attr, name, *flags in (
        (cli, "parse", "dsl.parse", "keep"),
        (cli, "format_document", "dsl.format"),
        (cli, "export_dot", "dsl.dot"),
        (cli, "sequence_free", "extended.sequence_free", "keep"),
        (extended, "subsumes_sufficient", "extended.subsumes"),
        (extended, "normalize", "workflow.normalize"),
        (dsl, "normalize", "workflow.normalize"),
        (extended, "subsumes_syntactic", "workflow.subsumes"),
        (extended, "entails", "qcn.entails"),
        (cli, "is_consistent", "qcn.is_consistent", "keep"),
        (cli, "scenarios", "qcn.is_consistent", "keep", "first"),
        (cli, "path_consistency", "qcn.path_consistency"),
        (cli, "realize_scenario", "qcn.realize_scenario"),
        (qcn, "realize_scenario", "qcn.realize_scenario"),
        (cli, "check_schedule", "qcn.check_schedule"),
        (qcn.Qcn, "set_constraint", "qcn.build"),
        (qcn.Qcn, "with_variable", "qcn.build"),
        (cli, "find_model", "semantics.find_model"),
        (cli, "check_model", "semantics.check_model"),
        (semantics, "resolutions", "workflow.resolutions", "keep"),
        (semantics, "resolve_traced", "workflow.resolutions"),
        (cli, "network_consistent_bruteforce", "semantics.oracle"),
        (cli, "network_scenario_relations_bruteforce", "semantics.oracle"),
        (cli, "generate_composition_table", "allen.table"),
    ):
        tracer.wrap(module, attr, name, keep="keep" in flags, first="first" in flags)


class Probes:
    """Per-request numbers taken after the request span closes.

    Path consistency runs again on every network the solver was asked about,
    so search time is is_consistent minus path_consistency on the same
    network.  For `check`, the execution shapes are enumerated once more
    (under tracemalloc) and compared with the atom budget.
    """

    def __init__(self):
        from twf import qcn, semantics, workflow

        self.path_consistency = qcn.path_consistency
        self.resolutions = workflow.resolutions
        self.resolve_traced = workflow.resolve_traced
        self.budget = semantics.DEFAULT_ATOM_BUDGET
        self.counts = dict.fromkeys(
            ("chars", "vars_out", "constraints_out", "resolutions", "pc_calls",
             "in_budget", "skipped"), 0)
        self.pc_s = 0.0
        self.peak_kb = 0.0

    def take(self, tracer: Tracer, argv: list[str]) -> None:
        for name, result, args in tracer.results:
            if name == "dsl.parse":
                self.counts["chars"] += len(args[0])
                if argv[0] == "check":
                    bound = int(argv[argv.index("--unroll-bound") + 1]) if "--unroll-bound" in argv else 3
                    self.shapes(result.extended.workflow, bound)
            elif name == "extended.sequence_free":
                self.counts["vars_out"] += len(result.network.variables)
                self.counts["constraints_out"] += sum(1 for _ in result.network.nontrivial_pairs())
            elif name == "qcn.is_consistent":
                start = time.perf_counter()
                self.path_consistency(args[0])
                self.pc_s += time.perf_counter() - start
                self.counts["pc_calls"] += 1
            elif name == "workflow.resolutions":
                self.counts["resolutions"] += len(result)
        tracer.results.clear()

    def shapes(self, workflow, bound: int) -> None:
        tracemalloc.start()
        try:
            entries = self.resolutions(workflow, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.peak_kb = max(self.peak_kb, peak / 1024)
        for resolution, _ in entries:
            atoms = self.resolve_traced(workflow, resolution)[1]
            self.counts["in_budget" if len(atoms) <= self.budget else "skipped"] += 1


def traced_run(session: Session, seed: int) -> dict:
    """Warm-up, traced and untraced passes over one fixed request list.

    The list is the first third of the request order, so counts repeat
    exactly for a seed.  The untraced pass comes last, so a warmer cache
    favours it and the overhead is not understated.
    """
    allen = fresh("allen", str(seed))
    requests = session.requests[: max(1, len(session.requests) // 3)]
    for req in requests:
        session.send(req)

    tracer, probes = Tracer(), Probes()
    install(tracer)
    session.tracer = tracer
    attempted = failed = 0
    try:
        for i, req in enumerate(requests):
            tracer.doc = i
            ok = session.send(req)[0]
            probes.take(tracer, session.argv[req.key])
            attempted += 1
            failed += not ok
    finally:
        session.tracer = None
        tracer.unwrap()
    untraced = sum(session.send(req)[1] for req in requests)

    traced = tracer.total("cli.main")
    layer_self = sum(s.self_time for s in tracer.spans if s.name != "cli.main")
    c = probes.counts
    shapes = c["in_budget"] + c["skipped"]
    parse_s = tracer.busy("dsl.parse")
    metrics = {
        "dsl.parse.calls": (tracer.calls("dsl.parse"), "count"),
        "dsl.parse.busy_s": (parse_s, "s"),
        "dsl.parse.chars_per_s": (c["chars"] / parse_s if parse_s else 0.0, "chars/s"),
        "dsl.format.busy_s": (tracer.busy("dsl.format"), "s"),
        "dsl.dot.busy_s": (tracer.busy("dsl.dot"), "s"),
        "extended.sequence_free.busy_s": (tracer.busy("extended.sequence_free"), "s"),
        "extended.sequence_free.vars_out": (c["vars_out"], "count"),
        "extended.sequence_free.constraints_out": (c["constraints_out"], "count"),
        "workflow.normalize.busy_s": (tracer.busy("workflow.normalize"), "s"),
        "workflow.subsumes.calls": (tracer.calls("workflow.subsumes"), "count"),
        "workflow.subsumes.busy_s": (tracer.busy("workflow.subsumes"), "s"),
        "allen.compose_sets.cold_ops_per_s": (allen["cold"], "1/s"),
        "allen.compose_sets.warm_ops_per_s": (allen["warm"], "1/s"),
        "qcn.path_consistency.calls": (c["pc_calls"] + tracer.calls("qcn.path_consistency"), "count"),
        "qcn.path_consistency.busy_s": (probes.pc_s + tracer.busy("qcn.path_consistency"), "s"),
        "qcn.is_consistent.busy_s": (tracer.busy("qcn.is_consistent"), "s"),
        "qcn.search.busy_s": (tracer.total("qcn.is_consistent") - probes.pc_s, "s"),
        "qcn.realize_scenario.calls": (tracer.calls("qcn.realize_scenario"), "count"),
        "qcn.realize_scenario.busy_s": (tracer.busy("qcn.realize_scenario"), "s"),
        "qcn.entails.busy_s": (tracer.busy("qcn.entails"), "s"),
        "workflow.resolutions.count": (c["resolutions"], "count"),
        "workflow.resolutions.busy_s": (tracer.busy("workflow.resolutions"), "s"),
        "workflow.resolutions.peak_kb": (probes.peak_kb, "KiB"),
        "semantics.find_model.busy_s": (tracer.busy("semantics.find_model"), "s"),
        "semantics.shapes_in_budget": (c["in_budget"], "count"),
        "semantics.shapes_skipped": (c["skipped"], "count"),
        "semantics.useful_ratio": (c["in_budget"] / shapes if shapes else 0.0, "fraction"),
        "semantics.oracle.busy_s": (tracer.busy("semantics.oracle"), "s"),
        "cli.overhead_s": (tracer.busy("cli.main"), "s"),
        "trace.coverage": (layer_self / traced if traced else 0.0, "fraction"),
        "trace.overhead": (traced - untraced, "s"),
    }
    spans_file = HERE / ".work" / f"spans-{session.workload}-{seed}.json"
    spans_file.write_text(json.dumps(tracer.dump()))
    note = f"{len(tracer.spans)} spans over {attempted} requests written to {spans_file.relative_to(ROOT)}"
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "note": note}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twf" / "cli.py").is_file():
        print(f"error: no twf sources under {SRC}; run from a twf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = HERE / ".work" / f"docs-{os.getpid()}"
    try:
        session = Session(args.workload, args.seed, workdir)
        if args.trace:
            result = traced_run(session, args.seed)
        else:
            setup = setup_seconds()
            defects = fresh("defects", str(args.seed))
            if defects["broken"]:
                session.wrong.append(f"{defects['broken']} probe documents failed the normalize round trip")
            result = measure(session, args.seconds)
            result["metrics"] = {
                "setup_s": (setup, "s"),
                **result["metrics"],
                "max_chain_steps": (defects["max_chain_steps"], "steps"),
                "normalize_fixpoint_ratio": (defects["fixpoint"], "fraction"),
            }
            result["note"] += (
                f"; longest chain handled {defects['max_chain_steps']} steps, "
                f"{defects['fixpoint']:.3f} of {defects['documents']} normalize outputs "
                f"fixed points, {defects['broken']} re-parsing to another document"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checker = session.checker
    print(
        f"{args.workload} seed {args.seed}: {result['note']}; "
        f"{checker.digest_checked} answers matched recorded digests, "
        f"{checker.digest_missing} had none recorded; {len(session.wrong)} wrong answers, "
        f"{len(session.defects)} normalize outputs re-parsing to another document",
        file=sys.stderr,
    )
    for line in session.wrong[:20] + session.defects[:5]:
        print(f"  {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not session.wrong and result["attempted"] > result["failed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
