"""The shadowcover benchmark: one workload per run, closed loop, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shadows --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` of the checkout with the pure-Python
kernels forced (``SHADOWCOVER_PURE=1``), which is the path the test suite
runs.  Workloads are defined in ``workloads.py``; the seed makes their inputs.

Times in the end-to-end metrics are CPU seconds of this process.  The
library is single-threaded, does no I/O and runs in this process, so CPU
time is what its latency would be on a machine of its own; the wall clock
would add whatever other tenants of a shared host take.  The run checks that
the CPU clock covers the ops' wall time (see ``clock_problem``) and records
both.

``--trace 0`` sets the run up three times, each time importing the library
afresh, preparing the workload's template inputs and making its first round;
``setup_s`` is the median.  It then runs as many whole rounds of the
workload's ops as fit in ``--seconds`` on the reference machine, and
reports the end-to-end metrics.  Most workloads draw fresh inputs for every
round, made between rounds and outside the timed region.

``--trace 1`` runs the first round untraced, traced, and untraced again, so
its counts depend on the seed only, and reports per-layer calls, self time
and work counts plus the tracing overhead (traced round time minus the mean
untraced round time).  Spans go to
``.perfbench-out/trace-<workload>-seed<seed>.json``.

Every output is re-verified after the timed loop with the package's own
checkers; an op that raises or fails its check counts as failed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
# bounds on the ops' CPU time over their wall time; see clock_problem
MIN_CPU_SHARE = 0.5
MAX_CPU_SHARE = 1.05


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def git_hash(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def check_interpreter():
    if sys.flags.optimize:
        raise BenchError(
            "refusing to run under python -O: the library re-verifies witnesses "
            "with assert, and -O would measure it without those checks"
        )
    if not (SRC / "shadowcover" / "__init__.py").is_file():
        raise BenchError(f"no shadowcover package under {SRC}")
    os.environ["SHADOWCOVER_PURE"] = "1"
    sys.path.insert(0, str(SRC))


def load_library():
    """Import shadowcover from the checkout's src/ and the workloads, afresh."""
    for name in list(sys.modules):
        if name in ("shadowcover", "workloads") or name.startswith("shadowcover."):
            del sys.modules[name]
    import shadowcover
    import workloads

    if Path(shadowcover.__file__).resolve().parent != SRC / "shadowcover":
        raise BenchError(f"imported shadowcover from {shadowcover.__file__}")
    if shadowcover.backend_name() != "pure":
        raise BenchError("kernel backend is not 'pure'")
    return shadowcover, workloads


def set_up(args, repeats):
    """Import, prepare the template and make round 0, ``repeats`` times.

    Returns the times of each set-up and what the last one made.
    """
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        shadowcover, workloads = load_library()
        workload = workloads.WORKLOADS[args.workload]
        template = workload.prepare()
        first_round = workload.make_round(template, args.seed, 0)
        times.append(time.process_time() - t0)
    return times, shadowcover, workloads, workload, template, first_round


def run_round(ops, records):
    """Run each op once; record (op, cpu s, wall s, result, exception)."""
    cpu, wall = time.process_time, time.perf_counter
    for op in ops:
        c0, w0 = cpu(), wall()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, exc
        records.append((op, cpu() - c0, wall() - w0, result, error))


def children_cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def clock_problem(records, children_before):
    """Why the CPU clock does not measure these ops, or None if it does.

    The library is single-threaded and does no I/O, so an op's CPU time is
    its wall time minus the time the host gave to other work.  More CPU than
    wall time means threads ran in parallel; far less means the ops waited.
    Either way the CPU clock stops measuring latency.
    """
    cpu_s = sum(rec[1] for rec in records)
    wall_s = sum(rec[2] for rec in records)
    if children_cpu_s() > children_before:
        return "ops ran child processes"
    if not MIN_CPU_SHARE * wall_s <= cpu_s <= MAX_CPU_SHARE * wall_s:
        return f"ops used {cpu_s:.3f} s of CPU in {wall_s:.3f} s of wall time"
    return None


class Verifier:
    """Checks op outputs after the timed region and digests their documents.

    An op that runs again on the same inputs and returns the same document
    was already checked; a different document from the same op is a
    nondeterministic output and fails.  The digest covers the documents of
    the first round, which every run executes.
    """

    def __init__(self, first_round, jsonio, error_doc):
        self.first_round = first_round
        self.dumps = jsonio.dumps_canonical
        self.error_doc = error_doc
        self.first_doc: dict[int, str] = {}
        self.checked: dict[tuple[int, str], bool] = {}
        self.errors: Counter = Counter()
        self.bad_outputs: list[str] = []

    def verify(self, op, result, error) -> bool:
        if error is not None:
            text = self.dumps(self.error_doc(error))
            self.errors[type(error).__name__] += 1
            ok = False
        else:
            text = self.dumps(op.doc(result))
            ok = self.checked.get((id(op), text))
            if ok is None:
                try:
                    ok = bool(op.check(result))
                except Exception as exc:  # a checker that raises rejects the output
                    self.errors[f"check:{type(exc).__name__}"] += 1
                    ok = False
                self.checked[(id(op), text)] = ok
            if not ok:
                self.bad_outputs.append(f"{op.kind} [{op.label}]: check failed")
        first = self.first_doc.setdefault(id(op), text)
        if first != text:
            self.bad_outputs.append(f"{op.kind} [{op.label}]: output differs between rounds")
            ok = False
        return ok

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.first_round:
            h.update(self.first_doc[id(op)].encode())
        return h.hexdigest()


def environment(shadowcover) -> dict:
    return {
        "git": git_hash(ROOT),
        "python": platform.python_version(),
        "backend": shadowcover.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def percentile_ms(latencies, q):
    if len(latencies) == 1:
        return latencies[0] * 1000
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[q - 1] * 1000


def run_untraced(args):
    setups, shadowcover, workloads, workload, template, first_round = set_up(
        args, SETUP_REPEATS
    )
    setup_s = statistics.median(setups)

    records = []
    children_before = children_cpu_s()
    rounds = max(1, int(args.seconds // workload.round_s))
    run_round(first_round, records)
    for r in range(1, rounds):
        ops = first_round
        if workload.fresh:
            ops = workload.make_round(template, args.seed, r)
        run_round(ops, records)
    op_s = sum(rec[1] for rec in records)
    op_wall_s = sum(rec[2] for rec in records)
    clock = clock_problem(records, children_before)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from shadowcover import jsonio

    verifier = Verifier(first_round, jsonio, workloads.error_doc)
    done = []
    per_kind: dict[str, list[float]] = {}
    for op, seconds, _, result, error in records:
        if verifier.verify(op, result, error):
            done.append(seconds)
        per_kind.setdefault(op.kind, []).append(seconds)
    attempted = len(records)
    failed = attempted - len(done)
    correct = not verifier.bad_outputs and bool(done) and clock is None

    for kind, times in per_kind.items():
        print(f"  {kind:<22} median {statistics.median(times) * 1000:10.1f} ms"
              f"  x{len(times)}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / op_s, "1/s"),
        "op_p50_ms": (statistics.median(done) * 1000 if done else 0.0, "ms"),
        "op_p90_ms": (percentile_ms(done, 90) if done else 0.0, "ms"),
        "verified_ops_frac": (len(done) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": 0,
        **environment(shadowcover),
        "rounds": rounds,
        "op_cpu_s": op_s,
        "op_wall_s": op_wall_s,
        "clock_problem": clock,
        "setup_runs_s": setups,
        "latency_samples": len(done),
        "failed_ops_frac": failed / attempted,
        "errors": dict(verifier.errors),
        "bad_outputs": verifier.bad_outputs,
        "output_sha256": verifier.digest(),
    }
    return correct, attempted, failed, metrics, info


def run_traced(args):
    import tracing

    setups, shadowcover, workloads, workload, _, ops = set_up(args, 1)
    from shadowcover import jsonio

    setup_tracer = tracing.Tracer()
    with setup_tracer.installed():
        t0 = time.process_time()
        workload.make_round(workload.prepare(), args.seed, 0)
        setup_traced = time.process_time() - t0

    # untraced rounds before and after the traced one, so that warm-up and
    # drift do not land in the overhead
    untraced = []
    run_round(ops, untraced)

    op_tracer = tracing.Tracer()
    traced = []
    with op_tracer.installed():
        run_round(ops, traced)
    run_round(ops, untraced)

    verifier = Verifier(ops, jsonio, workloads.error_doc)
    outcomes = [verifier.verify(op, r, e) for op, _, _, r, e in untraced + traced]
    attempted = len(outcomes)
    failed = outcomes.count(False)
    correct = not verifier.bad_outputs

    # spans are timed by the wall clock, so the overhead is too
    untraced_s = sum(rec[2] for rec in untraced) / 2
    traced_s = sum(rec[2] for rec in traced)
    self_times = op_tracer.self_times()
    metrics = {}
    for layer in tracing.layer_names():
        metrics[f"{layer}.calls"] = (op_tracer.counts[f"{layer}.calls"], "count")
        metrics[f"{layer}.self_s"] = (self_times[layer], "s")
        for extra in tracing.EXTRA_COUNTS.get(layer, ()):
            key = f"{layer}.{extra}"
            metrics[key] = (op_tracer.counts[key], "count")
    for name in tracing.count_metric_names():
        metrics.setdefault(name, (op_tracer.counts[name], "count"))
    setup_self = setup_tracer.self_times()
    for layer in ("kernels.hull_facets", "lp.solve_lp"):
        metrics[f"setup.{layer}.calls"] = (setup_tracer.counts[f"{layer}.calls"], "count")
        metrics[f"setup.{layer}.self_s"] = (setup_self[layer], "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.self_share"] = (sum(self_times.values()) / traced_s, "ratio")
    metrics["trace.spans"] = (len(op_tracer.spans), "count")

    spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracing.write_spans(spans_path, {"setup": setup_tracer, "ops": op_tracer})
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": 1,
        **environment(shadowcover),
        "setup_untraced_s": setups[0],
        "setup_traced_s": setup_traced,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "errors": dict(verifier.errors),
        "bad_outputs": verifier.bad_outputs,
        "output_sha256": verifier.digest(),
    }
    return correct, attempted, failed, metrics, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("shadows", "contain", "hull", "reliability"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    runner = run_traced if args.trace else run_untraced
    try:
        check_interpreter()
        correct, attempted, failed, metrics, info = runner(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc = {"info": info, "metrics": {k: v for k, (v, _) in metrics.items()}}
    result_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
