"""gramkit benchmark: times one workload in-process, checks every distinct
output against an independent reference, and prints the metrics.

    python3 perfbench/run.py --workload sweep_table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; gramkit is imported from ``src/`` there.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is 0
only when every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: with threaded BLAS on a two-core
# VM the first call cost 1.2-1.3 s instead of 0.2 s in 2 of 16 runs of an
# earlier draft, and BLAS threads compete with the timed loop.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# (name, unit) of every metric; BENCHMARK.json lists the same names.
END_TO_END = [
    ("ops_per_ref", "1/ref"),
    ("latency_p50_ref", "ref"),
    ("latency_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

MIN_OPS = 100  # so that at least ten ops fall beyond p90
SETUP_PROBES = 6
REF_PRODUCTS = 2000
REF_SOLVE_N = 400


def import_gramkit():
    """gramkit from this checkout's src/, never from another installation."""
    if not (SRC / "gramkit" / "__init__.py").is_file():
        raise SystemExit(f"error: gramkit source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gramkit

    if Path(gramkit.__file__).resolve().parent != SRC / "gramkit":
        raise SystemExit(f"error: imported gramkit from {gramkit.__file__}, not {SRC}")
    return gramkit


class ReferenceLoop:
    """Fixed work with no gramkit code, timed next to every op so that op
    times can be expressed in its units, which cancels most of the drift in
    machine speed within and between runs.

    It has two parts of about equal length, as the workloads mix both kinds
    of work: REF_PRODUCTS Python-level products of 2x2 numpy arrays, and
    one LAPACK solve of a fixed REF_SOLVE_N x REF_SOLVE_N system.  The
    products alone track the Python-bound workloads but overshoot the
    LAPACK-bound one when the machine slows down (see README.md).
    """

    def __init__(self) -> None:
        self.rot = np.array([[0.6, 0.8], [-0.8, 0.6]])
        self.eye = np.eye(2)
        rng = np.random.default_rng(0)
        n = REF_SOLVE_N
        self.M = rng.standard_normal((n, n)) + 0.1 * n * np.eye(n)
        self.b = np.ones(n)
        self.solve = np.linalg.solve

    def __call__(self) -> int:
        """Runs the loop once; returns its duration in ns."""
        rot, x = self.rot, self.eye
        start = time.perf_counter_ns()
        for _ in range(REF_PRODUCTS):
            x = rot @ x
        y = self.solve(self.M, self.b)
        end = time.perf_counter_ns()
        if not (abs(x[0, 0]) <= 1.0 + 1e-9 and abs(y[0]) < 1.0):  # keeps the results observable
            raise RuntimeError("reference loop went wrong")
        return end - start


def setup_probe(workload: str, seed: int) -> float:
    """Time from the start of a fresh process to the end of its warm-up op,
    i.e. to where its timing would start."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code} after {line!r}")
    return elapsed


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS, setup_probes: int = SETUP_PROBES) -> dict:
    """Time whole rounds of the workload for ``seconds`` (and at least
    ``min_ops`` ops), then check outputs.  Returns the result record.

    The set-up probes run one at a time between ops, spread evenly over the
    timed loop, so their median samples the same stretch of machine time as
    the ops; no op or reference time includes a probe.
    """
    import workloads
    from tracer import Tracer, per_layer_metric_names

    work = workloads.make_workload(workload_name, seed)
    first = [work.op(work.cases[0])] + [None] * (len(work.cases) - 1)
    setup: list[float] = []
    probe_at = [seconds * (k + 0.5) / setup_probes for k in range(setup_probes)]

    tracer = None
    if trace:
        import gramkit

        tracer = Tracer(gramkit)
        tracer.install()
        tracer.spans = []
    gc.collect()
    gc.freeze()
    reference = ReferenceLoop()
    op_ns, ref_ns, ratios = [], [], []
    attempted = failed = mismatched = 0
    spans = None
    try:
        start = time.perf_counter()
        before = reference()
        ref_ns.append(before)
        while True:
            for index, case in enumerate(work.cases):
                attempted += 1
                t0 = time.perf_counter_ns()
                try:
                    output = work.op(case)
                except Exception as exc:  # counted, reported, and the run goes on
                    failed += 1
                    print(f"op failed on case {index}: {exc!r}", file=sys.stderr)
                    output = None
                t1 = time.perf_counter_ns()
                after = reference()
                ref_ns.append(after)
                if output is not None:
                    op_ns.append(t1 - t0)
                    # In units of the reference loops run right before and after.
                    ratios.append(2.0 * (t1 - t0) / (before + after))
                    if tracer is not None and tracer.spans is not None:
                        spans, tracer.spans = tracer.spans, None
                    if first[index] is None:
                        first[index] = output
                    elif not workloads.same_output(first[index], output):
                        mismatched += 1
                before = after
                if len(setup) < setup_probes and time.perf_counter() - start >= probe_at[len(setup)]:
                    setup.append(setup_probe(workload_name, seed))
                    before = reference()
                    ref_ns.append(before)
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(op_ns) >= min_ops) or elapsed >= 3 * seconds:
                break
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < setup_probes:
        setup.append(setup_probe(workload_name, seed))

    import oracle  # imports scipy, so only after the memory reading

    problems = []
    if mismatched:
        problems.append(f"{mismatched} reruns differ from the first output of the same inputs")
    try:
        oracle.check(work, first)
    except oracle.CheckFailed as exc:
        problems.append(str(exc))
    if not op_ns:
        problems.append("no op completed")
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {},
                "problems": problems, "spans": None}

    end_to_end = {
        "ops_per_ref": len(ratios) / sum(ratios),
        "latency_p50_ref": statistics.median(ratios),
        "latency_p90_ref": statistics.quantiles(ratios, n=10)[-1] if len(ratios) > 1 else ratios[0],
        "peak_rss_mb": peak_rss_mb,
    }
    if setup:
        end_to_end["setup_s"] = statistics.median(setup)
    if trace:
        metrics = tracer.metrics(len(op_ns), sum(op_ns))
        units = {name: "ms" if name.endswith("_ms") else "count" for name in per_layer_metric_names()}
    else:
        metrics, units = end_to_end, dict(END_TO_END)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": problems,
        # Reported, not gated: raw wall-clock figures swing with the machine.
        "info": {
            "ops_per_s": len(op_ns) / (sum(op_ns) / 1e9),
            "ref_ms": statistics.median(ref_ns) / 1e6,
            "setup_samples_s": setup,
            "end_to_end": end_to_end,
        },
        "samples": {"op_ms": [t / 1e6 for t in op_ns], "ref_ms": [t / 1e6 for t in ref_ns]},
        "spans": spans,
    }


def _write_outputs(workload: str, args, result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    (OUT / f"{stem}.json").write_text(json.dumps(result) + "\n")
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as handle:
            for span_id, parent, name, start, end in spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start_ns": start, "end_ns": end}) + "\n")


def main(argv=None) -> int:
    import_gramkit()
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, run the warm-up op, print 'ready' and exit (for setup_s)")
    args = parser.parse_args(argv)

    if args.probe:
        work = workloads.make_workload(args.workload, args.seed)
        work.op(work.cases[0])
        print("ready", flush=True)
        return 0

    if args.workload == "all":
        return run_all(args)
    # set-up time is an end-to-end metric, so traced runs skip its probes
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 setup_probes=0 if args.trace else SETUP_PROBES)
    _write_outputs(args.workload, args, result)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
    info = result.get("info", {})
    print(f"{args.workload} seed={args.seed} attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} {metrics} | ops_per_s={info.get('ops_per_s', 0):.6g}/s "
          f"ref={info.get('ref_ms', 0):.4f}ms")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, as a single-workload run would be,
    so that peak memory and set-up are not shared.  Prints each summary line
    and then one JSON object keyed by workload."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) else {"correct": False}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1

if __name__ == "__main__":
    sys.exit(main())
