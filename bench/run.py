"""querystance benchmark: two workloads, end-to-end and per-layer metrics.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload paper_cli --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics. Their timings are scaled to one reference host speed by a probe
timed every 0.25 s while the program runs (see ``hostprobe.py``); the
unscaled wall-clock figures are printed and recorded next to them.
``--trace 1`` runs one untraced unit for reference, then traced units, and
prints the per-layer metrics; the tracing overhead is the difference
between the two. Metric names and units come from
``BENCHMARK.json``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when any operation or output check failed.

Each run appends its full record (environment, input properties, checks,
every layer figure) to ``bench/out/runs.jsonl``. Compare two such files,
for example the parent commit's and a change's:

    python3 bench/run.py --compare parent.jsonl change.jsonl

Each workload runs in its own process: ``ru_maxrss`` is a peak over the
life of the process and would otherwise carry over between workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PERCENTILES = (50, 90, 99, 99.9)
PROBE_PERIOD_S = 0.25
TEXT_LAYERS = ("features", "textproc", "porter", "lexicons")


def pin_blas_threads() -> dict[str, str]:
    """One BLAS thread: a second one waits on a CPU that other processes share,
    which spreads the timings more than it saves. Must run before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_VARS}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def highest_resolved_percentile(n: int) -> float | None:
    """The highest reported percentile with at least ten samples beyond it."""
    resolved = [q for q in PERCENTILES if n * (1 - q / 100.0) >= 10]
    return max(resolved) if resolved else None


def run_units(unit, seconds: float, minimum: int, cycle: int) -> list[dict]:
    """Repeat the workload's timed unit for ``seconds``, at least ``minimum`` times.

    Stops only after whole cycles of ``cycle`` units, so that every corpus
    a run cycles through weighs the same in its medians.
    """
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < minimum or len(results) % cycle or time.perf_counter() < deadline:
        results.append(unit())
    return results


def timings(units: list[dict], setups: list[dict]) -> dict[str, float]:
    """The timing metrics: medians over units and set-ups, percentiles over requests."""
    samples = [t for u in units for t in u["request_s"]]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "e2e_s": statistics.median(u["e2e_s"] for u in units),
        "train_s": statistics.median(
            u["train_s"] for u in (units if "train_s" in units[0] else setups)),
        "predict_rows_per_s": statistics.median(u["rows"] / u["predict_s"] for u in units),
        "request_p50_ms": 1e3 * percentile(samples, 50),
        "request_p90_ms": 1e3 * percentile(samples, 90),
    }


def module_shares(self_ns: dict[str, int]) -> dict[str, float]:
    total = sum(self_ns.values()) or 1
    shares: dict[str, float] = {}
    for name, ns in self_ns.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + ns / total
    return shares


def layer_figures(diffs, traced, untraced, models, rows_in, rows_predicted) -> dict:
    """Per-layer figures of one traced unit (medians when several ran)."""
    def med(fn):
        return statistics.median(fn(d) for d in diffs)

    def calls(name):
        return med(lambda d: d["calls"][name])

    def counter(key):
        return med(lambda d: d["counters"].get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    figures = {}
    for name in diffs[0]["calls"]:
        figures[f"{name}.calls"] = calls(name)
        figures[f"{name}.s"] = med(lambda d: d["self_ns"][name] / 1e9)
    figures["textproc.tokenize.calls_per_row"] = calls("textproc.tokenize") / rows_in
    figures["lexicons.gloss_hit_ratio"] = ratio(
        counter("gloss_hits"), calls("lexicons.gloss_first_k_sentences"))
    figures["features.task2.dims"] = ratio(counter("task2_dims"), calls("features.task2_features"))
    figures["features.task2.nnz_ratio"] = ratio(counter("task2_nnz"), counter("task2_dims"))
    # computed from SV counts and dims, not measured
    figures["svm.kernel_evals"] = counter("kernel_evals")
    figures["svm.sv_bytes_read_per_row"] = counter("sv_bytes") / rows_predicted
    for task in (1, 2):
        figures[f"svm.task{task}.n_sv"] = models[f"task{task}"]["n_sv"]
        figures[f"svm.task{task}.sv_at_c"] = models[f"task{task}"]["sv_at_c"]
        figures[f"pipeline.model_bytes.task{task}"] = untraced[0]["model_bytes"][task - 1]
    figures["svm.task2.sv_unique_ratio"] = models["task2"]["sv_unique_ratio"]
    same_inputs = traced[:len(untraced)]
    figures["trace.overhead_ratio"] = (
        sum(u["e2e_s"] for u in same_inputs) / sum(u["e2e_s"] for u in untraced) - 1.0)
    return figures


def design_checks(workload: str, diff: dict) -> dict[str, bool]:
    """Does the traced unit stress the layers the workload was chosen for?"""
    self_ns, calls = diff["self_ns"], diff["calls"]
    shares = module_shares(self_ns)
    text = sum(shares.get(m, 0.0) for m in TEXT_LAYERS)
    checks = {}
    if workload == "query_stream":
        checks["no training in the timed part"] = calls["svm.train_binary"] == 0
        checks["text layers have the largest share"] = all(
            text > v for m, v in shares.items() if m not in TEXT_LAYERS)
        not_reached = {"corpus.load_dataset", "svm.train_binary", "pipeline.train_task1",
                       "pipeline.train_task2", "pipeline.save_task_model",
                       "pipeline.load_task_model", "cli.train", "cli.predict", "cli.evaluate"}
    else:
        not_reached = set()
    checks["every reached function was called"] = all(
        n > 0 for name, n in calls.items() if name not in not_reached)
    return checks


def run(args) -> int:
    if not (ROOT / "src" / "querystance").is_dir():
        print(f"error: no querystance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    nproc = len(os.sched_getaffinity(0))
    blas = pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import numpy as np

    import hostprobe
    import tracer
    import workloads

    ops = workloads.Ops()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    kind, corpora, min_units, setup_repeats = workloads.WORKLOADS[args.workload]
    workload = kind(args.workload, args.seed, workdir, ops, corpora, min_units)
    # no timer in the traced run: a probe inside a span would count as the layer's time
    clock = workload.clock = hostprobe.HostClock(0 if args.trace else PROBE_PERIOD_S)
    try:
        workload.prepare()
        with clock:
            setups = [workload.setup() for _ in range(setup_repeats)]  # setup_s is their median
            inputs = workload.inputs()
            traced, diffs = [], []
            if args.trace:
                # one untraced pass over the corpora, then traced passes over the same ones
                untraced = run_units(workload.unit, 0, 1, workload.corpora)
                spans = tracer.Tracer()
                workload.on_request = spans.next_request
                spans.install()
                try:
                    deadline = time.perf_counter() + args.seconds
                    while (len(traced) < len(untraced) or len(traced) % workload.corpora
                           or time.perf_counter() < deadline):
                        before = spans.snapshot()
                        traced.append(workload.unit())
                        diffs.append(tracer.diff(spans.snapshot(), before))
                finally:
                    spans.uninstall()
                spans.save(OUT_DIR / f"trace-{args.workload}.npz")
            else:
                untraced = run_units(workload.unit, args.seconds, workload.min_units, workload.corpora)
            models = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = untraced + traced
    for part in sorted({u["corpus"] for u in units}):
        digests = {u["digest"] for u in units if u["corpus"] == part}
        ops.check(len(digests) == 1, f"prediction digest of corpus {part} differs between repeats")
    first = units[0]
    # accuracy and model size are exact for each corpus; their mean over the
    # run's corpora varies less from seed to seed than any one corpus does
    accuracy = {name: statistics.fmean(u[name] for u in units)
                for name in ("relevance_acc", "stance_acc")}
    for name, floor in workloads.ACCURACY_FLOORS[args.workload].items():
        ops.check(accuracy[name] >= floor, f"{name} {accuracy[name]:.2f} below the floor {floor}")

    samples = [t for u in untraced for t in u["request_s"]]
    wall = timings([{**u, **u["wall"]} for u in untraced], [{**s, **s["wall"]} for s in setups])
    values = {
        **timings(untraced, setups),
        "model_bytes": statistics.fmean(sum(u["model_bytes"]) for u in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **accuracy,
    }
    checks = {}
    if args.trace:
        rows_in = inputs["rows"]
        values.update(layer_figures(diffs, traced, untraced, models, rows_in, first["rows"]))
        checks = design_checks(args.workload, diffs[0])
    published = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in published}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": nproc,
            "blas_threads": blas,
            "commit": git_commit(),
        },
        "inputs": inputs,
        "units": {"untraced": len(untraced), "traced": len(traced)},
        "unit_samples": {k: [u[k] for u in untraced] for k in ("e2e_s", "train_s", "predict_s")
                         if k in first},
        "setup_samples": setups,
        "probe_s": {"reference": hostprobe.REFERENCE_S, "count": len(clock.starts),
                    **dict(zip(("q1", "median", "q3"), statistics.quantiles(clock.times, n=4)))},
        "wall": wall,
        "wall_unit_samples": {k: [u["wall"][k] for u in untraced]
                              for k in ("e2e_s", "train_s", "predict_s") if k in first},
        "request_samples": len(samples),
        "highest_resolved_percentile": highest_resolved_percentile(len(samples)),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failed_ratio": ops.failed / ops.attempted,
        "failures": ops.failures,
        "design_checks": checks,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "all": values,
    }
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"units {len(untraced)} untraced + {len(traced)} traced")
    print("env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    print("inputs " + " ".join(f"{k}={v:.4g}" for k, v in inputs.items()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"host probe median {record['probe_s']['median']:.4g} s over {len(clock.starts)} probes, "
          f"reference {hostprobe.REFERENCE_S} s")
    print("wall clock, unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    print(f"request samples {len(samples)}; highest percentile with >=10 samples beyond it: "
          f"{record['highest_resolved_percentile']}")
    for what, ok in checks.items():
        print(f"design check {'ok' if ok else 'NOT MET'}: {what}")
    for failure in ops.failures:
        print(f"FAILED: {failure}")
    print(f"operations attempted {ops.attempted} failed {ops.failed} "
          f"failed_ratio {record['failed_ratio']:.6g}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0 if ops.failed == 0 else 1


# --- compare ----------------------------------------------------------------


def load_records(path: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("{"):
                record = json.loads(line)
                key = (record.get("workload", "?"), record.get("trace", 0))
                groups.setdefault(key, []).append(record)
    return groups


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_records(path_a), load_records(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    for key in sorted(set(a) & set(b)):
        print(f"\n{key[0]} (trace {key[1]}): {len(a[key])} runs in A, {len(b[key])} in B")
        print(f"{'metric':40s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s} {'B/A':>7s}  verdict")
        names = sorted({n for r in a[key] + b[key] for n in r["metrics"]})
        for name in names:
            va = [r["metrics"][name] for r in a[key] if name in r["metrics"]]
            vb = [r["metrics"][name] for r in b[key] if name in r["metrics"]]
            if not va or not vb:
                continue
            (ma, a1, a3), (mb, b1, b3) = summary(va), summary(vb)
            ratio = mb / ma if ma else float("nan")
            verdict = ""
            if name in bounded:
                bound = bounded[name]["bound"]
                spread = max((a3 - a1) / abs(ma) if ma else 0.0, (b3 - b1) / abs(mb) if mb else 0.0)
                worse = (mb - ma) / abs(ma) if ma else 0.0
                if bounded[name]["better"] == "higher":
                    worse = -worse
                if spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "worse" if worse > bound else "within bound"
            print(f"{name:40s} {ma:12.6g} [{a1:.4g}, {a3:.4g}]".ljust(74)
                  + f"{mb:12.6g} [{b1:.4g}, {b3:.4g}]".ljust(33) + f"{ratio:7.3f}  {verdict}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper_cli", "query_stream"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two runs.jsonl files to compare instead of running")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
