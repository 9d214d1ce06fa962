"""cocyclelab benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload products --seed 1 --seconds 50 --trace 0

Run from anywhere; the library is imported from the `src/` directory next
to this one and nowhere else, so the command fails (exit 2) in a
directory that holds the benchmark without the library.

A run sets up its inputs from --seed, repeats passes over the workload's
operations for --seconds, checks the first pass's outputs against
independent numpy references (outside every timed region) and every
later pass against the first, then prints a summary and, as its last
line, {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  run_s        time of one pass: the sum over its operations of each
               operation's upper-quartile time among the run's passes,
               the first pass (warm-up) left out.
  work_per_s   the workload's declared work per pass over run_s.
  setup_s      the median of eleven set-ups, each in a fresh process (this
               one and ten probes spread over the run): the time from the
               top of this script to the first timed call, covering
               imports, input generation and building specs and sources.
  peak_rss_mb  peak resident memory of this process over set-up and
               passes, read before the reference checks run.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: spans (name, start, end, parent) around the benchmark's calls
into each layer, plus pieces a composite call repeats internally, timed on
their own in traced passes so they can be subtracted (derived self
times). Metrics of layers a workload does not run read 0.

Why upper quartiles: on a shared 2-vCPU Intel Xeon VM (Python 3.11,
numpy 2.4) other tenants slowed the same code about 1.7 times for most of
the time, with faster windows of tens of milliseconds in between whose
share changed from minute to minute. An operation's fastest time then
depends on whether a run met a fast window, and its median on the share
of fast windows; its upper quartile marks the slowed state that holds
most of the time. Over the 50 s segments of three 4- to 5-minute
recordings the sum of upper quartiles moved by 3-8 % (q3 - q1 over the
median), the sum of fastest times by 3-13 % and of medians by 3-12 %.
Runs are long and every operation short, so each run holds 50 to 100
samples of each; there are two workloads so the runs can be that long,
each running two of the four parts (orbit_trace.py, ensemble.py,
return_words.py, cli_registry.py) in every pass.

fail_ratio = failed / attempted is printed in the summary; it is not a
JSON metric because it is 0 whenever the library is correct. An
operation fails when it raises unexpectedly, misses its reference check,
or differs from the same operation in the first pass.
"""

import os
import sys
import time

T0 = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 11
WORKLOADS = ("products", "analysis")


def load_library():
    """Import cocyclelab from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "cocyclelab" / "__init__.py").is_file():
        print(f"bench: no cocyclelab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import cocyclelab

    if Path(cocyclelab.__file__).resolve().parent != (src / "cocyclelab").resolve():
        print(f"bench: imported cocyclelab from {cocyclelab.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return cocyclelab


def build(name: str, seed: int, workdir: str):
    """products: orbit-trace and ensemble, the product kernel's two shapes.
    analysis: return-words and cli-registry, the analyses built on it and
    the user-facing path."""
    import cli_registry
    import ensemble
    import orbit_trace
    import return_words
    from common import Combined

    if name == "products":
        parts = [orbit_trace.Workload(seed), ensemble.Workload(seed)]
        return Combined(name, "factor steps", sum(part.work for part in parts), parts)
    rw, cli = return_words.Workload(seed), cli_registry.Workload(seed, workdir)
    return Combined(name, "library calls and cli commands", rw.calls + cli.calls, [rw, cli])


def probe_setup(args) -> float:
    """Set-up time of a fresh process; this one waits for it to end."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def upper_quartile(passes, attr: str) -> dict[str, float]:
    """Per key, the upper quartile of its times among the given passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for key, secs in getattr(p, attr).items():
            times.setdefault(key, []).append(secs)
    return {key: statistics.quantiles(v, n=4)[2] if len(v) > 1 else v[0]
            for key, v in times.items()}


def op_of(check_key: str, op_keys) -> str:
    """The op a check belongs to: the longest op key it equals or extends."""
    hits = [k for k in op_keys if check_key == k or check_key.startswith(k + ".")]
    if not hits:
        raise KeyError(f"check {check_key!r} belongs to no operation")
    return max(hits, key=len)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "cpu_model": cpu, "git_commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def declared_metrics() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_library()
    end_to_end, per_layer = declared_metrics()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, workdir, end_to_end, per_layer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir, end_to_end, per_layer) -> int:
    from common import Pass, fingerprint

    wl = build(args.workload, args.seed, workdir)
    setup_self = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_self}))
        return 0
    setups = [setup_self]

    spans: list = []
    passes = []
    first_prints: dict[str, bytes] = {}
    bad_later: list[tuple[int, str]] = []
    pass_keys: list[set] = []
    busy = 0.0  # time spent in passes; set-up probes do not count
    while True:
        start = time.perf_counter()
        index = len(passes)
        p = Pass(index, traced=bool(args.trace) and index % 2 == 1, spans=spans)
        wl.run_pass(p)
        p.close()
        busy += time.perf_counter() - start
        passes.append(p)
        prints = {k: fingerprint(v) for k, v in p.results.items()}
        pass_keys.append(set(prints))
        if index == 0:
            first_prints = prints
        else:
            bad_later += [(index, k) for k, f in prints.items() if f != first_prints.get(k)]
            if hasattr(wl, "pass_check"):
                bad_later += [(index, k) for k in wl.pass_check(index)]
            p.results = None  # keep only the first pass's outputs
        # set-up probes are spread over the run so they sample its whole span
        if len(setups) < SETUP_SAMPLES and busy >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(probe_setup(args))
        if busy >= args.seconds and len(passes) >= 3:
            break
    # read before the checks, so the references' own arrays do not count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe_setup(args))

    first = passes[0].results
    checks = wl.check(first)
    failed_first = set()
    covered = set()
    for c in checks:
        key = op_of(c.key, first)
        covered.add(key)
        if not c.ok:
            failed_first.add(key)
            print(f"CHECK FAILED {c.key}: {c.detail}", file=sys.stderr)
    for key, value in first.items():
        if isinstance(value, Exception) and (key in failed_first or key not in covered):
            failed_first.add(key)
            print(f"{key} raised:\n" + "".join(traceback.format_exception(value)),
                  file=sys.stderr)
    for index, key in bad_later:
        print(f"pass {index}: {key} differs from the first pass", file=sys.stderr)
    failed_later = {(i, k) for i, k in bad_later if k not in failed_first}
    attempted = sum(len(keys) for keys in pass_keys)
    failed = sum(len(keys & failed_first) for keys in pass_keys) + len(failed_later)

    untraced = [p for p in passes[1:] if not p.traced]
    op_q3 = upper_quartile(untraced, "times")
    run_s = sum(op_q3.values())
    metrics = {
        "run_s": run_s,
        "work_per_s": wl.work / run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    values = {k: metrics[k] for k in end_to_end}
    units = end_to_end
    if args.trace:
        traced = [p for p in passes if p.traced]
        t = {**upper_quartile(traced, "times"), **upper_quartile(traced, "piece_times")}
        layer = dict.fromkeys(per_layer, 0.0)
        layer.update(wl.layer_metrics(t, first))
        errs = [c.err_over_tol for c in checks if c.err_over_tol is not None]
        layer["check.max_err_over_tol"] = max(errs, default=0.0)
        layer["trace.overhead_ratio"] = sum(upper_quartile(traced, "times").values()) / run_s - 1.0
        unknown = set(layer) - set(per_layer)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values, units = layer, per_layer

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": wl.size, "work": wl.work, "work_unit": wl.unit,
        "passes": len(passes), "environment": environment(),
        "setup_samples_s": setups, "end_to_end": metrics,
        "fail_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "op_upper_quartile_s": op_q3,
        "checks": [vars(c) for c in checks],
        "metrics": values, "spans": spans,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    env = record["environment"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"size: {wl.size}")
    print(f"  python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"blas_threads {env['blas_threads']} cpu {env['cpu_model']!r} "
          f"commit {env['git_commit']}")
    for name, value in values.items():
        if args.trace and value == 0:
            continue  # a layer this workload does not run
        note = f"  ({wl.unit} per second)" if name == "work_per_s" else ""
        print(f"  {name:<44} {value:.6g} {units[name]}{note}")
    print(f"  {'fail_ratio':<44} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
