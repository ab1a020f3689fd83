"""Benchmark of the spectral rasterizer: what a caller of rasterize,
rasterize_backward and fit waits for.

    python3 perfbench/run.py --workload mesh2d --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
The load is a closed loop: each call waits for the previous result, as an
optimisation loop does.  Every process gets its BLAS threads pinned to 1
and DDSL_WORKERS set to nproc, so no process runs more threads than there
are cores.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* setup_s: process start to the first timed call (import, inputs, grid,
  target raster, warm-up calls), median over the run's fresh processes;
* forward_s, backward_s: median wall time of one rasterize and one
  rasterize_backward call (on the fit workloads, of the standalone calls
  on the fit's starting geometry between fits);
* fit_iter_s: median wall time of one accepted fit iteration, its
  line-search candidates and its gradient included; on the raster
  workloads, where nothing is fitted, of one forward + backward pair;
* pairs_per_s: element x mode pairs through one forward plus one backward
  call, divided by forward_s + backward_s;
* peak_rss_mb: median over the fresh processes of ru_maxrss after a fixed
  amount of work: set-up plus the first two pairs of a raster workload,
  or plus the first round (one whole fit and its pairs) of a fit workload;
* ok_frac: 1 - fail_frac, the share of operations that neither raised nor
  failed an output check (fail_frac itself is 0 when all pass, so the
  report prints it and the JSON carries it as attempted/failed).

The measured seconds are split over PROCESSES fresh processes, run one
after another, and the timings are medians over all their samples: the
speed of one process varies by several percent from the next, and no
single process should decide a run.

``--trace 1`` runs one untraced process and one traced one, and
prints the per-layer metrics (see layers.py) with the tracing overhead:
the traced run's forward_s, backward_s and fit_iter_s minus the untraced
run's.  ``--smoke`` shrinks every workload to a few-second run.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mesh2d", "lattice3d", "posefit3d", "polyfit2d")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROCESSES = 5
TIME_LIMIT_S = 170.0
TIMINGS = ("forward_s", "backward_s", "fit_iter_s")
UNITS = {"setup_s": "s", "forward_s": "s", "backward_s": "s", "fit_iter_s": "s",
         "pairs_per_s": "1/s", "peak_rss_mb": "MiB", "ok_frac": "frac"}
LAYER_UNITS = {
    "nuft.forward_s": "s", "nuft.pairs": "count", "nuft.pairs_per_s": "1/s",
    "nuft.confluent_frac": "frac", "nuft.temp_mb": "MiB_computed", "nuft.parallel_eff": "frac",
    "gradients.backward_s": "s", "gradients.pairs_per_s": "1/s",
    "spectral.filter_s": "s", "spectral.inverse_s": "s", "spectral.adjoint_s": "s",
    "spectral.share": "frac", "pipeline.forwards_per_iter": "count",
    "pipeline.backwards_per_iter": "count", "pipeline.loss_mres_s": "s",
    "optimizer.accept_ratio": "frac", "optimizer.self_s": "s", "deform.self_s": "s",
    "trace.forward_s_delta": "s", "trace.backward_s_delta": "s", "trace.fit_iter_s_delta": "s",
}


class BenchError(RuntimeError):
    pass


def child_env(nproc: int) -> dict:
    env = dict(os.environ, DDSL_WORKERS=str(nproc), **{var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                                               if env.get("PYTHONPATH") else []))
    return env


def run_worker(mode, args, env, deadline, seconds):
    """Start one worker process, wait for it, return (its JSON, its start time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
           str(seconds), "1" if args.smoke else "0"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def tail(values):
    """(q, value) of the highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, sorted(values)[math.ceil(q / 100 * n) - 1]


def describe(name, values, unit):
    line = f"{name:12s} median {statistics.median(values):.6g} {unit}"
    t = tail(values)
    line += f", p{t[0]} {t[1]:.6g} {unit}" if t else ", no tail percentile (n < 20)"
    return line + f", n={len(values)}"


def merge(results):
    """One result from several processes' results: samples pooled, checks summed.

    Adds one check of its own: every process ends at the same final loss.
    """
    out = dict(results[0])
    out["samples"] = {name: [x for r in results for x in r["samples"][name]] for name in TIMINGS}
    out["attempted"] = sum(r["attempted"] for r in results) + 1
    out["failed"] = sum(r["failed"] for r in results)
    out["failures"] = [f for r in results for f in r["failures"]]
    out["worst"] = {check: max(r["worst"].get(check, 0.0) for r in results)
                    for check in results[0]["worst"]}
    losses = sorted({repr(r["final_loss"]) for r in results})
    if len(losses) > 1:
        out["failed"] += 1
        out["failures"].append(f"processes of one seed ended at different losses {losses}")
    return out


def medians(result):
    return {k: statistics.median(v) for k, v in result["samples"].items()}


def end_to_end(args, env, deadline):
    results, setups = [], []
    for _ in range(PROCESSES):
        result, started = run_worker("measure", args, env, deadline, args.seconds / PROCESSES)
        setups.append(result["setup_mark"] - started)
        results.append(result)
    result = merge(results)
    rss = [r["rss_mib"] for r in results]

    med = medians(result)
    pairs = result["sizes"]["pairs_per_call"]
    metrics = {
        "setup_s": statistics.median(setups),
        **med,
        "pairs_per_s": 2 * pairs / (med["forward_s"] + med["backward_s"]),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
    }
    print(describe("setup_s", setups, "s"))
    print(f"peak_rss_mb  per process {' '.join(f'{r:.1f}' for r in rss)} MiB")
    for name in TIMINGS:
        print(describe(name, result["samples"][name], "s"))
    return result, metrics, UNITS


def per_layer(args, env, deadline):
    plain, _ = run_worker("measure", args, env, deadline, args.seconds)
    traced, _ = run_worker("trace", args, env, deadline, args.seconds)
    result = merge([traced, plain])
    metrics = dict(traced["layers"])
    with_spans, without = medians(traced), medians(plain)
    for name in TIMINGS:
        metrics[f"trace.{name}_delta"] = with_spans[name] - without[name]
    print("counts per round " + json.dumps(traced["counts"], sort_keys=True))
    return result, metrics, LAYER_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the output format")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds, killing the worker

    if not (ROOT / "src" / "simplexrast" / "__init__.py").is_file():
        sys.exit(f"run.py: no library source under {ROOT / 'src'}; run from a full checkout")
    nproc = len(os.sched_getaffinity(0))
    preset = os.environ.get("DDSL_WORKERS")
    if preset is not None and int(preset) > nproc:
        sys.exit(f"run.py: DDSL_WORKERS={preset} exceeds nproc={nproc}; refusing to run")
    env = child_env(nproc)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    try:
        run = per_layer if args.trace else end_to_end
        result, metrics, units = run(args, env, deadline)
    except BenchError as exc:
        sys.exit(f"run.py: {exc}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("sizes " + json.dumps(result["sizes"], sort_keys=True))
    print(f"final_loss {result['final_loss']!r}")
    print("worst relative error per check " + json.dumps(result["worst"], sort_keys=True))
    print(f"fail_frac {result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
