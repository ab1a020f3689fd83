"""One benchmark process: set up one workload, then run it for a given
number of seconds.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SMOKE

MODE is ``measure`` (timed rounds, tracing off) or ``trace`` (timed rounds
with spans, then the per-layer metrics).  run.py starts it with the thread
environment pinned and the checkout's ``src`` first on PYTHONPATH; the last
line of standard output is a JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _environment(nproc, workers):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "workers": workers, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _reference(workload: str, seed: int, smoke: bool):
    ref = json.loads((HERE / "reference.json").read_text())
    if smoke or seed != ref["seed"]:
        return None
    return ref["final_loss"][workload]


def main(argv):
    mode, workload_name, seed, seconds, smoke = argv
    seed, seconds, smoke = int(seed), float(seconds), smoke == "1"
    nproc = len(os.sched_getaffinity(0))
    workers = int(os.environ["DDSL_WORKERS"])
    import simplexrast
    import workloads
    from spans import NO_TRACE, Tracer

    src = Path(simplexrast.__file__).resolve().parent
    if src != HERE.parent / "src" / "simplexrast":
        sys.exit(f"worker: imported simplexrast from {src}, not from the checkout")

    workload = workloads.build(workload_name, seed, smoke)
    workload.setup()
    out = {"setup_mark": time.monotonic()}

    tracer = NO_TRACE
    if mode == "trace":
        import layers

        tracer = Tracer(f"{workload_name}-seed{seed}-pid{os.getpid()}")
        layers.install(tracer)
    rec = workloads.Record()
    start = time.monotonic()
    rounds = 0
    # a traced run needs two rounds to check that its counts repeat; past
    # the minimum, a round starts only if it is expected to end in time
    min_rounds = max(workload.rss_rounds, 2 if mode == "trace" else 1)
    while rounds < min_rounds or (time.monotonic() - start) * (rounds + 1) / rounds <= seconds:
        workload.run_round(rec, tracer, rounds)
        rounds += 1
        if rounds == workload.rss_rounds:
            # peak RSS after a fixed amount of work, the same on every commit
            out["rss_mib"] = _peak_rss_mib()
    if mode == "trace":
        tracer.restore()
    workload.finish(rec, _reference(workload_name, seed, smoke))
    rebuilt = workloads.build(workload_name, seed, smoke)
    rec.op(rebuilt.digest() == workload.digest(), "the seed did not reproduce the inputs")

    if mode == "trace":
        metrics, per_round = layers.layer_metrics(tracer, rec.windows, workload.kind == "fit")
        rec.op(all(c == per_round[0] for c in per_round[1:]),
               f"per-round counts differ: {per_round}")
        metrics["nuft.parallel_eff"] = workloads.parallel_eff(workload, workers)
        out.update(layers=metrics, counts=per_round[0])
        trace_dir = HERE / "out"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"trace-{workload_name}-seed{seed}.json")
    out.update(samples=rec.samples, attempted=rec.attempted, failed=rec.failed,
               failures=rec.failures[:20], worst=rec.worst, final_loss=workload.final_loss,
               sizes=workloads.sizes(workload), env=_environment(nproc, workers))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
