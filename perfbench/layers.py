"""Where the traced run puts its wrappers, and the per-layer metrics from its spans.

Layers are the library's modules: ``nuft`` (forward transform), ``gradients``
(backward transform), ``spectral`` (filter and FFTs), ``pipeline``
(rasterize and the polygon losses), ``optimizer`` (the fit loop) and
``deform`` (the pose rig).  Each public function is wrapped in the module
that calls it, because that module holds its own reference.

Per-layer times are self seconds per iteration, as medians over the timed
iterations: an iteration is one forward + backward pair on the raster
workloads and one accepted fit iteration on the fit workloads.  A layer
that a workload never calls reads 0.  Counts are totals per iteration and
must repeat exactly from round to round.
"""

from __future__ import annotations

import bisect
import statistics
from collections import Counter, defaultdict

import numpy as np

from simplexrast import nuft, optimizer, pipeline

SPECTRAL = {"filter": ("spectral.gaussian_filter", "spectral.apply_filter"),
            "inverse": ("spectral.inverse_transform",),
            "adjoint": ("spectral.adjoint_transform",)}


def _mesh_attrs(auxnode: int):
    def attrs(mesh, grid, *args, **kwargs):
        return {"pairs": mesh.n_elements * grid.n_modes, "nodes": mesh.degree + 1 + auxnode,
                "mesh": mesh, "grid": grid}
    return attrs


def install(tracer) -> None:
    """Wrap every public library call that the workloads reach."""
    tracer.wrap(pipeline, "forward_mesh", "nuft.forward_mesh", _mesh_attrs(0))
    tracer.wrap(pipeline, "forward_auxnode", "nuft.forward_auxnode", _mesh_attrs(1))
    tracer.wrap(pipeline, "backward_mesh", "gradients.backward_mesh", _mesh_attrs(0))
    tracer.wrap(pipeline, "backward_auxnode", "gradients.backward_auxnode", _mesh_attrs(1))
    for fn in ("build_grid", "gaussian_filter", "apply_filter", "inverse_transform",
               "adjoint_transform"):
        tracer.wrap(pipeline, fn, "spectral." + fn)
    for module in (pipeline, optimizer):
        tracer.wrap(module, "rasterize", "pipeline.rasterize")
        tracer.wrap(module, "rasterize_backward", "pipeline.rasterize_backward")
    tracer.wrap(optimizer, "loss_mres", "pipeline.loss_mres")
    tracer.wrap(optimizer, "loss_smooth", "pipeline.loss_smooth")
    for fn in ("quat_apply", "quat_pullback", "lbs_apply", "lbs_pullback"):
        tracer.wrap(optimizer, fn, "deform." + fn)

    def traced_objective(objective):
        def call(state, need_grad=True):
            with tracer.span("optimizer.objective", {"need_grad": need_grad}):
                return objective(state, need_grad)
        return call

    tracer.wrap(optimizer, "make_objective", "optimizer.make_objective",
                result_fn=traced_objective)


def confluent_rows(mesh, grid, auxnode: bool) -> int:
    """Element x mode rows whose smallest phase gap is <= EPS_CONFLUENT."""
    sig = np.einsum("end,md->emn", mesh.element_points(), grid.wavevectors)
    if auxnode:  # the auxiliary origin node has phase 0
        sig = np.concatenate([np.zeros(sig.shape[:-1] + (1,)), sig], axis=-1)
    gaps = np.diff(np.sort(sig, axis=-1), axis=-1)
    return int(np.count_nonzero(gaps.min(axis=-1) <= nuft.EPS_CONFLUENT))


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, windows, fit: bool) -> tuple[dict, list]:
    """Per-layer metrics and the per-round counts (which must all be equal).

    ``windows`` holds (start, end, round) of every timed iteration; a span
    belongs to the iteration its start falls in.
    """
    windows = sorted(windows)
    starts = [w[0] for w in windows]
    self_s = tracer.self_times()
    per_iter = [defaultdict(float) for _ in windows]
    counts = [Counter() for _ in windows]
    temp_bytes = 0
    confluent = {}
    for i, (name, start, _, _, attrs) in enumerate(tracer.spans):
        k = bisect.bisect_right(starts, start) - 1
        if k < 0 or start > windows[k][1]:
            continue
        per_iter[k][name] += self_s[i]
        counts[k][name] += 1
        if name.startswith(("nuft.", "gradients.")):
            layer = name.split(".")[0]
            counts[k][layer + ".pairs"] += attrs["pairs"]
            if layer == "nuft":
                temp_bytes = max(temp_bytes, attrs["pairs"] * attrs["nodes"] ** 2 * 16)
                key = id(attrs["mesh"])
                if key not in confluent:
                    confluent[key] = confluent_rows(attrs["mesh"], attrs["grid"],
                                                    name.endswith("auxnode"))
                counts[k]["nuft.confluent_rows"] += confluent[key]
        if name == "optimizer.objective" and not attrs["need_grad"]:
            counts[k]["optimizer.candidates"] += 1

    def layer_s(prefixes):
        return [sum((t for name, t in it.items() if name.startswith(prefixes)), 0.0)
                for it in per_iter]

    n = len(windows)
    walls = [end - start for start, end, _ in windows]
    total = Counter()
    for c in counts:
        total.update(c)
    nuft_s, grad_s = layer_s("nuft."), layer_s("gradients.")
    spectral = {key: layer_s(names) for key, names in SPECTRAL.items()}
    optimizer_s = [wall - sum(t for name, t in it.items() if not name.startswith("optimizer."))
                   for wall, it in zip(walls, per_iter)] if fit else [0.0]
    metrics = {
        "nuft.forward_s": _median(nuft_s),
        "nuft.pairs": total["nuft.pairs"] / n,
        "nuft.pairs_per_s": total["nuft.pairs"] / sum(nuft_s),
        "nuft.confluent_frac": total["nuft.confluent_rows"] / total["nuft.pairs"],
        "nuft.temp_mb": temp_bytes / 2 ** 20,
        "gradients.backward_s": _median(grad_s),
        "gradients.pairs_per_s": total["gradients.pairs"] / sum(grad_s),
        "spectral.filter_s": _median(spectral["filter"]),
        "spectral.inverse_s": _median(spectral["inverse"]),
        "spectral.adjoint_s": _median(spectral["adjoint"]),
        "spectral.share": sum(map(sum, spectral.values())) / sum(walls),
        "pipeline.forwards_per_iter": total["pipeline.rasterize"] / n,
        "pipeline.backwards_per_iter": total["pipeline.rasterize_backward"] / n,
        "pipeline.loss_mres_s": _median(layer_s("pipeline.loss_mres")),
        "optimizer.accept_ratio": n / total["optimizer.candidates"] if fit else 0.0,
        "optimizer.self_s": _median(optimizer_s),
        "deform.self_s": _median(layer_s("deform.")),
    }
    rounds = defaultdict(Counter)
    for (_, _, r), c in zip(windows, counts):
        rounds[r].update(c)
    return metrics, [dict(rounds[r]) for r in sorted(rounds)]
