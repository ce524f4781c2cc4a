"""Outside-in tracing of the episode pipeline, and the per-layer metrics
computed from its spans.

While a :class:`Tracer` is installed it replaces the module attributes through
which the pipeline reaches each layer (``fsdc.harness.train_logistic``,
``fsdc.classifiers.softmax_loss_grad``, ``fsdc.rng.PortableRng.normal``, ...)
with wrappers that record one span per call: name, start, end, the enclosing
span and the episode index.  Nothing inside the package changes, and the
originals are put back when the tracer is removed.  Spans stay in memory
until the run writes them out as JSON lines.

Recompute the per-layer metrics from a spans file with::

    python3 perfbench/tracing.py perfbench/out/accept-1shot-seed1-trace1.spans.jsonl
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

import numpy as np


class Tracer:
    """Span recorder for a single-threaded run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, block, episode, attrs]`` in start
        #: order; a span's id is its position, ``parent`` an id or None.
        self.spans: list[list] = []
        #: The ``evaluate`` call under way; episode indices restart in each.
        self.block = None
        self._open: list[int] = []
        self._episode = None
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, attrs=None, episode=None):
        """``fn`` recording a span per call.

        ``attrs(args, result)`` returns the span's attributes; ``episode(args)``
        marks the call as the start of that episode's work.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if episode is not None:
                tracer._episode = episode(args)
            record = [name, 0.0, 0.0,
                      tracer._open[-1] if tracer._open else None,
                      tracer.block, tracer._episode, None]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._open.pop()
            if attrs is not None:
                record[6] = attrs(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original, name))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def install(self, fsdc) -> None:
        """Wrap every layer boundary of the episode pipeline."""
        h = fsdc.harness
        self.patch(h, "sample_episode", "harness.sample_episode",
                   episode=lambda a: a[3])
        self.patch(h, "run_episode", "harness.run_episode",
                   episode=lambda a: a[0].index)
        self.patch(h, "tukey_transform", "transform.tukey")
        self.patch(h, "calibrate_support_set", "calibration.calibrate",
                   attrs=lambda a, out: {"neighbors": [
                       list(d.neighbor_class_ids)
                       for dists in out.values() for d in dists]})
        self.patch(h, "sample_features", "sampling.sample",
                   attrs=lambda a, out: {"draws": int(out[0].shape[0])})
        self.patch(fsdc.sampling, "cholesky_psd", "sampling.cholesky",
                   attrs=lambda a, out: {"shift": float(out[1])})
        self.patch(fsdc.rng.PortableRng, "__init__", "rng.stream")
        self.patch(fsdc.rng.PortableRng, "normal", "rng.normal",
                   attrs=lambda a, out: {"count": int(out.size)})
        self.patch(h, "train_logistic", "classifiers.train",
                   attrs=lambda a, out: {
                       "rows": int(a[0].features.shape[0]),
                       "last_losses": [float(v) for v in out.loss_history[-2:]]})
        # 4*n*d*C: the forward and the backward product, a multiply and an
        # add each, over n rows of d features and C classes
        self.patch(fsdc.classifiers, "softmax_loss_grad", "classifiers.grad",
                   attrs=lambda a, out: {
                       "flops": 4 * a[2].shape[0] * a[2].shape[1] * a[0].shape[0]})
        self.patch(h, "predict", "classifiers.predict")

    def remove(self) -> list[str]:
        """Restore every wrapped attribute; return the names of the spans
        that were installed but never recorded."""
        recorded = {span[0] for span in self.spans}
        missing = []
        while self._patched:
            owner, attr, original, name = self._patched.pop()
            setattr(owner, attr, original)
            if name not in recorded:
                missing.append(name)
        return missing

    def records(self) -> list[dict]:
        """The spans as dicts, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "block": block, "episode": episode,
                 "attrs": attrs}
                for i, (name, start, end, parent, block, episode, attrs)
                in enumerate(self.spans)]


def tail_percentile(n: int) -> float:
    """The highest of 99.9, 99, 90, 75, 50 with at least ten of ``n`` samples
    beyond it; 50 when none has."""
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def layer_metrics(records: list[dict]) -> dict:
    """Per-layer metrics of one traced run, from its span records.

    Times ending in ``_s`` are self times (duration minus child spans) summed
    over the run and divided by the episodes run; counts are per episode
    unless the metric says otherwise.  A traced run covers a fixed set of
    episodes, so ``harness.episodes`` and ``calibration.neighbor_sets`` do
    not depend on how fast the program runs.
    """
    self_s = {}
    for r in records:
        self_s[r["id"]] = r["end"] - r["start"]
    for r in records:
        if r["parent"] is not None:
            self_s[r["parent"]] -= r["end"] - r["start"]
    by_name: dict[str, list[dict]] = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r)

    def spans(name):
        return by_name.get(name, [])

    def self_total(name):
        return sum(self_s[r["id"]] for r in spans(name))

    def attr_total(name, key):
        return sum(r["attrs"][key] for r in spans(name))

    episodes = spans("harness.run_episode")
    count = len(episodes)
    per_ep = 1.0 / count if count else 0.0
    episode_s = [r["end"] - r["start"] for r in episodes]
    neighbor_sets = {tuple(t) for r in spans("calibration.calibrate")
                     for t in r["attrs"]["neighbors"]}
    distributions = sum(len(r["attrs"]["neighbors"])
                        for r in spans("calibration.calibrate"))
    grad_s = self_total("classifiers.grad")
    losses = [r["attrs"]["last_losses"] for r in spans("classifiers.train")]

    def median_of(name):
        values = [r["end"] - r["start"] for r in spans(name)]
        return statistics.median(values) if values else 0.0

    return {
        "harness.episode_s.p50":
            float(np.percentile(episode_s, 50)) if count else 0.0,
        "harness.episode_s.tail":
            float(np.percentile(episode_s, tail_percentile(count)))
            if count else 0.0,
        "harness.episodes": count,
        "harness.sample_episode_s": self_total("harness.sample_episode") * per_ep,
        "harness.other_frac":
            self_total("harness.run_episode") / sum(episode_s) if count else 0.0,
        "transform.tukey_s": self_total("transform.tukey") * per_ep,
        "transform.calls": len(spans("transform.tukey")) * per_ep,
        "calibration.calibrate_s": self_total("calibration.calibrate") * per_ep,
        "calibration.distributions": distributions * per_ep,
        "calibration.neighbor_sets": len(neighbor_sets),
        "calibration.repeat_frac":
            1.0 - len(neighbor_sets) / distributions if distributions else 0.0,
        "sampling.sample_s": self_total("sampling.sample") * per_ep,
        "sampling.cholesky_s": self_total("sampling.cholesky") * per_ep,
        "sampling.cholesky_calls": len(spans("sampling.cholesky")) * per_ep,
        "sampling.jitter_calls":
            sum(r["attrs"]["shift"] > 0 for r in spans("sampling.cholesky"))
            * per_ep,
        "sampling.draws": attr_total("sampling.sample", "draws") * per_ep,
        "rng.normal_s": self_total("rng.normal") * per_ep,
        "rng.normals": attr_total("rng.normal", "count") * per_ep,
        "rng.stream_s": self_total("rng.stream") * per_ep,
        "rng.streams": len(spans("rng.stream")) * per_ep,
        "classifiers.train_s": self_total("classifiers.train") * per_ep,
        "classifiers.grad_s": grad_s * per_ep,
        "classifiers.grad_calls": len(spans("classifiers.grad")) * per_ep,
        "classifiers.train_rows": attr_total("classifiers.train", "rows") * per_ep,
        "classifiers.grad_gflop_s":
            attr_total("classifiers.grad", "flops") / grad_s / 1e9
            if grad_s else 0.0,
        "classifiers.final_loss":
            statistics.median(h[-1] for h in losses) if losses else 0.0,
        "classifiers.last_delta":
            statistics.median(h[0] - h[-1] for h in losses) if losses else 0.0,
        "classifiers.predict_s": self_total("classifiers.predict") * per_ep,
        "features_io.load_s": median_of("features_io.load"),
        "features_io.bytes":
            spans("features_io.load")[0]["attrs"]["bytes"]
            if spans("features_io.load") else 0,
        "stats.build_s": median_of("stats.build"),
        "stats.classes":
            spans("stats.build")[0]["attrs"]["classes"]
            if spans("stats.build") else 0,
    }


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: tracing.py SPANS.jsonl")
    for key, value in layer_metrics(read_spans(sys.argv[1])).items():
        print(f"{key} {value:.6g}")
