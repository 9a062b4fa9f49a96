"""Span tracer that attributes time to speechq's layers from outside the program.

Each public function is replaced on the module (or class) where its caller
looks it up, so ``speechq.cli.load_wav`` and ``speechq.data.load_wav`` are
wrapped separately around the same original. Every ``Tensor`` an op returns
gets its ``_vjp`` closure wrapped too, so backward time lands on the op kind
that recorded it. Spans are kept in memory as ``[name, start, end, parent]``
and aggregated (or written out) when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

clock = time.perf_counter

# The op kinds reported one by one; every other public diffcore function that
# returns a Tensor is pooled under "other_ops".
OP_KINDS = (
    "conv1d_pointwise",
    "conv1d_depthwise_dilated",
    "prelu",
    "batch_norm",
    "istft_synthesis",
    "complex_mask_apply",
)
NOT_OPS = {
    "parameter",
    "constant",
    "as_tensor",
    "backward",
    "zero_grads",
    "gradient_check",
    "save_checkpoint",
    "load_checkpoint",
}
SIGNAL_PATH_OPS = ("istft_synthesis", "complex_mask_apply")


class Tracer:
    """Records nested spans and per-layer counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.graph_bytes_peak = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._graph_bytes: float | None = None

    # -- span recording ---------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        rec = [name, clock(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = clock()
            self._stack.pop()

    def patch(self, owner, attr, name, before=None, after=None):
        """Wrap ``owner.attr`` in a span named ``name``; undone by :meth:`uninstall`."""
        raw = vars(owner)[attr]
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            out = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out

        bound_to_class = isinstance(raw, (classmethod, staticmethod))
        setattr(owner, attr, staticmethod(wrapper) if bound_to_class else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- installation on speechq ------------------------------------------

    def install(self, sq):
        """Wrap the public functions of every speechq layer.

        ``sq`` maps module names (cli, config, data, diffcore, labels,
        losses, model, signal, train) to the imported modules.
        """
        dc = sq["diffcore"]
        for attr, fn in sorted(vars(dc).items()):
            if (
                attr.startswith("_")
                or attr in NOT_OPS
                or not inspect.isfunction(fn)
                or fn.__module__ != dc.__name__
            ):
                continue
            kind = attr if attr in OP_KINDS else "other_ops"
            self.patch(dc, attr, f"diffcore.{kind}.fwd", after=self._op_after(dc, kind))
        self.patch(dc, "backward", "diffcore.backward")
        self.patch(dc.Adam, "step", "diffcore.Adam.step")
        self.patch(dc, "save_checkpoint", "diffcore.save_checkpoint", before=self._count_saved)
        self.patch(dc, "load_checkpoint", "diffcore.load_checkpoint", after=self._count_loaded)

        for owner in (sq["signal"], sq["data"], sq["cli"]):
            self.patch(owner, "load_wav", "signal.load_wav")
        self.patch(sq["signal"], "stft", "signal.stft")
        self.patch(sq["signal"], "lps", "signal.lps")

        model = sq["model"]
        self.patch(model, "forward_graph", "model.forward_graph", before=self._graph_start, after=self._graph_end)
        self.patch(model, "conv_block", "model.conv_block")
        self.patch(model, "init_params", "model.init_params")
        self.patch(model, "forward", "model.forward")
        self.patch(sq["losses"], "emd2", "losses.emd2")
        self.patch(sq["losses"], "td_mse", "losses.td_mse")
        self.patch(sq["labels"], "decode_expect", "labels.decode_expect")
        self.patch(sq["labels"], "decode_max", "labels.decode_max")

        train = sq["train"]
        self.patch(train, "save_run_checkpoint", "train.save_run_checkpoint")
        for owner in (train, sq["cli"]):
            self.patch(owner, "load_run_checkpoint", "train.load_run_checkpoint")
        self.patch(sq["cli"], "run_training", "train.run_training")
        self.patch(sq["config"].RunConfig, "from_file", "config.RunConfig.from_file")
        self.patch(
            sq["data"],
            "load_manifest",
            "data.load_manifest",
            after=lambda out, a, k: self._add("data.load_manifest.files", len(out)),
        )

    # -- counters -----------------------------------------------------------

    def _add(self, key, value):
        self.counters[key] += value

    def _op_after(self, dc, kind):
        def after(out, args, kwargs):
            if not isinstance(out, dc.Tensor):
                return
            self._add(f"diffcore.{kind}.bytes_out", out.values.nbytes)
            flops = 0
            if kind == "conv1d_pointwise":
                batch, c_in, frames = args[0].shape
                flops = 2 * batch * frames * c_in * args[1].shape[0]
                self._add("diffcore.conv1d_pointwise.flops", flops)
            if out._vjp is None:
                return
            if self._graph_bytes is not None:
                self._graph_bytes += out.values.nbytes
            vjp = out._vjp
            name = f"diffcore.{kind}.bwd"

            def timed_vjp(g):
                if flops:
                    self._add("diffcore.conv1d_pointwise.flops", 2 * flops)
                return self.call(name, vjp, g)

            out._vjp = timed_vjp

        return after

    def _count_saved(self, args, kwargs):
        arrays = args[1] if len(args) > 1 else kwargs["arrays"]
        self._add("diffcore.save_checkpoint.bytes", sum(a.nbytes for a in arrays.values()))

    def _count_loaded(self, out, args, kwargs):
        self._add("diffcore.load_checkpoint.bytes", sum(a.nbytes for a in out[0].values()))

    def _graph_start(self, args, kwargs):
        self._graph_bytes = 0.0

    def _graph_end(self, out, args, kwargs):
        self.graph_bytes_peak = max(self.graph_bytes_peak, self._graph_bytes)
        self._graph_bytes = None

    # -- reporting ----------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def span_totals(spans):
    """Per span name: (calls, inclusive seconds, self seconds)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - covered[i]
    return calls, total, own


def layer_metrics(tracer: Tracer, commands: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics per traced command, named ``<module>.<function>.<quantity>``.

    ``traced_wall`` and ``untraced_wall`` are summed over the same number of
    traced and untraced commands.
    """
    calls, total, own = span_totals(tracer.spans)
    per = 1.0 / commands
    m: dict[str, float] = {}
    for kind in OP_KINDS + ("other_ops",):
        fwd = f"diffcore.{kind}.fwd"
        m[f"diffcore.{kind}.calls"] = calls[fwd] * per
        m[f"diffcore.{kind}.fwd_s"] = own[fwd] * per
        m[f"diffcore.{kind}.bwd_s"] = own[f"diffcore.{kind}.bwd"] * per
        m[f"diffcore.{kind}.bytes_out"] = tracer.counters[f"diffcore.{kind}.bytes_out"] * per
    pw_s = m["diffcore.conv1d_pointwise.fwd_s"] + m["diffcore.conv1d_pointwise.bwd_s"]
    pw_flops = tracer.counters["diffcore.conv1d_pointwise.flops"] * per
    m["diffcore.conv1d_pointwise.flops"] = pw_flops
    m["diffcore.conv1d_pointwise.gflops_per_s"] = pw_flops / pw_s / 1e9 if pw_s > 0 else 0.0

    m["signal.stft.calls"] = calls["signal.stft"] * per
    m["signal.stft.s"] = total["signal.stft"] * per
    m["signal.lps.s"] = total["signal.lps"] * per
    m["signal.load_wav.calls"] = calls["signal.load_wav"] * per
    m["signal.load_wav.s"] = total["signal.load_wav"] * per

    m["diffcore.backward.self_s"] = own["diffcore.backward"] * per
    m["train.run_training.self_s"] = own["train.run_training"] * per
    m["diffcore.Adam.step.calls"] = calls["diffcore.Adam.step"] * per
    m["diffcore.Adam.step.s"] = total["diffcore.Adam.step"] * per
    m["diffcore.save_checkpoint.calls"] = calls["diffcore.save_checkpoint"] * per
    m["diffcore.save_checkpoint.s"] = total["diffcore.save_checkpoint"] * per
    m["diffcore.save_checkpoint.bytes"] = tracer.counters["diffcore.save_checkpoint.bytes"] * per
    m["diffcore.load_checkpoint.s"] = total["diffcore.load_checkpoint"] * per
    m["diffcore.load_checkpoint.bytes"] = tracer.counters["diffcore.load_checkpoint.bytes"] * per
    m["diffcore.graph_bytes_peak"] = tracer.graph_bytes_peak

    for name in (
        "model.forward_graph",
        "model.conv_block",
        "model.init_params",
        "model.forward",
        "losses.emd2",
        "losses.td_mse",
        "labels.decode_expect",
        "labels.decode_max",
        "train.load_run_checkpoint",
        "train.save_run_checkpoint",
        "config.RunConfig.from_file",
        "data.load_manifest",
    ):
        m[f"{name}.s"] = total[name] * per
    m["data.load_manifest.files"] = tracer.counters["data.load_manifest.files"] * per
    m["cli.main.self_s"] = own["cli.main"] * per

    wall = traced_wall * per
    signal_path = m["signal.stft.s"] + m["signal.lps.s"] + sum(
        m[f"diffcore.{k}.fwd_s"] + m[f"diffcore.{k}.bwd_s"] for k in SIGNAL_PATH_OPS
    )
    m["diffcore.conv1d_pointwise.share"] = pw_s / wall
    m["signal.path.share"] = signal_path / wall
    m["trace.untraced_wall_s"] = untraced_wall * per
    m["trace.overhead_s"] = wall - untraced_wall * per
    m["trace.coverage"] = sum(own.values()) * per / wall
    return m
