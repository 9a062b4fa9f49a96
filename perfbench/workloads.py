"""The benchmark's workloads: seeded inputs, the measured command loop and output checks.

Every workload drives the real CLI in-process through ``speechq.cli.main``.
The program sees only the WAVs, manifests, configs and checkpoints that
set-up generates from the workload seed.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from speechq import cli, config, data, diffcore, labels, losses, model, signal, train
from tracing import Tracer, clock, layer_metrics

SQ = {
    "cli": cli,
    "config": config,
    "data": data,
    "diffcore": diffcore,
    "labels": labels,
    "losses": losses,
    "model": model,
    "signal": signal,
    "train": train,
}

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)
TOL = REFERENCE["tolerance"]

# The canary inputs are fixed, so their outputs can be checked against the
# values recorded in reference.json whatever seed the workload runs with.
CANARY_SEED = 0
# The trace self-check bound on (sum of span self times) / (traced wall time).
COVERAGE_RANGE = (0.9, 1.1)

# The acceptance-test `_small_run` model. An empty model section means the
# paper-scale defaults of ModelConfig (8.87M parameters, 100 classes).
SMALL_MODEL = """
[model]
bottleneck_channels = 32
conv_channels = 64
blocks_per_repeat = 4
repeats = 1
n_classes = 20

[quantizer]
n_classes = 20
"""

TRAIN_RUN = """
[training]
batch_size = {batch_size}
crop_seconds = {crop_seconds}
max_steps = {steps}
val_every = {val_every}
seed = {seed}

[simulate]
count = {entries}
duration_seconds = {entry_seconds}
seed = {seed}

[data]
manifest = data/manifest.tsv
"""

SIMULATE_ONE = """
[simulate]
count = 1
duration_seconds = {seconds}
seed = {seed}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" runs `speechq train`, "score" runs `speechq predict --dist`
    model: str = ""
    batch_size: int = 0
    crop_seconds: float = 0.0
    steps: int = 0  # optimizer steps per train command
    val_every: int = 0
    entries: int = 0  # simulated training entries
    entry_seconds: float = 0.0
    durations: tuple = ()  # seconds of audio in each scored WAV

    @property
    def audio_seconds(self) -> float:
        """Audio one command processes: training crops, or the scored WAVs."""
        if self.kind == "train":
            return self.batch_size * self.crop_seconds * self.steps
        return float(sum(self.durations))

    @property
    def items(self) -> int:
        """Work items one command completes: training examples, or files."""
        return self.batch_size * self.steps if self.kind == "train" else len(self.durations)

    @property
    def units(self) -> int:
        """Outcomes one command is checked on: optimizer steps, or files."""
        return self.steps if self.kind == "train" else len(self.durations)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-small", "train", SMALL_MODEL,
            batch_size=8, crop_seconds=0.5, steps=30, val_every=10, entries=64, entry_seconds=0.5,
        ),
        Workload(
            "train-paper", "train",
            batch_size=4, crop_seconds=1.0, steps=3, val_every=3, entries=16, entry_seconds=1.5,
        ),
        # A fixed multiset of durations, so every seed does the same amount of work.
        Workload("score-mixed", "score", durations=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)),
    )
}

# Reduced sizes of each workload with the same model: the canary whose
# outputs are checked against reference.json, and the self-tests' smoke runs.
SMALL = {
    "train-small": replace(WORKLOADS["train-small"], steps=4, val_every=2, entries=8),
    "train-paper": replace(
        WORKLOADS["train-paper"], batch_size=2, crop_seconds=0.25, steps=2, val_every=2,
        entries=2, entry_seconds=0.5,
    ),
    "score-mixed": replace(WORKLOADS["score-mixed"], durations=(0.5, 1.0)),
}


@dataclass
class Inputs:
    run: config.RunConfig
    config_path: str = ""
    checkpoint: str = ""
    wavs: list = field(default_factory=list)
    skeleton: dict = field(default_factory=dict)  # parameter shapes every checkpoint must have

    def prepare_checks(self):
        self.skeleton = {name: t.values.shape for name, t in model.init_params(self.run.model).items()}
        return self


@dataclass
class Rep:
    """One measured command."""

    wall: float
    failed: int
    gaps: list
    problems: list
    traced: bool
    outputs: object = None  # train: final total loss; score: [(expect, max, dist)]


# ---------------------------------------------------------------------------
# running the CLI


class LineClock(io.TextIOBase):
    """A stdout stand-in that stamps the clock at every completed line."""

    def __init__(self):
        self._parts: list[str] = []
        self.stamps: list[float] = []

    def writable(self):
        return True

    def write(self, s):
        self._parts.append(s)
        lines = s.count("\n")
        if lines:
            now = clock()
            self.stamps.extend([now] * lines)
        return len(s)

    def text(self) -> str:
        return "".join(self._parts)


def run_cli(argv, tracer: Tracer | None = None):
    """Run one CLI command in-process: (exit code, wall s, stdout, stderr, line stamps).

    With a tracer, its wrappers are installed for this command only.
    """
    out, err = LineClock(), io.StringIO()
    if tracer:
        tracer.install(SQ)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = clock()
            try:
                code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
            except Exception:  # an uncaught error is a failed command, not a crashed benchmark
                code = -1
                err.write(traceback.format_exc())
            wall = clock() - start
    finally:
        if tracer:
            tracer.uninstall()
    return code, wall, out.text(), err.getvalue(), out.stamps


def _cli_ok(argv):
    code, _wall, _out, err, _stamps = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"speechq {argv[0]} exited with {code}: {err.strip()}")


@contextlib.contextmanager
def step_clock(stamps: list):
    """Stamp the clock at every return of ``diffcore.Adam.step``."""
    original = diffcore.Adam.step

    def step(self):
        original(self)
        stamps.append(clock())

    diffcore.Adam.step = step
    try:
        yield
    finally:
        diffcore.Adam.step = original


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_run(text) -> config.RunConfig:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return config.RunConfig.from_parser(parser)


# ---------------------------------------------------------------------------
# set-up


def setup(spec: Workload, seed: int, work: str) -> Inputs:
    """Generate a workload's inputs from its seed under ``work``."""
    os.makedirs(work)
    if spec.kind == "train":
        path = os.path.join(work, "run.ini")
        _write(
            path,
            spec.model
            + TRAIN_RUN.format(
                batch_size=spec.batch_size, crop_seconds=spec.crop_seconds, steps=spec.steps,
                val_every=spec.val_every, seed=seed, entries=spec.entries,
                entry_seconds=spec.entry_seconds,
            ),
        )
        _cli_ok(["simulate", "--config", path, "--out", os.path.join(work, "data")])
        return Inputs(run=_parse_run(spec.model), config_path=path)

    wavs = []
    for i, seconds in enumerate(spec.durations):
        path = os.path.join(work, f"sim{i}.ini")
        out = os.path.join(work, f"sim{i}")
        _write(path, spec.model + SIMULATE_ONE.format(seconds=seconds, seed=seed * 1000 + i))
        _cli_ok(["simulate", "--config", path, "--out", out])
        with open(os.path.join(out, "manifest.tsv"), encoding="utf-8") as fh:
            wavs.append(os.path.join(out, fh.read().splitlines()[1].split("\t")[0]))
    run = _parse_run(spec.model)
    checkpoint = os.path.join(work, "model.ckpt")
    write_score_checkpoint(checkpoint, run, seed)
    return Inputs(run=run, checkpoint=checkpoint, wavs=wavs)


def write_score_checkpoint(path, run: config.RunConfig, seed: int):
    """A checkpoint with every weight seeded, the quality head included.

    ``init_params`` starts the quality head at zero (uniform distribution);
    a seeded head makes the scored distributions informative.
    """
    params = model.init_params(run.model, seed=seed)
    rng = np.random.default_rng([seed, 1])
    bound = 1.0 / math.sqrt(run.model.bottleneck_channels)
    for name in ("quality.w", "quality.b"):
        values = params[name].values
        values[...] = rng.uniform(-bound, bound, size=values.shape)
    train.save_run_checkpoint(path, run.model, run.quantizer, params)


# ---------------------------------------------------------------------------
# output checks


LOG_LINE = re.compile(r"step=(\d+) td_mse=(\S+) emd2=(\S+) total=(\S+)")


def check_train_log(text: str, steps: int):
    """Check a train_log.txt: (problems, failed steps, final total or None).

    A step fails when its line is missing, duplicated, unparsable or holds
    a non-finite td_mse, emd2 or total.
    """
    problems, totals = [], {}
    for line in text.splitlines():
        m = LOG_LINE.match(line)
        if not m:
            problems.append(f"unparsable log line {line!r}")
            continue
        step = int(m.group(1))
        values = [float(v) for v in m.group(2, 3, 4)]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"step {step}: non-finite loss in {line!r}")
        elif not 1 <= step <= steps or step in totals:
            problems.append(f"unexpected log line for step {step}")
        else:
            totals[step] = values[2]
    if len(totals) < steps:
        problems.append(f"{steps - len(totals)} of {steps} steps have no valid log line")
    return problems, steps - len(totals), totals.get(steps)


def check_checkpoint(path, run: config.RunConfig, skeleton: dict, steps: range):
    """Reload a training checkpoint through train.load_run_checkpoint."""
    try:
        cfg, quant, params, opt_arrays, step = train.load_run_checkpoint(path)
    except Exception as exc:  # a truncated file raises struct.error, for one
        return [f"{path}: reload failed: {exc!r}"]
    problems = []
    if cfg.to_dict() != run.model.to_dict() or (quant.n_classes, quant.pad) != (
        run.quantizer.n_classes,
        run.quantizer.pad,
    ):
        problems.append(f"{path}: configuration differs from the run's")
    if {name: t.values.shape for name, t in params.items()} != skeleton:
        problems.append(f"{path}: parameter names or shapes differ from init_params")
    if not opt_arrays:
        problems.append(f"{path}: no optimizer state")
    if step not in steps:
        problems.append(f"{path}: step {step} outside {steps.start}..{steps.stop - 1}")
    arrays = [t.values for t in params.values()] + list(opt_arrays.values())
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append(f"{path}: non-finite values")
    return problems


def _print_error(text: str) -> float:
    """Largest rounding error of a number printed with ``%.6g``."""
    v = abs(float(text))
    return 0.5 * 10.0 ** (math.floor(math.log10(v)) - 5) if v > 0 else 0.0


def check_predict_output(text: str, wavs: list, quant: labels.QuantizerConfig):
    """Check `predict --dist` output: (problems, failed files, [(expect, max, dist)]).

    Each file needs one line, in order, with both scores in [-0.5, 4.5], a
    distribution of non-negative entries summing to 1 and an expectation
    score that matches the distribution. The sum and expectation tolerances
    are 1e-9 and 1e-6 on top of the rounding of the printed digits.
    """
    lines = text.splitlines()
    problems, outputs, failed = [], [], 0
    if len(lines) != len(wavs):
        problems.append(f"{len(lines)} output lines for {len(wavs)} files")
    mids = quant.midpoints()
    for i, wav in enumerate(wavs):
        line = lines[i] if i < len(lines) else ""
        fields = line.split("\t")
        try:
            if len(fields) != 4 or fields[0] != wav:
                raise ValueError(f"line {i + 1} does not have the file's path and 3 fields")
            expect, best = float(fields[1]), float(fields[2])
            printed = fields[3].split(",")
            dist = np.array([float(p) for p in printed])
            slack = np.array([_print_error(p) for p in printed])
            for score in (expect, best):
                if not labels.SCORE_LO <= score <= labels.SCORE_HI:  # also rejects nan
                    raise ValueError(f"score {score} outside [-0.5, 4.5]")
            if dist.shape != mids.shape or not np.all(dist >= 0):
                raise ValueError("distribution has the wrong length or negative entries")
            if abs(dist.sum() - 1.0) > slack.sum() + 1e-9:
                raise ValueError(f"distribution sums to {dist.sum()!r}")
            implied = float(np.clip(dist @ mids, labels.SCORE_LO, labels.SCORE_HI))
            if abs(implied - expect) > slack @ np.abs(mids) + 1e-6:
                raise ValueError(f"expectation score {expect} disagrees with the distribution ({implied})")
        except ValueError as exc:
            problems.append(f"{wav}: {exc}")
            failed += 1
            continue
        outputs.append((expect, best, dist))
    return problems, failed, outputs


def compare_outputs(kind: str, got, want) -> list:
    """Compare one command's outputs with a reference run's, within TOL."""
    if kind == "train":
        if got is None or want is None or not math.isclose(got, want, rel_tol=TOL["train_loss_rtol"]):
            return [f"final total loss {got!r} differs from reference {want!r}"]
        return []
    if len(got) != len(want):
        return [f"{len(got)} scored files, reference has {len(want)}"]
    problems = []
    for i, ((e, m, dist), (re_, rm, rdist)) in enumerate(zip(got, want)):
        if max(abs(e - re_), abs(m - rm)) > TOL["score_abs"]:
            problems.append(f"file {i}: scores {e}, {m} differ from reference {re_}, {rm}")
        if np.max(np.abs(np.asarray(dist) - np.asarray(rdist))) > TOL["dist_abs"]:
            problems.append(f"file {i}: distribution differs from reference")
    return problems


# ---------------------------------------------------------------------------
# one measured command


def run_command(spec: Workload, inputs: Inputs, out: str, tracer: Tracer | None, stamps: list) -> Rep:
    """Run one measured command and check its outputs."""
    first = len(stamps)
    if spec.kind == "train":
        argv = ["train", "--config", inputs.config_path, "--out", out]
    else:
        argv = ["predict", "--checkpoint", inputs.checkpoint, "--dist", *inputs.wavs]
    code, wall, text, err, lines = run_cli(argv, tracer)
    # Step time: gaps between Adam.step returns, or between predict output lines.
    gaps = np.diff(stamps[first:] if spec.kind == "train" else lines).tolist()
    if code != 0:
        return Rep(wall, spec.units, gaps, [f"exit code {code}: {err.strip()[-400:]}"], tracer is not None)

    if spec.kind == "score":
        problems, failed, outputs = check_predict_output(text, inputs.wavs, inputs.run.quantizer)
        return Rep(wall, failed, gaps, problems, tracer is not None, outputs)

    with open(os.path.join(out, "train_log.txt"), encoding="utf-8") as fh:
        problems, failed, final = check_train_log(fh.read(), spec.steps)
    ckpt_problems = check_checkpoint(
        os.path.join(out, "final.ckpt"), inputs.run, inputs.skeleton, range(spec.steps, spec.steps + 1)
    ) + check_checkpoint(
        os.path.join(out, "best.ckpt"), inputs.run, inputs.skeleton, range(1, spec.steps + 1)
    )
    if ckpt_problems:
        problems += ckpt_problems
        failed = spec.steps
    return Rep(wall, failed, gaps, problems, tracer is not None, final)


# ---------------------------------------------------------------------------
# a whole run


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    info: dict
    tracer: Tracer | None = None


def _quantiles(values, points=(50, 90, 99)) -> dict:
    """Median and the highest percentiles with at least ten samples beyond them."""
    out = {"n": len(values)}
    for p in points:
        if p == 50 or len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = float(np.percentile(values, p))
    return out


def canary(name: str, work: str):
    """Run the fixed-seed reduced workload once; (problems, outputs)."""
    spec = SMALL[name]
    inputs = setup(spec, CANARY_SEED, work).prepare_checks()
    stamps: list = []
    with step_clock(stamps):
        rep = run_command(spec, inputs, os.path.join(work, "out"), None, stamps)
    return rep.problems, rep.outputs


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: str,
    import_s: float = 0.0,
    setup_reps: int = 3,
    spec: Workload | None = None,
    check_reference: bool = True,
) -> Result:
    """Set up, measure for ``seconds`` and check one workload.

    A traced run alternates untraced and traced commands, so the tracing
    overhead is measured on the same inputs in the same process.
    """
    spec = spec or WORKLOADS[name]
    os.makedirs(work)
    try:
        setup_times = []
        for k in range(setup_reps):
            start = clock()
            inputs_k = setup(spec, seed, os.path.join(work, f"setup{k}"))
            setup_times.append(clock() - start)
            if k == 0:
                inputs = inputs_k
        setup_s = import_s + statistics.median(setup_times)
        inputs.prepare_checks()

        stamps: list = []
        reps: list[Rep] = []
        tracer = Tracer() if trace else None
        started = clock()
        with step_clock(stamps):
            # A round is one command, or an untraced and a traced one. Start
            # another round only while it is expected to end within `seconds`.
            while True:
                for traced in (False, True) if trace else (False,):
                    out = os.path.join(work, f"rep{len(reps)}")
                    reps.append(run_command(spec, inputs, out, tracer if traced else None, stamps))
                    shutil.rmtree(out, ignore_errors=True)
                elapsed = clock() - started
                rounds = len(reps) // (2 if trace else 1)
                if elapsed * (rounds + 1) / rounds > seconds:
                    break
        measured_s = clock() - started

        problems = [p for r in reps for p in r.problems]
        attempted = len(reps) * spec.units
        failed = sum(r.failed for r in reps)
        # Every command of a run has the same inputs, so the same outputs.
        for r in reps[1:]:
            if r.failed == 0 and reps[0].failed == 0:
                diff = compare_outputs(spec.kind, r.outputs, reps[0].outputs)
                if diff:
                    problems += diff
                    failed += spec.units

        if check_reference:
            attempted += 1
            ref_problems, ref_outputs = canary(name, os.path.join(work, "canary"))
            if not ref_problems:
                ref_problems = compare_outputs(spec.kind, ref_outputs, decode_reference(name))
            if ref_problems:
                problems += [f"reference check: {p}" for p in ref_problems]
                failed += 1

        plain = [r for r in reps if not r.traced]
        wall = sum(r.wall for r in plain)
        gaps = [g for r in plain for g in r.gaps]
        info = {
            "workload": name,
            "seed": seed,
            "commands": len(plain),
            "measured_s": measured_s,
            "command_wall_s": wall,
            "command_walls_s": [r.wall for r in plain],
            "setup_reps_s": setup_times,
            "step_ms": _quantiles([g * 1000.0 for g in gaps]) if gaps else {"n": 0},
        }
        if spec.kind == "train":
            info["train_loss_final"] = reps[0].outputs
        if trace:
            traced_reps = [r for r in reps if r.traced]
            metrics = layer_metrics(
                tracer, len(traced_reps), sum(r.wall for r in traced_reps), wall
            )
            attempted += 1
            lo, hi = COVERAGE_RANGE
            if not lo <= metrics["trace.coverage"] <= hi:
                problems.append(f"trace.coverage {metrics['trace.coverage']:.3f} outside {lo}-{hi}")
                failed += 1
            info["spans"] = len(tracer.spans)
        else:
            metrics = {
                "setup_s": setup_s,
                "items_per_s": spec.items * len(plain) / wall,
                "step_ms_p50": statistics.median(gaps) * 1000.0 if gaps else float("nan"),
                "rtf": wall / (spec.audio_seconds * len(plain)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        info["failed_ratio"] = failed / attempted
        return Result(metrics, attempted, failed, problems, info, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def decode_reference(name: str):
    ref = REFERENCE[name]
    if "train_loss_final" in ref:
        return ref["train_loss_final"]
    return [(e, m, np.array(d)) for e, m, d in ref["scores"]]
