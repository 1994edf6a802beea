"""Traced run: timing wrappers installed from outside on gbmtails' public
names, and the in-process worker that runs one workload sequence through
``gbmtails.cli.main``.

Each wrapper replaces a name in the namespace that calls it (for example
``gbmtails.cli.compare_models`` for the ``fit`` command and
``gbmtails.agents.compare_models`` inside ``run_hia``), so no file of the
program changes. Spans (name, start, end, parent, run id) stay in memory and
are written out once, when the sequence has ended. The run id is the index of
the command in the sequence.

run.py starts this file as a script, once without wrappers and once with
them, so the difference between the two walls is the tracing overhead:

    python perfbench/tracing.py --workload W --seed S --workdir D --wrap 1 --out R.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, run id]
        self.counts = Counter()
        self.run = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def timed(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, _bind(fn, args, kwargs), result)
            return result

        return wrapper

    def counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pool(self, cls):
        """Subclass of a pool executor whose ``with`` block is one span."""
        tracer = self

        class TracedPool(cls):
            def __enter__(self):
                self._span = tracer.span("cli.pool")
                self._span.__enter__()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    self._span.__exit__(None, None, None)

        return TracedPool


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counters, called with (counts, bound arguments, result) after the call.
def _count_take(c, a, r):
    c["rng.streams_keyed"] += int(a["n"])


def _count_batch(c, a, r):
    c["killing.kernel_bytes_computed"] += int(a["n"]) * 4 * 8  # 2 uniforms in, 2 floats out


def _count_csv(c, a, r):
    c["killing.csv_bytes"] += a["fh"].tell()  # the writer owns a fresh file


def _count_fit(c, a, r):
    c["fitting.compare_models_calls"] += 1
    c["fitting.compare_models_n"] += len(a["samples"])
    c["fitting.fits_attempted"] += len(r.fits) + len(r.errors)
    c["fitting.fits_ok"] += len(r.fits)


def _count_hia(c, a, r):
    params = a["params"]
    c["agents.agent_steps"] += params.n_agents * (params.steps + 1)


def _count_sha(c, a, r):
    c["serialization.sha256_bytes"] += os.path.getsize(a["path"])


# (module, attribute, span name, counter). A span name of None counts calls only.
WRAPS = (
    ("gbmtails.rng", "StreamUniformBlock.take", "rng.block_take", _count_take),
    ("gbmtails.cli", "sample_killed_batch", "killing.batch", _count_batch),
    ("gbmtails.cli", "write_batch_csv_fh", "killing.csv_write", _count_csv),
    ("gbmtails.cli", "sample_terminal_levels", "sde.terminal_levels", None),
    ("gbmtails.cli", "compare_models", "fitting.compare_models", _count_fit),
    ("gbmtails.agents", "compare_models", "fitting.compare_models", _count_fit),
    ("gbmtails.fitting", "fit_dpareto_mle", "fitting.dpareto_mle", None),
    ("gbmtails.fitting", "fit_lognormal", "fitting.lognormal", None),
    ("gbmtails.fitting", "hill_estimator", "fitting.hill", None),
    ("gbmtails.cli", "read_sample_csv", "fitting.read_sample_csv", None),
    ("gbmtails.cli", "write_sample_csv_fh", "fitting.sample_csv_write", None),
    ("gbmtails.fitting", "dpareto_cdf", "dpareto.cdf", None),
    ("gbmtails.cli", "exponent_curves", "dpareto.exponent_curves", None),
    ("gbmtails.cli", "limit_table", "dpareto.limit_table", None),
    ("gbmtails.cli", "solve_exponents_canonical", None, "dpareto.solver_calls"),
    ("gbmtails.dpareto", "solve_exponents_canonical", None, "dpareto.solver_calls"),
    ("gbmtails.cli", "run_hia", "agents.run_hia", _count_hia),
    ("gbmtails.agents", "run_hia", "agents.run_hia", _count_hia),
    ("gbmtails.agents", "init_population", "agents.init", None),
    ("gbmtails.agents", "step_population", "agents.step", None),
    ("gbmtails.agents", "spearmanr", "agents.spearman", None),
    ("gbmtails.cli", "sha256_file", "serialization.sha256", _count_sha),
    ("gbmtails.cli", "atomic_write_text", "serialization.atomic_write", None),
    ("gbmtails.cli", "dumps", "serialization.dumps", None),
    ("gbmtails.cli", "ProcessPoolExecutor", "cli.pool", None),
)


def install(tracer: Tracer) -> list:
    """Install every wrapper; return the targets that no longer exist."""
    missing = []
    for module_name, attr, name, count in WRAPS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except AttributeError:
            missing.append(f"{module_name}.{attr}")
            continue
        if name == "cli.pool":
            new = tracer.pool(fn)
        elif name is None:
            new = tracer.counted(fn, count)
        else:
            new = tracer.timed(fn, name, count)
        setattr(owner, leaf, new)
    return missing


# Per-layer metric -> (span name, "self" or "total"). Self time is the span
# minus its child spans; kernels report self time so they exclude the RNG
# block they call, containers report their total.
SPAN_METRICS = {
    "rng.block_take_s": ("rng.block_take", "total"),
    "killing.batch_s": ("killing.batch", "self"),
    "killing.csv_write_s": ("killing.csv_write", "total"),
    "sde.terminal_levels_s": ("sde.terminal_levels", "self"),
    "cli.pool_s": ("cli.pool", "total"),
    "fitting.compare_models_s": ("fitting.compare_models", "total"),
    "fitting.dpareto_mle_s": ("fitting.dpareto_mle", "total"),
    "fitting.lognormal_s": ("fitting.lognormal", "total"),
    "fitting.hill_s": ("fitting.hill", "total"),
    "fitting.read_sample_csv_s": ("fitting.read_sample_csv", "total"),
    "fitting.sample_csv_write_s": ("fitting.sample_csv_write", "total"),
    "dpareto.exponent_curves_s": ("dpareto.exponent_curves", "total"),
    "dpareto.limit_table_s": ("dpareto.limit_table", "total"),
    "dpareto.cdf_s": ("dpareto.cdf", "total"),
    "agents.run_hia_s": ("agents.run_hia", "total"),
    "agents.step_s": ("agents.step", "total"),
    "agents.init_s": ("agents.init", "total"),
    "agents.spearman_s": ("agents.spearman", "total"),
    "serialization.sha256_s": ("serialization.sha256", "total"),
    "serialization.atomic_write_s": ("serialization.atomic_write", "total"),
    "serialization.dumps_s": ("serialization.dumps", "total"),
}
CLI_COMMANDS = ("simulate", "fit", "replay", "hia", "sweep", "solve", "limits", "figure1")
COUNT_METRICS = (
    "rng.streams_keyed",
    "killing.kernel_bytes_computed",
    "killing.csv_bytes",
    "fitting.compare_models_calls",
    "fitting.compare_models_n",
    "fitting.fits_attempted",
    "dpareto.solver_calls",
    "agents.agent_steps",
    "serialization.sha256_bytes",
)

# Spans each workload must record; an absent one means the trace lost a layer.
EXERCISED = {
    "killed_pipeline": {
        "cli.simulate", "cli.fit", "cli.replay", "cli.pool", "rng.block_take",
        "killing.batch", "killing.csv_write", "fitting.compare_models",
        "fitting.dpareto_mle", "fitting.lognormal", "fitting.hill", "dpareto.cdf",
        "serialization.sha256", "serialization.atomic_write", "serialization.dumps",
    },
    "agent_sweep": {
        "cli.hia", "cli.sweep", "agents.run_hia", "agents.init", "agents.step",
        "agents.spearman", "fitting.compare_models", "fitting.dpareto_mle",
        "fitting.lognormal", "fitting.hill", "dpareto.cdf", "fitting.sample_csv_write",
        "serialization.sha256", "serialization.atomic_write", "serialization.dumps",
    },
    "solver_fixed_horizon": {
        "cli.solve", "cli.limits", "cli.figure1", "cli.simulate", "cli.fit",
        "dpareto.limit_table", "dpareto.exponent_curves", "sde.terminal_levels",
        "rng.block_take", "fitting.read_sample_csv", "fitting.compare_models",
        "fitting.dpareto_mle", "fitting.lognormal", "fitting.hill", "dpareto.cdf",
        "serialization.sha256", "serialization.atomic_write", "serialization.dumps",
    },
}


def analyse(workload: str, spans: list, counts: dict) -> tuple:
    """Per-layer metrics from the spans and counts, plus self-test problems.

    The self-test asks that every span is closed and lies inside its parent
    within the same run id, that every self time is >= 0, and that every
    layer the workload exercises recorded a span.
    """
    problems = []
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, run) in enumerate(spans):
        if end is None:
            problems.append(f"span {i} {name} never closed")
            continue
        if parent is not None:
            p = spans[parent]
            if p[2] is None or start < p[1] or end > p[2] or run != p[4]:
                problems.append(f"span {i} {name} not nested in span {parent} {p[0]}")
            child_time[parent] += end - start
    total, self_time = Counter(), Counter()
    for i, (name, start, end, parent, run) in enumerate(spans):
        if end is None:
            continue
        own = (end - start) - child_time[i]
        if own < -1e-9:
            problems.append(f"span {i} {name} self time {own} < 0")
        total[name] += end - start
        self_time[name] += own
    seen = set(total)
    for name in sorted(EXERCISED[workload] - seen):
        problems.append(f"no {name} span recorded on {workload}")

    metrics = {}
    for metric, (name, kind) in SPAN_METRICS.items():
        metrics[metric] = (self_time if kind == "self" else total)[name]
    for command in CLI_COMMANDS:
        metrics[f"cli.self_s.{command}"] = self_time[f"cli.{command}"]
    for key in COUNT_METRICS:
        metrics[key] = int(counts.get(key, 0))
    attempted = counts.get("fitting.fits_attempted", 0)
    metrics["fitting.fit_ok_ratio"] = counts.get("fitting.fits_ok", 0) / attempted if attempted else 0.0
    return metrics, problems


def _call_main(cli, argv: list) -> tuple:
    """Run one CLI command in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # record the failure and go on to the next command
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--wrap", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Record, commands, file_digests

    import gbmtails.cli as cli

    tracer = Tracer()
    missing = install(tracer) if args.wrap else []
    os.chdir(args.workdir)
    records = []
    for i, command in enumerate(commands(args.workload, args.seed, rep=0)):
        argv = list(command.args)
        tracer.run = i
        start = time.perf_counter()
        if args.wrap:
            with tracer.span(f"cli.{argv[0]}"):
                rc, out = _call_main(cli, argv)
        else:
            rc, out = _call_main(cli, argv)
        wall = time.perf_counter() - start
        records.append(Record(command.metric, argv, rc, wall, out, file_digests(Path("."))))
    doc = {
        "records": [vars(r) for r in records],
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "missing": missing,
    }
    args.out.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
