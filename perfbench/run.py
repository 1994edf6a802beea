"""gbmtails benchmark: closed-loop CLI workloads, checked outputs, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload killed_pipeline --seed 0 --seconds 33 --trace 0

With ``--trace 0`` one client runs the workload's command sequence as
``python -m gbmtails ...`` subprocesses, one command at a time, for as many
whole sequences as bring the run's length nearest to ``--seconds`` (at least
one). Before that it times ``python -m gbmtails --version`` SETUP_REPS times:
interpreter start plus the full package import. A speed reference runs before
each of these timed children and once after the last; the gated timings are
scaled by it (see REFERENCE_S). Every command's outputs are checked; a command
that exits non-zero or fails a check counts as failed.

With ``--trace 1`` it runs one sequence in-process through
``gbmtails.cli.main``, once plain and once with timing wrappers (see
tracing.py), and reports per-layer times and counts, the import profile from
``-X importtime`` and the tracing overhead.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Everything else printed, plus the environment and every sample, goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import Record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s

# The speed reference: a fresh interpreter that imports the libraries the
# program loads at start, and nothing of the program. On a shared host the
# speed drifts by tens of percent over minutes; the reference's wall time
# follows that drift, because interpreter start and imports are a large share
# of every command. The gated timings are scaled to a host on which it takes
# REFERENCE_S (about its median on the 2-vCPU host the bounds were set on).
# A change to the program cannot change the reference.
REFERENCE_ARGV = [sys.executable, "-c",
                  "import argparse, concurrent.futures, hashlib, json; "
                  "import numpy, scipy.optimize, scipy.special, scipy.stats"]
REFERENCE_S = 1.2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # the checkout's program, never an installed one
    return env


class Deadline(Exception):
    """A child was killed at the run's time limit."""


def run_child(argv: list, cwd: Path, deadline: float, stderr=None) -> tuple:
    """Run one process; return (exit code, wall s, max RSS in KiB, CPU s, stdout).

    The child is reaped with wait4 so its own peak RSS (including pool
    workers it waited for) is known, and killed if it outlives ``deadline``.
    """
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=stderr)
        killed = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
            finally:
                os.close(pidfd)
            if not ready:
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    if killed:
        raise Deadline(f"{' '.join(argv[2:5])} killed at the run time limit")
    return proc.returncode, wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime, text


def gbmtails_argv(args) -> list:
    return [sys.executable, "-m", "gbmtails", *args]


def reference(cwd: Path, deadline: float, walls: list) -> None:
    """Run the speed reference once and append its wall time to ``walls``."""
    rc, wall, _, _, _ = run_child(REFERENCE_ARGV, cwd, deadline)
    if rc != 0:
        raise RuntimeError(f"speed reference exited {rc}")
    walls.append(wall)


def run_sequence(workload: str, seed: int, rep: int, workdir: Path, deadline: float,
                 references: list) -> list:
    records = []
    for command in workloads.commands(workload, seed, rep):
        reference(workdir, deadline, references)
        rc, wall, rss, cpu, out = run_child(gbmtails_argv(command.args), workdir, deadline)
        records.append(Record(command.metric, list(command.args), rc, wall, out,
                              workloads.file_digests(workdir), rss, cpu))
    return records


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "input_size": workloads.INPUT_SIZES[workload],
    }


def summary(values: list) -> dict:
    """Median and the largest sample (the tail, at these sample counts), with n."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def package_version() -> str:
    """``__version__`` as declared in the package source, read without importing it."""
    text = (SRC / "gbmtails" / "__init__.py").read_text()
    return re.search(r'^__version__ = "([^"]+)"', text, re.M).group(1)


def untraced(workload: str, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    version = package_version()
    attempted = failed = 0
    setup = []
    references = []  # one before each timed child, and one after the last
    problems = []
    start = time.monotonic()
    for _ in range(SETUP_REPS):
        reference(work, deadline, references)
        rc, wall, _, _, out = run_child(gbmtails_argv(["--version"]), work, deadline)
        setup.append(wall)
        attempted += 1
        if rc != 0 or out.strip() != version:
            failed += 1
            problems.append(f"--version: exit {rc}, printed {out.strip()!r}")

    sequences = []
    spans = []  # elapsed time of each sequence, with its references and checks
    try:
        # Another sequence runs while it brings the run's length nearer to
        # ``seconds`` and can end before the run limit; the first always runs.
        while not sequences or (
            time.monotonic() + statistics.mean(spans) / 2 - start < seconds
            and time.monotonic() + 1.5 * max(spans) < deadline
        ):
            began = time.monotonic()
            rep = len(sequences)
            workdir = work / f"seq{rep}"
            workdir.mkdir()
            records = run_sequence(workload, seed, rep, workdir, deadline, references)
            workloads.check(workload, seed, rep, records, workdir)
            shutil.rmtree(workdir)
            sequences.append(records)
            spans.append(time.monotonic() - began)
        reference(work, deadline, references)
    except Deadline as exc:
        failed += 1
        attempted += 1
        problems.append(str(exc))

    records = [r for rs in sequences for r in rs]
    attempted += len(records)
    for r in records:
        if r.problems:
            failed += 1
            problems.extend(f"{r.metric} {' '.join(r.args[:3])}: {p}" for p in r.problems)

    # Each timed child is scaled to the reference host by the mean of the two
    # references before it and the two after it (fewer at the ends): near
    # enough in time to follow the drift, and enough of them to average out
    # the noise of a single reference.
    scaled = []
    for j, wall in enumerate(setup + [r.wall_s for r in records]):
        around = references[max(0, j - 1):j + 3]
        scaled.append(wall * REFERENCE_S * len(around) / sum(around))
    setup_scaled, command_scaled = scaled[:len(setup)], scaled[len(setup):]

    # Every timing in ``named`` is raw wall time, except those under "scaled".
    named = {"reference_s": summary(references), "setup_s": summary(setup)}
    scaled_named = {"setup_s": summary(setup_scaled)}
    if sequences:
        for metric in dict.fromkeys(r.metric for r in records):
            named[metric] = summary([r.wall_s for r in records if r.metric == metric])
            scaled_named[metric] = summary(
                [x for r, x in zip(records, command_scaled) if r.metric == metric])
        # The sum of per-command medians: as robust as each median, and equal
        # to the sequence wall when the run holds one sequence.
        for table in (named, scaled_named):
            table["wall_s"] = {"median": sum(table[r.metric]["median"] for r in sequences[0]),
                               "n": len(sequences)}
        named["wall_s"]["sequence_walls"] = [sum(r.wall_s for r in rs) for rs in sequences]
        named["cpu_s"] = summary([sum(r.cpu_s for r in rs) for rs in sequences])
        rows = {"killed_pipeline": workloads.KILLED_N,
                "solver_fixed_horizon": workloads.GBM_N}.get(workload)
        if rows:
            named["sample_rows_per_s"] = summary(
                [rows / r.wall_s for r in records if r.metric == "simulate_s"])
        named["peak_rss_mb"] = {"value": max(r.maxrss_kb for r in records) / 1024.0,
                                "n": len(records)}
    named["failed_ratio"] = {"value": failed / attempted, "failed": failed,
                             "attempted": attempted}
    named["scaled"] = scaled_named

    metrics = {
        "setup_s": {"value": scaled_named["setup_s"]["median"], "unit": "s"},
        "wall_s": {"value": scaled_named.get("wall_s", {}).get("median", 0.0), "unit": "s"},
        "peak_rss_mb": {"value": named.get("peak_rss_mb", {}).get("value", 0.0), "unit": "MB"},
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "named": named,
        "problems": problems,
        "references": references,
        "samples": [[vars(r) | {"stdout": r.stdout[:2000]} for r in rs] for rs in sequences],
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def import_profile(work: Path, deadline: float) -> tuple:
    """Cumulative import time of gbmtails and scipy.stats from -X importtime."""
    with tempfile.TemporaryFile() as err:
        rc, _, _, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import gbmtails"],
                                work, deadline, stderr=err)
        err.seek(0)
        lines = err.read().decode(errors="replace").splitlines()
    cumulative = {}
    for line in lines:
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return rc, cumulative.get("gbmtails", 0.0), cumulative.get("scipy.stats", 0.0)


def in_process(workload: str, seed: int, wrap: int, work: Path, deadline: float) -> tuple:
    workdir = work / f"inproc{wrap}"
    workdir.mkdir()
    result = work / f"inproc{wrap}.json"
    rc, _, _, _, _ = run_child([sys.executable, str(HERE / "tracing.py"), "--workload", workload,
                             "--seed", str(seed), "--workdir", str(workdir),
                             "--wrap", str(wrap), "--out", str(result)], work, deadline)
    if rc != 0:
        raise RuntimeError(f"in-process worker (wrap={wrap}) exited {rc}")
    doc = json.loads(result.read_text())
    records = [Record(**r) for r in doc["records"]]
    workloads.check(workload, seed, 0, records, workdir)
    shutil.rmtree(workdir)
    return records, doc


def traced(workload: str, seed: int, work: Path, deadline: float) -> dict:
    import tracing

    import_rc, import_total, import_scipy_stats = import_profile(work, deadline)
    plain, _ = in_process(workload, seed, 0, work, deadline)
    wrapped, doc = in_process(workload, seed, 1, work, deadline)

    layer, selftest = tracing.analyse(workload, doc["spans"], doc["counts"])
    selftest += [f"wrapper target missing: {m}" for m in doc["missing"]]
    for a, b in zip(plain, wrapped):
        if a.digests != b.digests:
            selftest.append(f"{b.metric}: traced artifacts differ from untraced")

    plain_wall = sum(r.wall_s for r in plain)
    traced_wall = sum(r.wall_s for r in wrapped)
    layer["import.total_s"] = import_total
    layer["import.scipy_stats_s"] = import_scipy_stats
    layer["trace.overhead_s"] = traced_wall - plain_wall

    problems = [f"import profile exit {import_rc}"] if import_rc != 0 else []
    failed = len(problems)
    for r in plain + wrapped:
        if r.problems:
            failed += 1
            problems.extend(f"{r.metric} {' '.join(r.args[:3])}: {p}" for p in r.problems)
    problems += [f"self-test: {p}" for p in selftest]
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    return {
        "correct": failed == 0 and not selftest,
        "attempted": 1 + len(plain) + len(wrapped),
        "failed": failed,
        "metrics": {name: {"value": layer[name], "unit": unit} for name, unit in units.items()},
        "named": {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall},
        "problems": problems,
        "spans": doc["spans"],
    }


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def report(result: dict, trace: int) -> None:
    for name, value in result["named"].items():
        print(f"metric {name} {json.dumps(value)}")
    for name, m in result["metrics"].items():
        print(f"{'layer' if trace else 'e2e'} {name} = {m['value']:.6g} {m['unit']}")
    for p in result["problems"]:
        print(f"FAILED {p}")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={result['failed'] / result['attempted']:.4g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gbmtails benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gbmtails" / "__init__.py").is_file():
        print(f"error: no gbmtails package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_LIMIT_S

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    try:
        if args.trace:
            result = traced(args.workload, args.seed, work, deadline)
        else:
            result = untraced(args.workload, args.seed, args.seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(result, args.trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run"], "spans": spans}))
    (out_dir / f"{stem}.json").write_text(json.dumps({"env": env, **result}, indent=1))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
