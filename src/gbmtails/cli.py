"""Command-line front door.

Every file-producing command writes its artifacts atomically and drops a run
manifest (``<out>.manifest.json``) recording the command, the fully merged
parameters, the master seed, the package version, the Python and numpy
versions and numpy's SIMD kernels the output bytes rest on, and a sha256
digest per output file; ``fit`` manifests also record ``inputs``, the sha256
of the sample read, and ``hia`` and ``sweep`` manifests ``clamped``, the agent
updates raised to the floor (summed over a sweep's runs). ``gbmtails replay
<manifest>`` re-executes the recorded run, checks that each recorded input
is unchanged by the digest the run takes before reading it (exit 2 if not),
hashes the regenerated outputs in memory, and checks both them and the
on-disk files against the recorded digests, resolving relative paths
against the directory the run was made in, which
the manifest records as ``run_dir`` when its first output lies outside it;
replay writes no file, needs no temp directory, and ignores ``clamped``. It
warns on stderr for each library version or kernel set that differs from the
recorded one, but only the digests decide its exit code. Files it reads are
decoded as argv is (``serialization.open_text``), so a manifest replays under
any locale.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 internal
invariant violation (e.g. a replay that fails to reproduce).

Each command's options are declared once, in ``COMMANDS``. Flags, a flat
JSON ``--config`` file (flags win; the manifest records the merged result)
and a replayed manifest's ``params`` are all checked against it: an unknown
key, a missing required one, a bool, a value its option's type would change
(``2.7`` for an integer, ``"1"`` for a number), one outside the option's
choices, or ``null`` for an option with a default exits 2 naming the key.
A command imports only the modules its ``COMMANDS`` entry names.

``simulate --mode killed --workers N`` (N > 1) samples and formats its rows in
jobs of at most ``4 * BLOCK_ROWS`` rows on at most N processes, written in job
order, and ``sweep`` splits into its ``points x seeds`` runs; both go to one
ordered process map of at most as many processes as jobs or usable CPUs, with
at most two results a process unread, which runs the jobs in process when that
allows fewer than two. Output bytes, stdout and manifests never depend on it.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import math
import os
import platform
import sys
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import __version__
from .serialization import (BATCH_CSV_HEADER, BLOCK_ROWS, atomic_write, atomic_write_text, dumps,
                            open_text, sha256_file, sha256_written, write_sample_csv_fh,
                            write_text)

# The names executors call from modules that not every command needs, by
# module. A command's COMMANDS entry names the modules it runs; ``_load`` binds
# their names into this module's globals when the command is dispatched.
_LAZY = {
    ".agents": ("HiaParams", "run_hia", "run_sweep", "sweep_csv_text"),
    ".dpareto": ("CURVE_EXCLUSION_BAND", "classify_regime", "exponent_curves",
                 "exponent_curves_csv_text", "limit_csv_text", "limit_table",
                 "solve_exponents_canonical"),
    ".fitting": ("compare_models", "read_sample_csv"),
    ".killing": ("KillSchedule", "killed_rows_text", "sample_killed_batch", "write_batch_csv_fh"),
    ".sde": ("GbmParams", "sample_terminal_levels"),
    "concurrent.futures.process": ("ProcessPoolExecutor",),
}
# fitting.ALL_MODELS, spelled out so that building the parser does not import
# fitting; a test keeps the two equal.
_MODELS = ("double_pareto", "lognormal", "pareto_tail")


def _load(modules) -> None:
    """Import ``modules`` and bind their ``_LAZY`` names here, keeping a name already bound.

    Executors call these names through this module's globals, so a wrapper
    set on ``gbmtails.cli`` from outside stays what runs.
    """
    for module in modules:
        owner = importlib.import_module(module, __package__)
        for name in _LAZY[module]:
            if name not in globals():
                globals()[name] = getattr(owner, name)


def __getattr__(name: str):
    """Resolve a ``_LAZY`` name looked up from outside before any command ran it (PEP 562)."""
    for module, names in _LAZY.items():
        if name in names:
            _load((module,))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

_REQUIRED = object()


class ReplayMismatchError(Exception):
    """Replayed outputs did not reproduce the manifest digests."""


@dataclass
class Artifact:
    path: str
    write: Callable  # called with a binary file handle open for writing


@dataclass
class CommandResult:
    stdout_text: str | None
    artifacts: list
    record: dict = field(default_factory=dict)  # extra manifest fields; replay ignores them


# ---------------------------------------------------------------------------
# Command executors: params dict, checked and converted by ``_params`` ->
# CommandResult. Pure enough to replay.
# ---------------------------------------------------------------------------


def _exec_solve(p: dict) -> CommandResult:
    if p["alpha"] == 0:
        raise ValueError(
            "alpha = 0 degenerates the characteristic quadratic; "
            "use the limits command for the alpha -> 0 behavior"
        )
    sol = solve_exponents_canonical(p["r"], p["alpha"], p["nu"])
    doc = asdict(sol)
    doc["vieta_product_residual"], doc["vieta_difference_residual"] = sol.vieta_residuals(
        p["r"], p["alpha"], p["nu"]
    )
    excluded = {"both": (), "canonical": ("signed",), "signed": ("canonical",)}[p["convention"]]
    for convention in excluded:
        del doc["m1_" + convention], doc["m2_" + convention]
    return _text_result(dumps(doc), p["out"])


def _exec_regime(p: dict) -> CommandResult:
    alpha_star, regime = classify_regime(p["r"], p["alpha"])
    return _text_result(dumps({"alpha_star": alpha_star, "regime": regime}), p["out"])


def _exec_limits(p: dict) -> CommandResult:
    report = limit_table(p["r"], p["alpha"], p["nu"])
    return _text_result(limit_csv_text(report), p["out"])


def _exec_figure1(p: dict) -> CommandResult:
    r, nu = p["r"], p["nu"]
    if p["points"] < 2:
        raise ValueError("points must be >= 2")
    if not (0 < p["alpha_min"] < p["alpha_max"]):
        raise ValueError("need 0 < alpha-min < alpha-max")
    grid = np.linspace(p["alpha_min"], p["alpha_max"], p["points"])
    alpha_star = math.sqrt(2.0 * r)
    # grid points inside the excluded band around the critical volatility
    # are nudged just outside it (toward their own side; dead-on goes up)
    inside = np.abs(grid - alpha_star) <= CURVE_EXCLUSION_BAND * alpha_star
    grid[inside & (grid >= alpha_star)] = alpha_star * (1.0 + 2 * CURVE_EXCLUSION_BAND)
    grid[inside & (grid < alpha_star)] = alpha_star * (1.0 - 2 * CURVE_EXCLUSION_BAND)
    rows = exponent_curves(r, nu, grid)
    return _text_result(exponent_curves_csv_text(rows), p["out"])


def _exec_simulate(p: dict) -> CommandResult:
    params = GbmParams(x0=p["x0"], r=p["r"], alpha=p["alpha"])
    if p["n"] < 1:
        raise ValueError("n must be >= 1")
    if p["workers"] < 1:
        raise ValueError(f"workers must be >= 1, got {p['workers']}")
    mode = p["mode"]
    needed, unused = ("t", "nu") if mode == "gbm" else ("nu", "t")
    if p[needed] is None:
        raise ValueError(f"simulate --mode {mode} needs --{needed}")
    if p[unused] is not None:
        raise ValueError(f"simulate --mode {mode} does not take --{unused}")
    if mode == "gbm" and p["workers"] > 1:
        raise ValueError("simulate --mode gbm does not take --workers above 1")
    if mode == "gbm":
        levels = sample_terminal_levels(params, p["t"], p["n"], p["seed"])  # finite, > 0
        artifact = Artifact(p["out"], lambda fh: write_sample_csv_fh(fh, levels))
    elif p["workers"] == 1:
        batch = sample_killed_batch(params, KillSchedule(nu=p["nu"]), p["n"], p["seed"])
        artifact = Artifact(p["out"], lambda fh: write_batch_csv_fh(fh, batch))
    else:
        artifact = Artifact(p["out"], partial(_write_killed_jobs, params, KillSchedule(nu=p["nu"]),
                                              p["n"], p["seed"], p["workers"]))
    return CommandResult(stdout_text=None, artifacts=[artifact])


# Rows per pool job of a sharded killed CSV. The parent holds the text of at
# most a few jobs at once, and never the float batch.
_JOB_ROWS = 4 * BLOCK_ROWS


def _write_killed_jobs(params, schedule, n, seed, workers, fh) -> None:
    """The killed batch CSV, each job's rows sampled and formatted in the pool
    and written in job order: the bytes of the in-process path."""
    size = min(_JOB_ROWS, -(-n // workers))
    los = range(0, n, size)
    write_text(fh, BATCH_CSV_HEADER + "\n")
    for part in _process_map(partial(killed_rows_text, params, schedule, seed),
                             los, [min(lo + size, n) for lo in los], processes=workers):
        fh.write(part)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _process_map(fn, *iterables, processes=None):
    """``map(fn, *iterables)`` in a pool of at most ``processes`` processes, results in
    job order, with at most two jobs a process submitted and not yet read, so the
    results held stay bounded; under two processes the jobs run here, with no pool."""
    jobs = list(zip(*iterables))
    # fork starts every process at once, so no more than there are jobs or usable CPUs
    processes = min(len(jobs), _usable_cpus(), processes or len(jobs))
    if processes < 2:
        yield from (fn(*args) for args in jobs)
        return
    _load(("concurrent.futures.process",))  # only a pooled command pays for the pool
    with ProcessPoolExecutor(max_workers=processes) as pool:
        pending = collections.deque()
        for args in jobs:
            if len(pending) == 2 * processes:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *args))
        while pending:
            yield pending.popleft().result()


def _exec_fit(p: dict) -> CommandResult:
    models = _MODELS if p["models"] is None else tuple(p["models"].split(","))
    if not set(models) <= set(_MODELS) or len(set(models)) < len(models):
        raise ValueError(f"--models must name distinct models from {','.join(_MODELS)}, "
                         f"got {p['models']!r}")
    if p["hill_k"] is not None:
        if "pareto_tail" not in models:
            raise ValueError("--hill-k applies only to the pareto_tail model")
        if p["hill_k"] < 2:  # k < n depends on the data: a pareto_tail error
            raise ValueError(f"--hill-k must be >= 2, got {p['hill_k']}")
    # hashed before it is read, so that replay can tell a changed input
    inputs = [{"path": p["input"], "sha256": sha256_file(p["input"])}] if p["out"] else []
    samples = read_sample_csv(p["input"])
    report = compare_models(samples, models=models, hill_k=p["hill_k"])
    result = _text_result(dumps(report.to_json_dict()), p["out"])
    result.record["inputs"] = inputs
    return result


def _hia_params(p: dict) -> HiaParams:
    shared = ("noise_std", "drift", "coupling_in", "coupling_out", "steps", "floor")
    return HiaParams(n_agents=p["agents"], **{k: p[k] for k in shared})


def _exec_hia(p: dict) -> CommandResult:
    pop, effective_alpha, report = run_hia(_hia_params(p), p["seed"])
    doc = {"effective_alpha": effective_alpha, "fit": report.to_json_dict()}
    artifacts = []
    if p["out"]:  # run_hia's fit has checked the sizes
        artifacts.append(Artifact(p["out"], lambda fh: write_sample_csv_fh(fh, pop.sizes)))
    return CommandResult(stdout_text=dumps(doc), artifacts=artifacts,
                         record={"clamped": pop.clamped})


def _exec_sweep(p: dict) -> CommandResult:
    if p["points"] < 2:
        raise ValueError("points must be >= 2")
    values = np.linspace(p["min"], p["max"], p["points"])
    result = run_sweep(_hia_params(p), p["vary"], values, p["seeds"], p["seed"], map=_process_map)
    text = sweep_csv_text(result)
    doc = {"varied": result.varied, "spearman_rho": result.spearman_rho}
    artifact = Artifact(p["out"], lambda fh: write_text(fh, text))
    return CommandResult(stdout_text=dumps(doc), artifacts=[artifact],
                         record={"clamped": result.clamped})


def _text_result(text: str, out) -> CommandResult:
    artifacts = [Artifact(out, lambda fh: write_text(fh, text))] if out else []
    return CommandResult(stdout_text=text, artifacts=artifacts)


# ---------------------------------------------------------------------------
# The option table: every command's options, declared once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Option:
    type: type  # float, int or str
    default: object = _REQUIRED
    help: str | None = None
    choices: tuple | None = None


@dataclass(frozen=True)
class Command:
    run: Callable  # checked params dict -> CommandResult
    modules: tuple  # the _LAZY modules ``run`` calls into
    help: str
    options: dict  # name -> Option; the flag is --name with "_" as "-"


_R = Option(float, help="drift rate r")
_ALPHA = Option(float, help="volatility alpha")
_NU = Option(float, help="observation (killing) rate nu")
_OUT = Option(str, None, "also write the output to this path (with manifest)")
_SEED = Option(int, 0, "master seed, in [0, 2**64)")
_AGENT_OPTIONS = {
    "agents": Option(int, 1000, "number of agents"),
    "noise_std": Option(float, 0.3, "std of each agent's log-growth shock"),
    "drift": Option(float, 0.0, "mean log-growth per step"),
    "coupling_in": Option(float, 0.1, "each agent gains coupling_in * mean size"),
    "coupling_out": Option(float, 0.1, "each agent loses coupling_out * mean * own size"),
    "steps": Option(int, 400, "number of steps"),
    "floor": Option(float, 1e-6, "sizes are clamped at this floor"),
    "seed": _SEED,
}

COMMANDS = {
    "solve": Command(_exec_solve, (".dpareto",), "tail exponents for (r, alpha, nu)", {
        "r": _R, "alpha": _ALPHA, "nu": _NU,
        "convention": Option(str, "both", "exponents to report", ("both", "canonical", "signed")),
        "out": _OUT,
    }),
    "regime": Command(_exec_regime, (".dpareto",), "critical volatility and regime label",
                      {"r": _R, "alpha": _ALPHA, "out": _OUT}),
    "limits": Command(_exec_limits, (".dpareto",),
                      "extreme-parameter checks of the closed-form exponents (CSV)",
                      {"r": _R, "alpha": _ALPHA, "nu": _NU, "out": _OUT}),
    "figure1": Command(_exec_figure1, (".dpareto",),
                       "exponents as a function of volatility (CSV for plotting)", {
        "r": _R, "nu": _NU, "out": _OUT,
        "alpha_min": Option(float, help="smallest volatility on the grid"),
        "alpha_max": Option(float, help="largest volatility on the grid"),
        "points": Option(int, 100, "grid points, >= 2"),
    }),
    "simulate": Command(_exec_simulate, (".killing", ".sde"),
                        "sample GBM terminal values or killed states to CSV", {
        "mode": Option(str, help="gbm: value at --t; killed: state at an Exp(--nu) time",
                       choices=("gbm", "killed")),
        "x0": Option(float, 1.0, "initial level"),
        "r": _R, "alpha": _ALPHA,
        "t": Option(float, None, "horizon (gbm mode only)"),
        "nu": Option(float, None, "observation rate (killed mode only)"),
        "n": Option(int, help="number of samples"),
        "seed": _SEED,
        "workers": Option(int, 1, "processes that sample a killed batch, at most (gbm: 1 only)"),
        "out": Option(str, help="sample CSV path (with manifest)"),
    }),
    "fit": Command(_exec_fit, (".fitting",),
                   "fit and compare heavy-tail models on a sample CSV", {
        "input": Option(str, help="sample CSV (value or kill_time,state)"),
        "models": Option(str, None, "comma-separated subset of " + ",".join(_MODELS)),
        "hill_k": Option(int, None, "override the upper-tail order-statistic count"),
        "out": _OUT,
    }),
    "hia": Command(_exec_hia, (".agents",), "run the interacting-agents simulation", {
        **_AGENT_OPTIONS, "out": Option(str, None, "write final sizes as a sample CSV"),
    }),
    "sweep": Command(_exec_sweep, (".agents",),
                     "sweep one agent parameter and track the fitted exponent", {
        **_AGENT_OPTIONS,
        "vary": Option(str, "noise_std", "the agent option swept",
                       ("noise_std", "coupling_in", "coupling_out")),
        "min": Option(float, 0.05, "first swept value"),
        "max": Option(float, 0.8, "last swept value"),
        "points": Option(int, 8, "swept values, >= 2"),
        "seeds": Option(int, 5, "replicate runs per swept value"),
        "out": Option(str, help="sweep CSV path (with manifest)"),
    }),
}


def _flag(name: str) -> str:
    return name if name == "input" else "--" + name.replace("_", "-")


def _params(command: str, given, source: str) -> dict:
    """``given`` over the command's defaults, every key and value checked and converted."""
    options = COMMANDS[command].options
    if not isinstance(given, dict):
        raise ValueError(f"{source} must hold a flat JSON object")
    unknown = sorted(set(given) - set(options))
    if unknown:
        raise ValueError(f"{source} has unknown key(s) for {command}: {', '.join(unknown)}")
    missing = [_flag(k) for k, opt in options.items() if opt.default is _REQUIRED and k not in given]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")
    params = {k: opt.default for k, opt in options.items()}
    for key, value in given.items():
        opt = options[key]
        if value is None and opt.default is None:
            continue
        try:
            ok = not isinstance(value, bool) and (
                isinstance(value, opt.type) or opt.type(value) == value
            )
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok or (opt.choices and value not in opt.choices):
            kind = "one of " + ", ".join(opt.choices) if opt.choices else "of type " + opt.type.__name__
            raise ValueError(f"{source}: {key} must be {kind}, got {value!r}")
        params[key] = opt.type(value)
    return params


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _read_json_object(path: str, what: str) -> dict:
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must hold a JSON object")
    return doc


def _outside(path: str) -> bool:
    """Whether ``path`` is absolute or leaves the directory it is relative to."""
    path = os.path.normpath(path)
    return os.path.isabs(path) or path.split(os.sep)[0] == os.pardir


def _write_artifacts(command: str, params: dict, result: CommandResult) -> list:
    outputs = []
    for art in result.artifacts:
        atomic_write(art.path, art.write)
        outputs.append({"path": art.path, "sha256": sha256_file(art.path)})
    if outputs:
        manifest = {
            "command": command,
            "params": params,
            "seed": params.get("seed"),
            "version": __version__,
            "libraries": _libraries(),
            "outputs": outputs,
            **result.record,
        }
        if _outside(outputs[0]["path"]):
            # the manifest's own path no longer tells where the run was made
            manifest["run_dir"] = os.getcwd()
        atomic_write_text(_manifest_path(result.artifacts[0].path), dumps(manifest))
    return outputs


def _libraries() -> dict:
    """What the output bytes rest on besides this package: the Python and numpy
    versions, numpy's SIMD kernels, which set the bits of ``np.exp`` and
    ``np.log``, and the C library, whose ``log``, ``exp``, ``clog`` and ``cexp``
    set ``_ndtr``'s. A numpy whose ``show_config`` has no ``mode`` records no
    kernels, and a C library that ``os.confstr`` cannot name is left out."""
    libraries = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        libraries["numpy_simd"] = " ".join(simd)
    except TypeError:
        pass
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        libc = None
    if libc:
        libraries["libc"] = libc
    return libraries


def _digest_list(entries) -> bool:
    """Whether ``entries`` is a list of ``{path, sha256}`` strings, as a manifest records files."""
    return isinstance(entries, list) and all(
        isinstance(e, dict) and all(isinstance(e.get(k), str) for k in ("path", "sha256"))
        for e in entries
    )


def _manifest_path(out_path: str) -> str:
    return str(out_path) + ".manifest.json"


def _dispatch(command: str, params: dict) -> CommandResult:
    """Import the command's modules, then run it."""
    spec = COMMANDS[command]
    _load(spec.modules)
    return spec.run(params)


def _run_command(command: str, args: argparse.Namespace) -> int:
    spec = COMMANDS[command]
    config = _read_json_object(args.config, "config file") if args.config else {}
    flags = {k: getattr(args, k) for k in spec.options if getattr(args, k) is not None}
    # argparse has checked the flags, so a rejected key or value is the config file's
    params = _params(command, {**config, **flags}, "config file")
    # validate output location before any heavy work
    if params["out"] == "":
        raise ValueError("--out must not be empty")
    if params["out"]:
        parent = os.path.dirname(os.path.abspath(params["out"]))
        if not os.path.isdir(parent):
            raise ValueError(f"output directory does not exist: {parent}")
    out, source = params["out"], params.get("input")
    if source and out and os.path.exists(out) and os.path.exists(source):
        if os.path.samefile(out, source):
            raise ValueError(f"--out {out!r} is the input {source!r}; {command} would overwrite it")
    result = _dispatch(command, params)
    outputs = _write_artifacts(command, params, result)
    if result.stdout_text is not None:
        sys.stdout.write(result.stdout_text)
    elif outputs:
        sys.stdout.write(dumps({"outputs": outputs, "manifest": _manifest_path(result.artifacts[0].path)}))
    return EXIT_OK


def _run_replay(args: argparse.Namespace) -> int:
    manifest = _read_json_object(args.manifest, "manifest")
    for key in ("command", "params", "outputs"):
        if key not in manifest:
            raise ValueError(f"manifest is missing the {key!r} field")
    command, outputs = manifest["command"], manifest["outputs"]
    if not isinstance(command, str) or command not in COMMANDS:
        raise ValueError(f"manifest names unknown command {command!r}")
    if not (outputs and _digest_list(outputs)):
        raise ValueError("manifest outputs must be a non-empty list of {path, sha256} strings")
    inputs = manifest.get("inputs", [])  # none before manifests recorded them
    if not _digest_list(inputs):
        raise ValueError("manifest inputs must be a list of {path, sha256} strings")
    params = _params(command, manifest["params"], "manifest params")
    recorded_libraries = manifest.get("libraries", {})
    if not (isinstance(recorded_libraries, dict)
            and all(isinstance(v, str) for v in recorded_libraries.values())):
        raise ValueError("manifest libraries must be an object of version strings")
    libraries = _libraries()
    # this host's libraries, then those only the run could name
    for name in [*libraries, *(k for k in recorded_libraries if k not in libraries)]:
        was, version = recorded_libraries.get(name), libraries.get(name)
        if was != version:
            print(f"warning: the run recorded {name} {was or 'unknown'}, this replay uses "
                  f"{name} {version or 'unknown'}; the digests decide", file=sys.stderr)
    # Relative recorded paths (outputs, fit's input) resolve against the run's
    # directory, and stay the recorded strings so the digests still match. The
    # manifest was written to <run dir>/<first output>.manifest.json; its own
    # directory differs when --out had a directory part. When the first output
    # lies outside the run's directory, the manifest records that directory.
    name = os.path.normpath(_manifest_path(outputs[0]["path"]))
    here = os.path.abspath(args.manifest)
    if _outside(name):
        run_dir = manifest.get("run_dir")
        if not (isinstance(run_dir, str) and os.path.isabs(run_dir)):
            raise ValueError("manifest whose first output lies outside the run's directory "
                             f"needs an absolute 'run_dir' string, got {run_dir!r}")
    else:
        run_dir = here[: len(here) - len(name)]
    if os.path.normpath(os.path.join(run_dir, name)) != here:
        raise ValueError(f"manifest path {args.manifest!r} is not its recorded name {name!r} "
                         "in the run's directory, so the run's directory is unknown")
    home = os.getcwd()
    os.chdir(run_dir)
    try:
        result = _dispatch(command, params)
        # the run hashed its inputs before reading them, as the recorded run did
        hashed = {e["path"]: e["sha256"] for e in result.record.get("inputs", [])}
        for entry in inputs:
            if hashed.get(entry["path"]) != entry["sha256"]:
                raise ValueError(f"input {entry['path']!r} has changed since the run: "
                                 "its sha256 is not the recorded one")
        # Hash the regenerated bytes in memory: replay only checks, it writes nothing.
        produced = {art.path: sha256_written(art.write) for art in result.artifacts}
        recorded = {o["path"]: o["sha256"] for o in outputs}
        not_reproduced = sorted(
            path
            for path in set(recorded) | set(produced)
            if recorded.get(path) != produced.get(path)
        )
        not_on_disk = sorted(
            path
            for path, digest in recorded.items()
            if not os.path.isfile(path) or sha256_file(path) != digest
        )
    finally:
        os.chdir(home)
    doc = {
        "command": command,
        "reproduced": not not_reproduced,
        "regenerated_mismatched_paths": not_reproduced,
        "on_disk_mismatched_paths": not_on_disk,
        "outputs": [{"path": path, "sha256": digest} for path, digest in produced.items()],
    }
    sys.stdout.write(dumps(doc))
    if not_reproduced or not_on_disk:
        raise ReplayMismatchError(
            f"replay failed: regenerated != recorded for {not_reproduced}; "
            f"on disk != recorded (or missing) for {not_on_disk}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse, except that a ``--help`` or ``--version`` text stdout cannot
    take raises ``OSError``, as any other output does; argparse drops it."""

    def _print_message(self, message, file=None):
        if file is sys.stdout and message:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gbmtails",
        description=(
            "Simulate geometric Brownian motion observed at random exponential "
            "horizons, solve the resulting double-Pareto tail exponents, and "
            "fit competing heavy-tail models."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        sp = sub.add_parser(command, help=spec.help)
        sp.add_argument("--config", help="flat JSON file supplying option defaults")
        for name, opt in spec.options.items():
            flag = _flag(name)
            where = {"nargs": "?"} if flag == name else {"dest": name}
            sp.add_argument(flag, type=opt.type, choices=opt.choices, help=opt.help, **where)
    sp = sub.add_parser("replay", help="re-run a manifest and verify output digests")
    sp.add_argument("manifest")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        finally:  # --help and --version exit here, and their text is output too
            sys.stdout.flush()
        if args.command == "replay":
            code = _run_replay(args)
        else:
            code = _run_command(args.command, args)
        sys.stdout.flush()  # a stdout that cannot take the output is an I/O failure
        return code
    except ValueError as exc:  # SampleCsvError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ReplayMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
