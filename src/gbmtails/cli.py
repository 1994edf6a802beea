"""Command-line front door.

Every file-producing command writes its artifacts atomically and drops a
run manifest (``<out>.manifest.json``) recording the command, the fully
merged parameters, the master seed, the package version, and a sha256
digest per output file. ``gbmtails replay <manifest>`` re-executes the
recorded run into a scratch directory and checks both the regenerated and
the on-disk files against the recorded digests, so any artifact can be
audited byte-for-byte; replay never writes the recorded files or the
manifest.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 internal
invariant violation (e.g. a replay that fails to reproduce).

A flat JSON config file (``--config``) may supply defaults for any option;
explicit command-line flags win, and the manifest records the merged
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .agents import HiaParams, run_hia, run_sweep, sweep_csv_text
from .dpareto import (
    exponent_curves,
    exponent_curves_csv_text,
    limit_csv_text,
    limit_table,
    classify_regime,
    solve_exponents_canonical,
)
from .fitting import (
    ALL_MODELS,
    SampleSet,
    compare_models,
    read_sample_csv,
    write_sample_csv_fh,
)
from .killing import (
    KillSchedule,
    _chunk_ranges,
    killed_rows_range,
    sample_killed_batch,
    write_batch_csv_fh,
)
from .sde import GbmParams, sample_terminal_levels
from .serialization import atomic_write, atomic_write_text, dumps, sha256_file

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
    write: Callable  # called with an open text file handle


@dataclass
class CommandResult:
    stdout_text: str | None
    artifacts: list


# ---------------------------------------------------------------------------
# Command executors: params dict -> CommandResult. Pure enough to replay.
# ---------------------------------------------------------------------------


def _exec_solve(p: dict) -> CommandResult:
    if p["alpha"] == 0:
        raise ValueError(
            "alpha = 0 degenerates the characteristic quadratic; "
            "use the limits command for the alpha -> 0 behavior"
        )
    sol = solve_exponents_canonical(p["r"], p["alpha"], p["nu"])
    prod_res, diff_res = sol.vieta_residuals(p["r"], p["alpha"], p["nu"])
    doc = {
        "alpha_star": sol.alpha_star,
        "regime": sol.regime,
        "mu": sol.mu,
        "vieta_product_residual": prod_res,
        "vieta_difference_residual": diff_res,
    }
    if p["convention"] in ("both", "canonical"):
        doc["m1_canonical"] = sol.m1_canonical
        doc["m2_canonical"] = sol.m2_canonical
    if p["convention"] in ("both", "signed"):
        doc["m1_signed"] = sol.m1_signed
        doc["m2_signed"] = sol.m2_signed
    return _text_result(dumps(doc), p.get("out"))


def _exec_regime(p: dict) -> CommandResult:
    alpha_star, regime = classify_regime(p["r"], p["alpha"])
    return _text_result(dumps({"alpha_star": alpha_star, "regime": regime}), p.get("out"))


def _exec_limits(p: dict) -> CommandResult:
    report = limit_table(p["r"], p["alpha"], p["nu"])
    return _text_result(limit_csv_text(report), p.get("out"))


def _exec_figure1(p: dict) -> CommandResult:
    r, nu = p["r"], p["nu"]
    points = int(p["points"])
    if points < 2:
        raise ValueError("points must be >= 2")
    if not (0 < p["alpha_min"] < p["alpha_max"]):
        raise ValueError("need 0 < alpha-min < alpha-max")
    grid = np.linspace(p["alpha_min"], p["alpha_max"], points)
    alpha_star = math.sqrt(2.0 * r)
    # grid points inside the excluded band around the critical volatility
    # are nudged just outside it (toward their own side; dead-on goes up)
    band = 1e-9 * alpha_star
    inside = np.abs(grid - alpha_star) <= band
    grid[inside & (grid >= alpha_star)] = alpha_star * (1.0 + 2e-9)
    grid[inside & (grid < alpha_star)] = alpha_star * (1.0 - 2e-9)
    rows = exponent_curves(r, nu, grid)
    return _text_result(exponent_curves_csv_text(rows), p.get("out"))


def _exec_simulate(p: dict) -> CommandResult:
    mode = p["mode"]
    if mode not in ("gbm", "killed"):
        raise ValueError(f"mode must be 'gbm' or 'killed', got {mode!r}")
    params = GbmParams(x0=p["x0"], r=p["r"], alpha=p["alpha"])
    n = int(p["n"])
    if n < 1:
        raise ValueError("n must be >= 1")
    seed = int(p["seed"])
    workers = max(1, int(p["workers"]))
    out = _require_out(p)

    if mode == "gbm":
        if p.get("t") is None:
            raise ValueError("simulate --mode gbm needs --t")
        t = float(p["t"])
        levels = sample_terminal_levels(params, t, n, seed)

        def write(fh):
            write_sample_csv_fh(fh, levels)

    else:
        if p.get("nu") is None:
            raise ValueError("simulate --mode killed needs --nu")
        schedule = KillSchedule(nu=float(p["nu"]))
        batch = _killed_batch_parallel(params, schedule, n, seed, workers)

        def write(fh):
            write_batch_csv_fh(fh, batch)

    return CommandResult(stdout_text=None, artifacts=[Artifact(out, write)])


def _killed_batch_parallel(params, schedule, n, seed, workers) -> np.ndarray:
    """Worker-sharded batch; byte-identical to the sequential path."""
    if workers <= 1 or n < 4 * workers:
        return sample_killed_batch(params, schedule, n, seed, workers=workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(killed_rows_range, params, schedule, seed, lo, hi)
            for lo, hi in _chunk_ranges(n, workers)
        ]
        parts = [f.result() for f in futures]
    return np.concatenate(parts, axis=0)


def _exec_fit(p: dict) -> CommandResult:
    samples = read_sample_csv(p["input"])
    models = tuple(p["models"].split(",")) if p.get("models") else ALL_MODELS
    hill_k = None if p.get("hill_k") is None else int(p["hill_k"])
    report = compare_models(samples, models=models, hill_k=hill_k)
    return _text_result(dumps(report.to_json_dict()), p.get("out"))


def _exec_hia(p: dict) -> CommandResult:
    params = HiaParams(
        n_agents=int(p["agents"]),
        noise_std=p["noise_std"],
        drift=p["drift"],
        coupling_in=p["coupling_in"],
        coupling_out=p["coupling_out"],
        steps=int(p["steps"]),
        floor=p["floor"],
    )
    pop, effective_alpha, report = run_hia(params, int(p["seed"]))
    doc = {"effective_alpha": effective_alpha, "fit": report.to_json_dict()}
    artifacts = []
    if p.get("out"):
        samples = SampleSet(pop.sizes, source=f"hia(seed={int(p['seed'])})")

        def write(fh):
            write_sample_csv_fh(fh, samples)

        artifacts.append(Artifact(p["out"], write))
    return CommandResult(stdout_text=dumps(doc), artifacts=artifacts)


def _exec_sweep(p: dict) -> CommandResult:
    base = HiaParams(
        n_agents=int(p["agents"]),
        noise_std=p["noise_std"],
        drift=p["drift"],
        coupling_in=p["coupling_in"],
        coupling_out=p["coupling_out"],
        steps=int(p["steps"]),
        floor=p["floor"],
    )
    points = int(p["points"])
    if points < 2:
        raise ValueError("points must be >= 2")
    values = np.linspace(p["min"], p["max"], points)
    result = run_sweep(base, p["vary"], values, int(p["seeds"]), int(p["seed"]))
    out = _require_out(p)
    text = sweep_csv_text(result)

    def write(fh):
        fh.write(text)

    doc = {"varied": result.varied, "spearman_rho": result.spearman_rho}
    return CommandResult(stdout_text=dumps(doc), artifacts=[Artifact(out, write)])


def _text_result(text: str, out) -> CommandResult:
    artifacts = []
    if out:

        def write(fh, _text=text):
            fh.write(_text)

        artifacts.append(Artifact(str(out), write))
    return CommandResult(stdout_text=text, artifacts=artifacts)


def _require_out(p: dict) -> str:
    out = p.get("out")
    if not out:
        raise ValueError("this command requires --out")
    return str(out)


EXECUTORS = {
    "solve": _exec_solve,
    "regime": _exec_regime,
    "limits": _exec_limits,
    "figure1": _exec_figure1,
    "simulate": _exec_simulate,
    "fit": _exec_fit,
    "hia": _exec_hia,
    "sweep": _exec_sweep,
}

_HIA_DEFAULTS = {
    "agents": 1000,
    "noise_std": 0.3,
    "drift": 0.0,
    "coupling_in": 0.1,
    "coupling_out": 0.1,
    "steps": 400,
    "floor": 1e-6,
    "seed": 0,
}

DEFAULTS = {
    "solve": {"r": _REQUIRED, "alpha": _REQUIRED, "nu": _REQUIRED,
              "convention": "both", "out": None},
    "regime": {"r": _REQUIRED, "alpha": _REQUIRED, "out": None},
    "limits": {"r": _REQUIRED, "alpha": _REQUIRED, "nu": _REQUIRED, "out": None},
    "figure1": {"r": _REQUIRED, "nu": _REQUIRED, "alpha_min": _REQUIRED,
                "alpha_max": _REQUIRED, "points": 100, "out": None},
    "simulate": {"mode": _REQUIRED, "x0": 1.0, "r": _REQUIRED, "alpha": _REQUIRED,
                 "t": None, "nu": None, "n": _REQUIRED, "seed": 0, "workers": 1,
                 "out": _REQUIRED},
    "fit": {"input": _REQUIRED, "models": None, "hill_k": None, "out": None},
    "hia": {**_HIA_DEFAULTS, "out": None},
    "sweep": {**_HIA_DEFAULTS, "vary": "noise_std", "min": 0.05, "max": 0.8,
              "points": 8, "seeds": 5, "out": _REQUIRED},
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _merge_params(command: str, args: argparse.Namespace) -> dict:
    merged = dict(DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r") as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ValueError("config file must hold a flat JSON object")
        unknown = sorted(set(config) - set(merged))
        if unknown:
            raise ValueError(
                f"config file has unknown key(s) for {command}: {', '.join(unknown)}"
            )
        merged.update(config)
    for key in DEFAULTS[command]:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = cli_value
    missing = [k for k, v in merged.items() if v is _REQUIRED]
    if missing:
        flags = ", ".join(
            k if k == "input" else "--" + k.replace("_", "-") for k in missing
        )
        raise ValueError(f"missing required option(s): {flags}")
    return merged


def _write_artifacts(command: str, params: dict, result: CommandResult) -> list:
    outputs = []
    for art in result.artifacts:
        atomic_write(art.path, art.write)
        outputs.append({"path": str(art.path), "sha256": sha256_file(art.path)})
    if outputs:
        manifest = {
            "command": command,
            "params": {k: v for k, v in params.items()},
            "seed": params.get("seed"),
            "version": __version__,
            "outputs": outputs,
        }
        atomic_write_text(_manifest_path(result.artifacts[0].path), dumps(manifest))
    return outputs


def _manifest_path(out_path: str) -> str:
    return str(out_path) + ".manifest.json"


def _run_command(command: str, args: argparse.Namespace) -> int:
    params = _merge_params(command, args)
    # validate output location before any heavy work
    for key in ("out",):
        if params.get(key):
            parent = os.path.dirname(os.path.abspath(params[key]))
            if not os.path.isdir(parent):
                raise ValueError(f"output directory does not exist: {parent}")
    result = EXECUTORS[command](params)
    outputs = _write_artifacts(command, params, result)
    if result.stdout_text is not None:
        sys.stdout.write(result.stdout_text)
    elif outputs:
        sys.stdout.write(dumps({"outputs": outputs, "manifest": _manifest_path(result.artifacts[0].path)}))
    return EXIT_OK


def _run_replay(args: argparse.Namespace) -> int:
    with open(args.manifest, "r") as fh:
        manifest = json.load(fh)
    for key in ("command", "params", "outputs"):
        if key not in manifest:
            raise ValueError(f"manifest is missing the {key!r} field")
    command = manifest["command"]
    if command not in EXECUTORS:
        raise ValueError(f"manifest names unknown command {command!r}")
    result = EXECUTORS[command](manifest["params"])
    # Regenerate into a scratch directory: replay only checks, it never
    # writes the recorded paths or the manifest.
    produced = {}
    with tempfile.TemporaryDirectory() as scratch:
        for i, art in enumerate(result.artifacts):
            regenerated = os.path.join(scratch, str(i))
            atomic_write(regenerated, art.write)
            produced[str(art.path)] = sha256_file(regenerated)
    recorded = {o["path"]: o["sha256"] for o in manifest["outputs"]}
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmtails",
        description=(
            "Simulate geometric Brownian motion observed at random exponential "
            "horizons, solve the resulting double-Pareto tail exponents, and "
            "fit competing heavy-tail models."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None,
                        help="flat JSON file supplying option defaults")
        return sp

    sp = add("solve", "tail exponents for (r, alpha, nu)")
    sp.add_argument("--r", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--nu", type=float)
    sp.add_argument("--convention", choices=["both", "canonical", "signed"])
    sp.add_argument("--out", help="also write the JSON to this path (with manifest)")

    sp = add("regime", "critical volatility and regime label")
    sp.add_argument("--r", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--out")

    sp = add("limits", "extreme-parameter checks of the closed-form exponents (CSV)")
    sp.add_argument("--r", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--nu", type=float)
    sp.add_argument("--out")

    sp = add("figure1", "exponents as a function of volatility (CSV for plotting)")
    sp.add_argument("--r", type=float)
    sp.add_argument("--nu", type=float)
    sp.add_argument("--alpha-min", type=float, dest="alpha_min")
    sp.add_argument("--alpha-max", type=float, dest="alpha_max")
    sp.add_argument("--points", type=int)
    sp.add_argument("--out")

    sp = add("simulate", "sample GBM terminal values or killed states to CSV")
    sp.add_argument("--mode", choices=["gbm", "killed"])
    sp.add_argument("--x0", type=float)
    sp.add_argument("--r", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--t", type=float, help="horizon (gbm mode)")
    sp.add_argument("--nu", type=float, help="observation rate (killed mode)")
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--workers", type=int,
                    help="shard the batch; results are independent of this")
    sp.add_argument("--out")

    sp = add("fit", "fit and compare heavy-tail models on a sample CSV")
    sp.add_argument("input", nargs="?", default=None)
    sp.add_argument("--models", help="comma-separated subset of "
                    + ",".join(ALL_MODELS))
    sp.add_argument("--hill-k", type=int, dest="hill_k",
                    help="override the upper-tail order-statistic count")
    sp.add_argument("--out")

    sp = add("hia", "run the interacting-agents simulation")
    sp.add_argument("--agents", type=int)
    sp.add_argument("--noise-std", type=float, dest="noise_std")
    sp.add_argument("--drift", type=float)
    sp.add_argument("--coupling-in", type=float, dest="coupling_in")
    sp.add_argument("--coupling-out", type=float, dest="coupling_out")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--floor", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="write final sizes as a sample CSV")

    sp = add("sweep", "sweep one agent parameter and track the fitted exponent")
    sp.add_argument("--vary", choices=["noise_std", "coupling_in", "coupling_out"])
    sp.add_argument("--min", type=float)
    sp.add_argument("--max", type=float)
    sp.add_argument("--points", type=int)
    sp.add_argument("--seeds", type=int)
    sp.add_argument("--agents", type=int)
    sp.add_argument("--noise-std", type=float, dest="noise_std")
    sp.add_argument("--drift", type=float)
    sp.add_argument("--coupling-in", type=float, dest="coupling_in")
    sp.add_argument("--coupling-out", type=float, dest="coupling_out")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--floor", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("replay", help="re-run a manifest and verify output digests")
    sp.add_argument("manifest")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _run_replay(args)
        return _run_command(args.command, args)
    except ValueError as exc:  # SampleCsvError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ReplayMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
