"""The benchmark's workloads: the CLI command sequence of each, and the checks
that every command's outputs are correct.

A workload is a fixed list of ``gbmtails`` commands run one after another in a
fresh working directory (closed loop, one client). Only the ``--seed`` of each
command changes with the workload seed; everything else is fixed, so the work
per sequence is the same at every seed.

Checks are attributed to the command whose output they inspect, so a failed
check counts that command as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

KILLED_N = 500_000
GBM_N = 200_000
FIGURE1_POINTS = 100_000
HIA_AGENTS = 1000
HIA_STEPS = 400
SWEEP_POINTS = 4
SWEEP_SEEDS = 2

R, ALPHA, NU, X0, GBM_T = 0.05, 0.2, 0.01, 1.0, 10.0
PROCESS = ("--r", "0.05", "--alpha", "0.2")

# Kolmogorov-Smirnov acceptance: sqrt(n) * D <= KS_SQRT_N_TOL. The asymptotic
# Kolmogorov tail gives P(sqrt(n) D > 3) ~= 2 exp(-18) ~= 3e-8 for a correct
# sampler, so a correct program never fails it at any seed, while a wrong
# exponent, horizon law or transform moves D far past 3 / sqrt(n).
KS_SQRT_N_TOL = 3.0

# sha256 of the artifacts the roadmap keeps byte-identical, taken from the
# seed commit. Seeded artifacts are pinned at DEFAULT_SEED, sequence 0 only;
# the others take no seed and are pinned at every seed.
PINNED = {
    "killed_csv": "c3b21f7836b974d34926f764630d82efa85b23ff920f2951deb69a2732b051f0",
    "gbm_csv": "18b1d994ace4560770955902700fe406b275b11f4ba5a94ebe1589aa1a8e012c",
    "hia_csv": "f061924c2cef8d15bd7d40ef2fc0ba731d0c1410ae405a3f2e64fe83db3807eb",
    "solve_json": "d83e722f516ae579e50d8fa89f10eb2a87dccb6b2daad82c8a9e0a36024a5b45",
    "limits_csv": "e34d0c59bf13d5d57512a067be96924de9a5d24a35f831fdf80f12e3c75dab29",
    "figure1_csv": "9a16c9119d2529ae3c2a3f03a350e0f249e98136399a895544e7f79387f63102",
}
SEEDED_PINS = ("killed_csv", "gbm_csv", "hia_csv")

FIT_KEYS = {"n", "source", "models", "errors", "preferred"}
FIT_MODEL_KEYS = {"model", "parameters", "log_likelihood", "aic", "ks_statistic"}
MODELS = {"double_pareto", "lognormal", "pareto_tail"}
SWEEP_HEADER = "noise_std,coupling,effective_alpha,m1_hat,preferred_model,spearman_rho"

WORKLOADS = ("killed_pipeline", "agent_sweep", "solver_fixed_horizon")

# Input size per workload, recorded with every result.
INPUT_SIZES = {
    "killed_pipeline": {"killed_rows": KILLED_N},
    "agent_sweep": {"agents": HIA_AGENTS, "steps": HIA_STEPS,
                    "sweep_points": SWEEP_POINTS, "sweep_seeds": SWEEP_SEEDS},
    "solver_fixed_horizon": {"figure1_points": FIGURE1_POINTS, "gbm_rows": GBM_N},
}


@dataclass(frozen=True)
class Command:
    metric: str  # end-to-end timing this command's wall time feeds
    args: tuple  # gbmtails arguments


@dataclass
class Record:
    """One executed command: exit code, wall time and the files it left."""

    metric: str
    args: list
    rc: int
    wall_s: float
    stdout: str
    digests: dict  # file name -> sha256, for every file after the command
    maxrss_kb: int = 0
    cpu_s: float = 0.0  # user + system time of the process and the children it waited for
    problems: list = field(default_factory=list)


def derive_seed(workload: str, seed: int, rep: int, slot: int) -> int:
    """Command seed from (workload seed, sequence index, command slot).

    Hashed rather than added, so neighbouring workload seeds never share a
    command seed.
    """
    key = f"perfbench/{workload}/{seed}/{rep}/{slot}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def commands(workload: str, seed: int, rep: int) -> list:
    def s(slot):
        return str(derive_seed(workload, seed, rep, slot))

    killed = ("simulate", "--mode", "killed", *PROCESS, "--nu", "0.01",
              "--n", str(KILLED_N), "--seed", s(0))
    if workload == "killed_pipeline":
        return [
            Command("simulate_s", killed + ("--workers", "1", "--out", "killed.csv")),
            Command("simulate_workers2_s",
                    killed + ("--workers", "2", "--out", "killed_w2.csv")),
            Command("fit_s", ("fit", "killed.csv", "--out", "fit_killed.json")),
            Command("replay_s", ("replay", "killed.csv.manifest.json")),
        ]
    if workload == "agent_sweep":
        return [
            Command("hia_s", ("hia", "--seed", s(0), "--out", "hia.csv")),
            Command("sweep_s", ("sweep", "--vary", "noise_std", "--agents", str(HIA_AGENTS),
                                "--steps", str(HIA_STEPS), "--points", str(SWEEP_POINTS),
                                "--seeds", str(SWEEP_SEEDS), "--seed", s(1),
                                "--out", "sweep.csv")),
        ]
    if workload == "solver_fixed_horizon":
        return [
            Command("solve_s", ("solve", *PROCESS, "--nu", "0.01", "--out", "solve.json")),
            Command("limits_s", ("limits", *PROCESS, "--nu", "0.01", "--out", "limits.csv")),
            Command("figure1_s", ("figure1", "--r", "0.05", "--nu", "0.01",
                                  "--alpha-min", "0.05", "--alpha-max", "2",
                                  "--points", str(FIGURE1_POINTS), "--out", "figure1.csv")),
            Command("simulate_s", ("simulate", "--mode", "gbm", *PROCESS, "--t", "10",
                                   "--n", str(GBM_N), "--seed", s(0), "--out", "gbm.csv")),
            Command("fit_s", ("fit", "gbm.csv", "--out", "fit_gbm.json")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def file_digests(directory: Path) -> dict:
    """sha256 of every regular, non-hidden file in ``directory``."""
    out = {}
    for entry in sorted(os.scandir(directory), key=lambda e: e.name):
        if entry.is_file() and not entry.name.startswith("."):
            digest = hashlib.sha256()
            with open(entry.path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            out[entry.name] = digest.hexdigest()
    return out


# ---------------------------------------------------------------------------
# Checks. Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------


def _pin(label: str, digest, pinned_here: bool) -> list:
    if label in SEEDED_PINS and not pinned_here:
        return []
    if digest != PINNED[label]:
        return [f"{label} sha256 {digest} != pinned {PINNED[label]}"]
    return []


def _column(path: Path, header: str, col: int, ncols: int) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path.name}: header {first!r} != {header!r}")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if values.shape[1] != ncols:
        raise ValueError(f"{path.name}: {values.shape[1]} columns, expected {ncols}")
    return values[:, col]


def _positive_rows(values: np.ndarray, n: int, name: str) -> list:
    if values.size != n:
        return [f"{name}: {values.size} rows, expected {n}"]
    if not np.all(np.isfinite(values) & (values > 0)):
        return [f"{name}: non-finite or non-positive values"]
    return []


def _ks(sorted_x: np.ndarray, cdf: np.ndarray, name: str) -> list:
    n = sorted_x.size
    grid = np.arange(1, n + 1) / n
    d = max(float(np.max(grid - cdf)), float(np.max(cdf - (grid - 1.0 / n))))
    if math.sqrt(n) * d > KS_SQRT_N_TOL:
        return [f"{name}: KS distance {d:.6g} > {KS_SQRT_N_TOL} / sqrt({n})"]
    return []


def _killed_state_ks(path: Path) -> list:
    from gbmtails.dpareto import dpareto_cdf, killed_state_dist
    from gbmtails.killing import KillSchedule
    from gbmtails.sde import GbmParams

    state = _column(path, "kill_time,state", 1, 2)
    problems = _positive_rows(state, KILLED_N, path.name)
    if problems:
        return problems
    dist = killed_state_dist(GbmParams(x0=X0, r=R, alpha=ALPHA), KillSchedule(nu=NU))
    # Cross-check the package's exponents against the roots of
    # (alpha^2/2) m^2 + (r - alpha^2/2) m - nu = 0: m1 > 0 and -m2 < 0.
    a, b, c = 0.5 * ALPHA * ALPHA, R - 0.5 * ALPHA * ALPHA, -NU
    disc = math.sqrt(b * b - 4 * a * c)
    m1, m2 = (-b + disc) / (2 * a), (b + disc) / (2 * a)
    if not (math.isclose(dist.m1, m1, rel_tol=1e-9) and math.isclose(dist.m2, m2, rel_tol=1e-9)):
        return [f"killed_state_dist exponents ({dist.m1}, {dist.m2}) != ({m1}, {m2})"]
    x = np.sort(state)
    return _ks(x, dpareto_cdf(dist, x), "killed state vs killed_state_dist")


def _gbm_ks(path: Path) -> list:
    from scipy.special import ndtr

    values = _column(path, "value", 0, 1)
    problems = _positive_rows(values, GBM_N, path.name)
    if problems:
        return problems
    mean = math.log(X0) + (R - 0.5 * ALPHA * ALPHA) * GBM_T
    std = ALPHA * math.sqrt(GBM_T)
    y = np.sort(np.log(values))
    return _ks(y, ndtr((y - mean) / std), "gbm log-values vs exact normal law")


def _fit_doc(doc: dict, n: int, preferred: str | None) -> list:
    if not FIT_KEYS <= set(doc):
        return [f"fit JSON lacks keys {sorted(FIT_KEYS - set(doc))}"]
    problems = []
    for m in doc["models"]:
        if not FIT_MODEL_KEYS <= set(m) or m["model"] not in MODELS:
            problems.append(f"malformed model entry {m.get('model')!r}")
    if doc["n"] != n:
        problems.append(f"fit n={doc['n']}, expected {n}")
    if preferred is not None and doc["preferred"] != preferred:
        problems.append(f"preferred {doc['preferred']!r}, expected {preferred!r}")
    return problems


def _fit_file(path: Path, n: int, preferred: str) -> list:
    with open(path) as fh:
        return _fit_doc(json.load(fh), n, preferred)


def _sweep(path: Path, stdout: str) -> list:
    lines = path.read_text().splitlines()
    if lines[0] != SWEEP_HEADER:
        return [f"sweep header {lines[0]!r}"]
    problems = []
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != SWEEP_POINTS or any(len(r) != 6 for r in rows):
        problems.append(f"sweep CSV has {len(rows)} rows, expected {SWEEP_POINTS} of 6 fields")
        return problems
    varied = [float(r[0]) for r in rows]
    if varied != [float(v) for v in np.linspace(0.05, 0.8, SWEEP_POINTS)]:
        problems.append(f"sweep noise_std column {varied}")
    for r in rows:
        for v in (r[1], r[2], r[3], r[5]):
            float(v)  # raises on a non-numeric field
        if r[4] not in MODELS | {"none"}:
            problems.append(f"sweep preferred_model {r[4]!r}")
    doc = json.loads(stdout)
    rho = doc.get("spearman_rho")
    if doc.get("varied") != "noise_std" or isinstance(rho, bool) or not isinstance(rho, (int, float)):
        problems.append(f"sweep stdout {doc!r}")
    return problems


def _hia(path: Path, stdout: str) -> list:
    problems = _positive_rows(_column(path, "value", 0, 1), HIA_AGENTS, path.name)
    doc = json.loads(stdout)
    alpha = doc.get("effective_alpha")
    if not (isinstance(alpha, float) and math.isfinite(alpha) and alpha > 0):
        problems.append(f"hia effective_alpha {alpha!r}")
    return problems + _fit_doc(doc.get("fit", {}), HIA_AGENTS, None)


def _checks_for(workload: str, records: list, workdir: Path, pinned_here: bool) -> list:
    """One zero-argument check per command, in command order."""
    d = [r.digests for r in records]
    if workload == "killed_pipeline":
        first = d[0].get("killed.csv")
        return [
            lambda: _pin("killed_csv", first, pinned_here)
            + _killed_state_ks(workdir / "killed.csv"),
            lambda: [] if d[1].get("killed_w2.csv") == first else
            [f"--workers 2 sha256 {d[1].get('killed_w2.csv')} != --workers 1 {first}"],
            lambda: _fit_file(workdir / "fit_killed.json", KILLED_N, "double_pareto"),
            # The manifest's own "reproduced" flag is not trusted: replay
            # rewrites the artifact before comparing, so compare bytes here.
            lambda: [] if d[3].get("killed.csv") == first else
            [f"replay left killed.csv sha256 {d[3].get('killed.csv')} != {first}"],
        ]
    if workload == "agent_sweep":
        return [
            lambda: _pin("hia_csv", d[0].get("hia.csv"), pinned_here)
            + _hia(workdir / "hia.csv", records[0].stdout),
            lambda: _sweep(workdir / "sweep.csv", records[1].stdout),
        ]
    if workload == "solver_fixed_horizon":
        return [
            lambda: _pin("solve_json", d[0].get("solve.json"), pinned_here),
            lambda: _pin("limits_csv", d[1].get("limits.csv"), pinned_here),
            lambda: _pin("figure1_csv", d[2].get("figure1.csv"), pinned_here),
            lambda: _pin("gbm_csv", d[3].get("gbm.csv"), pinned_here)
            + _gbm_ks(workdir / "gbm.csv"),
            lambda: _fit_file(workdir / "fit_gbm.json", GBM_N, "lognormal"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, seed: int, rep: int, records: list, workdir: Path) -> None:
    """Fill ``problems`` of every record; a non-zero exit is a problem too.

    A check that raises (missing or malformed output) is reported as a
    problem of its command, never as a crash of the benchmark.
    """
    if not records:
        return
    pinned_here = seed == DEFAULT_SEED and rep == 0
    for record, fn in zip(records, _checks_for(workload, records, workdir, pinned_here)):
        if record.rc != 0:
            record.problems.append(f"exit code {record.rc}")
            continue
        try:
            record.problems.extend(fn())
        except Exception as exc:  # a check must report, never abort the run
            record.problems.append(f"check raised {type(exc).__name__}: {exc}")
