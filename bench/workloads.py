"""The four workloads: set-up, one timed operation, and its output checks.

Every workload writes its inputs into a work directory from the seed, then
repeats one *operation* (a CLI chain, one command, or one pass over a batch
of problems). An operation returns its timed wall seconds, the peak
RSS of the program's process, how many steps it attempted and how many
failed. Output checks run outside the timed region against references
computed here with plain numpy; a failed check is counted, never raised.

``cold=True`` runs each command as a fresh ``python -m bifidelity.cli``
process, as a user does. ``cold=False`` calls ``bifidelity.cli.cli_main``
in this process, which is how the traced run sees inside the commands.
"""

import contextlib
import io
import json
import os
import resource
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import bifidelity.bound as bound
import bifidelity.cli as cli
import bifidelity.interp as interp
import bifidelity.linalg as linalg
import bifidelity.models as models
import bifidelity.snapio as snapio
from bifidelity.snapshots import SnapshotMatrix

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The diffusion study shared by study-pipeline and efficacy-study.
STUDY_SAMPLES = 2000
STUDY_MESH = (16, 1024)
RANK = 10
N_SUB = 40
TRIALS = 100
# tolerance-id: a 256 x 2000 low-fidelity ensemble; a tol of 1e-11 sigma_1
# lands the chosen rank in the low twenties, where pivoted_qr runs to full
# rank and build_id checks one residual per candidate rank.
TOL_MESH = 256
TOL_REL = 1e-11
# theorem-sweep: 120 problems leave 12 samples above the p90 in every pass.
PROBLEMS = 120
WARMUP_PROBLEMS = 20
SIZES_SEED = 2024

BFSM_HEADER = struct.Struct("<4sIQQ")


def child_env() -> dict:
    """Environment of the CLI processes: the source tree on PYTHONPATH.

    The package is run from ``src/`` (as the test suite runs it), not from
    an installed copy. BLAS thread settings are inherited unchanged.
    """
    old = os.environ.get("PYTHONPATH")
    path = str(SRC) if not old else f"{SRC}{os.pathsep}{old}"
    return dict(os.environ, PYTHONPATH=path)


class Cmd:
    """Outcome of one command: exit code, stdout, wall seconds, peak RSS."""

    def __init__(self, rc, stdout, wall, rss_mb):
        self.rc = rc
        self.stdout = stdout
        self.wall = wall
        self.rss_mb = rss_mb


def run_cold(argv, work: Path, env: dict) -> Cmd:
    """Run ``python argv...`` as a fresh process and wait for it."""
    out_path = work / "cmd.stdout"
    with open(out_path, "wb") as out, open(work / "cmd.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=work, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Cmd(proc.returncode, out_path.read_text(encoding="utf-8"), wall,
               usage.ru_maxrss / 1024.0)


def run_cli(args, work: Path, cold: bool, env: dict) -> Cmd:
    """One ``bifidelity`` command, cold or in this process."""
    args = [str(a) for a in args]
    if cold:
        return run_cold(["-m", "bifidelity.cli", *args], work, env)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.cli_main(args)
        except Exception:  # a cold process would exit non-zero; so do we
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - start
    if rc:
        print(err.getvalue(), end="", file=sys.stderr)
    return Cmd(rc, out.getvalue(), wall, self_rss_mb())


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# plain-numpy file access and references
# --------------------------------------------------------------------------

def read_bfsm(path):
    """(data, ids) of a BFSM file and its sidecar, read with numpy only."""
    raw = Path(path).read_bytes()
    magic, _, dim, n = BFSM_HEADER.unpack_from(raw)
    if magic != b"BFSM" or len(raw) != BFSM_HEADER.size + 8 * dim * n:
        raise ValueError(f"{path}: not a complete BFSM file")
    data = np.frombuffer(raw, "<f8", offset=BFSM_HEADER.size).reshape(
        (dim, n), order="F")
    ids = json.loads(Path(f"{path}.json").read_text())["sample_ids"]
    return data, ids


def write_bfsm(path, data, ids) -> None:
    """Write a BFSM file and sidecar without going through the package."""
    data = np.asarray(data, dtype="<f8")
    header = BFSM_HEADER.pack(b"BFSM", 1, data.shape[0], data.shape[1])
    Path(path).write_bytes(header + data.tobytes(order="F"))
    Path(f"{path}.json").write_text(
        json.dumps({"provenance": {}, "sample_ids": list(ids)}) + "\n")


def passes(check, *args):
    """Run an output check; unreadable output fails it instead of raising."""
    try:
        return check(*args)
    except (ValueError, KeyError, IndexError, TypeError, OSError, struct.error,
            StopIteration, np.linalg.LinAlgError):
        return None


def norm2(a) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def projection_residual(low, cols) -> float:
    """||L - P L|| with P the orthogonal projector onto L[:, cols]."""
    q, _ = np.linalg.qr(low[:, list(cols)])
    return norm2(low - q @ (q.T @ low))


def reference_best_rho(high_sub, low_sub, n_total, low, coeffs, id_residual,
                       taus) -> float:
    """min over (k, tau) of rho_k(tau), one eigvalsh per tau."""
    c = n_total / high_sub.shape[1]
    gh = high_sub.T @ high_sub
    gl = low_sub.T @ low_sub
    eps = np.array([c * np.linalg.eigvalsh(gh - t * gl)[-1] for t in taus])
    s = np.linalg.svd(low, compute_uv=False)
    rank = int(np.count_nonzero(s > 1e-12 * s[0]))
    sk = s[:rank]
    skp1 = np.append(s[1:rank], 0.0)
    cl = norm2(coeffs)
    rad1 = taus[:, None] * skp1**2 + eps[:, None]
    rad2 = taus[:, None] + eps[:, None] / sk**2
    ok = (rad1 >= 0) & (rad2 >= 0)
    rho = (1 + cl) * np.sqrt(np.where(ok, rad1, 0)) \
        + id_residual * np.sqrt(np.where(ok, rad2, 0))
    return float(np.min(rho[ok]))


def id_coefficients(low, selected):
    """Interpolation coefficients for given skeleton columns (least squares)."""
    coeffs, *_ = np.linalg.lstsq(low[:, list(selected)], low, rcond=None)
    return coeffs


def diffusion_study(seed: int, mesh_low: int, mesh_high: int):
    cfg = models.DiffusionConfig(mesh_low=mesh_low, mesh_high=mesh_high)
    samples = models.draw_diffusion_samples(STUDY_SAMPLES, seed=seed, cfg=cfg)
    return models.diffusion_pair(samples, cfg)


def write_study(work: Path, seed: int):
    """The shared 2000-sample study, written as study.{high,low}.bfsm."""
    high, low = diffusion_study(seed, *STUDY_MESH)
    snapio.write_snapshots(high, work / "study.high.bfsm")
    snapio.write_snapshots(low, work / "study.low.bfsm")
    return high, low


class Op:
    """Timed figures and outcome of one operation."""

    def __init__(self, wall, rss_mb, attempted, failed, detail=None):
        self.wall = wall
        self.rss_mb = rss_mb
        self.attempted = attempted
        self.failed = failed
        self.detail = detail or {}


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.env = child_env()

    def setup(self) -> None:
        """Generate and write the inputs (timed as setup_s)."""

    def prepare(self) -> None:
        """Untimed preparation after set-up: references for the checks."""

    def warm_up(self, cold: bool) -> None:
        """Fill caches so the first timed operation is not an outlier."""
        if cold:
            run_cold(["-c", "import bifidelity.cli"], self.work, self.env)
        else:
            self.op(cold=False)

    def op(self, cold: bool) -> Op:
        raise NotImplementedError


# --------------------------------------------------------------------------
# study-pipeline: decompose -> samples -> lift -> bound, as cold processes
# --------------------------------------------------------------------------

class StudyPipeline(Workload):
    """The user path of the CLI, one cold process per command."""

    name = "study-pipeline"

    def setup(self):
        high, low = write_study(self.work, self.seed)
        rng = np.random.default_rng(self.seed)
        idx = np.sort(rng.choice(low.n_samples, size=N_SUB, replace=False))
        snapio.write_snapshots(
            SnapshotMatrix(high.data[:, idx], tuple(high.sample_ids[j] for j in idx)),
            self.work / "study.sub.bfsm")
        self.high, self.low, self.idx = high.data, low.data, idx
        self.ids = list(high.sample_ids)

    def op(self, cold):
        w = self.work
        id_path, skel, est, report = (w / "study.id.json", w / "skel.bfsm",
                                      w / "est.bfsm", w / "report.csv")
        for p in (id_path, skel, est, report):
            p.unlink(missing_ok=True)
        cmds, ok = {}, {}
        cmds["decompose"] = run_cli(
            ["decompose", "--low", w / "study.low.bfsm", "--rank", RANK,
             "--out-id", id_path], w, cold, self.env)
        doc = passes(self.check_decompose, cmds["decompose"], id_path)
        ok["decompose"] = doc is not None
        cmds["samples"] = run_cli(["samples", "--id", id_path], w, cold, self.env)
        ok["samples"] = doc is not None and passes(self.check_samples, cmds["samples"], doc)
        if ok["samples"]:
            # stands in for the expensive runs: not timed
            required = cmds["samples"].stdout.split()
            cols = [self.ids.index(s) for s in required]
            write_bfsm(skel, self.high[:, cols], required)
        cmds["lift"] = run_cli(
            ["lift", "--id", id_path, "--high-skeleton", skel, "--out", est],
            w, cold, self.env)
        ok["lift"] = doc is not None and passes(self.check_lift, cmds["lift"], est, doc)
        cmds["bound"] = run_cli(
            ["bound", "--low", w / "study.low.bfsm", "--high-sub",
             w / "study.sub.bfsm", "--rank", RANK, "--out", report],
            w, cold, self.env)
        ok["bound"] = doc is not None and passes(
            self.check_bound, cmds["bound"], report, doc)
        return Op(
            wall=sum(c.wall for c in cmds.values()),
            rss_mb=max(c.rss_mb for c in cmds.values()),
            attempted=len(cmds),
            failed=sum(not v for v in ok.values()),
            detail={f"{k}_s": c.wall for k, c in cmds.items()},
        )

    def check_decompose(self, cmd, id_path):
        """The decomposition document, or None when it is wrong."""
        if cmd.rc != 0 or not id_path.exists():
            return None
        doc = json.loads(id_path.read_text())
        sel = doc["selected"]
        coeffs = np.asarray(doc["coeffs"])
        if doc["rank"] != RANK or len(set(sel)) != RANK:
            return None
        if not np.allclose(coeffs[:, sel], np.eye(RANK), rtol=0, atol=1e-12):
            return None
        resid = norm2(self.low - self.low[:, sel] @ coeffs)
        if not close(resid, doc["residual_norm"], 1e-9):
            return None
        return doc

    def check_samples(self, cmd, doc):
        return cmd.rc == 0 and cmd.stdout.split() == [self.ids[j] for j in doc["selected"]]

    def check_lift(self, cmd, est, doc):
        """The lifted file equals H[:, selected] @ C from the decomposition."""
        if cmd.rc != 0 or not est.exists():
            return False
        data, ids = read_bfsm(est)
        ref = self.high[:, doc["selected"]] @ np.asarray(doc["coeffs"])
        scale = float(np.max(np.abs(ref)))
        return ids == self.ids and bool(np.max(np.abs(data - ref)) <= 1e-12 * scale)

    def check_bound(self, cmd, report, doc):
        """best_rho equals a per-tau eigvalsh recomputation on the same grid."""
        if cmd.rc != 0 or not report.exists():
            return False
        out = dict(line.split(": ", 1) for line in cmd.stdout.splitlines() if ": " in line)
        rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
        taus = np.array(sorted({float(r[1]) for r in rows if r[4] != "summary"}))
        ref = reference_best_rho(
            self.high[:, self.idx], self.low[:, self.idx], self.low.shape[1],
            self.low, np.asarray(doc["coeffs"]), doc["residual_norm"], taus)
        best = float(out["best_rho"])
        return close(best, ref, 1e-9) and close(float(rows[-1][3]), best, 0.0)


# --------------------------------------------------------------------------
# efficacy-study: one cold `efficacy` over the same study
# --------------------------------------------------------------------------

class EfficacyStudy(Workload):
    """Repeated sub-sampled sweeps plus two full spectral norms."""

    name = "efficacy-study"

    def setup(self):
        high, low = write_study(self.work, self.seed)
        self.high, self.low = high.data, low.data

    def prepare(self):
        self.verified = None  # stdout of the first checked invocation
        # the skeleton choice is the package's pivoting; all else is numpy
        self.selected = list(interp.build_id(self.low, rank=RANK).selected)

    def op(self, cold):
        w = self.work
        cmd = run_cli(
            ["efficacy", "--high", w / "study.high.bfsm", "--low",
             w / "study.low.bfsm", "--rank", RANK, "--n", N_SUB,
             "--trials", TRIALS, "--seed", self.seed], w, cold, self.env)
        ok = passes(self.check, cmd)
        return Op(cmd.wall, cmd.rss_mb, 1, int(not ok),
                  {"trials_per_s": TRIALS / cmd.wall})

    def check(self, cmd) -> bool:
        """Ratios finite; one sampled trial recomputed with numpy."""
        if cmd.rc != 0:
            return False
        lines = cmd.stdout.splitlines()
        ratios = np.array([float(x.split(": ")[1]) for x in lines
                           if x.startswith("trial ")])
        if ratios.size != TRIALS or not np.all(np.isfinite(ratios) & (ratios > 0)):
            return False
        if self.verified is not None:
            return cmd.stdout == self.verified
        true_error = float(next(x for x in lines if x.startswith("true_error"))
                           .split(": ")[1])
        # replay the study's sub-sampling to reach one trial picked by seed
        pick = self.seed % TRIALS
        rng = np.random.default_rng(self.seed)
        for _ in range(pick + 1):
            idx = np.sort(rng.choice(self.low.shape[1], size=N_SUB, replace=False))
        sel = self.selected
        coeffs = id_coefficients(self.low, sel)
        ref_true = norm2(self.high - self.high[:, sel] @ coeffs)
        id_res = norm2(self.low - self.low[:, sel] @ coeffs)
        ref_rho = reference_best_rho(
            self.high[:, idx], self.low[:, idx], self.low.shape[1], self.low,
            coeffs, id_res, bound.default_tau_grid())
        good = close(true_error, ref_true, 1e-6) and \
            close(float(ratios[pick]), ref_rho / ref_true, 1e-6)
        if good:
            self.verified = cmd.stdout
        return good


# --------------------------------------------------------------------------
# tolerance-id: one cold `decompose --tol` on a 256 x 2000 ensemble
# --------------------------------------------------------------------------

class ToleranceId(Workload):
    """Tolerance-mode decomposition: full-rank QR and a residual per rank."""

    name = "tolerance-id"

    def setup(self):
        _, low = diffusion_study(self.seed, TOL_MESH, TOL_MESH)
        snapio.write_snapshots(low, self.work / "tol.low.bfsm")
        self.low = low.data

    def prepare(self):
        self.tol = TOL_REL * norm2(self.low)
        self.verified = None
        self.rank = None  # chosen rank, from the first checked file

    def op(self, cold):
        w = self.work
        id_path = w / "tol.id.json"
        id_path.unlink(missing_ok=True)
        cmd = run_cli(["decompose", "--low", w / "tol.low.bfsm", "--tol",
                       repr(self.tol), "--out-id", id_path], w, cold, self.env)
        ok = passes(self.check, cmd, id_path)
        return Op(cmd.wall, cmd.rss_mb, 1, int(not ok), {"rank": self.rank})

    def check(self, cmd, id_path) -> bool:
        """The rank is minimal: residual <= tol at r and > tol at r - 1."""
        if cmd.rc != 0 or not id_path.exists():
            return False
        text = id_path.read_text()
        if self.verified is not None:
            return text == self.verified
        doc = json.loads(text)
        sel, r = doc["selected"], doc["rank"]
        self.rank = r
        # the ID reconstruction is the projection onto the skeleton columns;
        # 1e-3 covers the rounding of the two ways of computing it
        at_r = projection_residual(self.low, sel)
        below = projection_residual(self.low, sel[:r - 1]) if r > 1 else norm2(self.low)
        good = (at_r <= self.tol * (1 + 1e-3) and below > self.tol * (1 - 1e-3)
                and close(at_r, doc["residual_norm"], 1e-3))
        if good:
            self.verified = text
        return good


# --------------------------------------------------------------------------
# theorem-sweep: build_id + minimize_bound on many small full-Gramian pairs
# --------------------------------------------------------------------------

def controlled_pair(rng, m, n, m_high):
    """L (m x n) with a geometric spectrum and H = T0 L + E0 (m_high x n).

    Mirrors the generator of the test suite's theorem-validity criterion,
    with the sizes passed in.
    """
    decay = rng.uniform(0.3, 0.9)
    sig = decay ** np.arange(m)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, m)))
    low = (u * sig) @ v.T
    t0 = rng.standard_normal((m_high, m)) / np.sqrt(m)
    e0 = 1e-3 * rng.standard_normal((m_high, n)) / np.sqrt(n)
    return t0 @ low + e0, low


class TheoremSweep(Workload):
    """Many tiny sweeps in process: per-call overhead, n > dim_h + dim_l.

    The problems are handed to the library as in-memory snapshot matrices:
    writing 240 small files made the set-up time depend on the file system
    more than on the generator.
    """

    name = "theorem-sweep"

    def setup(self):
        # Sizes and ranks come from a fixed stream, drawn as the criterion
        # draws them (dims 3..40, m < N <= 80, 1 <= r < m), so that every
        # seed asks for the same amount of work; the seed draws the contents.
        sizes = np.random.default_rng(SIZES_SEED)
        contents = np.random.default_rng(self.seed)
        self.problems = []
        for i in range(PROBLEMS):
            m = int(sizes.integers(3, 41))
            n = int(sizes.integers(m + 1, 81))
            m_high = int(sizes.integers(3, 41))
            rank = int(sizes.integers(1, m))
            high, low = controlled_pair(contents, m, n, m_high)
            ids = tuple(f"p{i:03d}-{j:03d}" for j in range(n))
            self.problems.append(
                (SnapshotMatrix(high, ids), SnapshotMatrix(low, ids), rank))

    @staticmethod
    def solve(high, low, rank):
        """One problem through the library, as the calling code binds it."""
        dec = interp.build_id(low, rank=rank)
        pair = bound.GramianPair.full(high, low)
        report = bound.minimize_bound(
            pair, linalg.singular_values(low.data), dec.coeff_norm(),
            dec.residual_norm)
        return dec, report

    def warm_up(self, cold):
        for problem in self.problems[:WARMUP_PROBLEMS]:
            self.solve(*problem)

    def op(self, cold):
        latencies, results = [], []
        for problem in self.problems:
            start = time.perf_counter()
            try:
                results.append(self.solve(*problem))
            except Exception:  # count the problem as failed, keep running
                traceback.print_exc()
                results.append(None)
            latencies.append(time.perf_counter() - start)
        failed = sum(res is None or not passes(self.check, high.data, *res)
                     for (high, _, _), res in zip(self.problems, results))
        return Op(sum(latencies), self_rss_mb(), len(self.problems), failed,
                  {"latencies": latencies})

    @staticmethod
    def check(high, dec, report) -> bool:
        """best_rho >= ||H - H_hat|| - 1e-8 ||H||."""
        h_hat = high[:, list(dec.selected)] @ dec.coeffs
        return report.best_rho >= norm2(high - h_hat) - 1e-8 * norm2(high)


WORKLOADS = {w.name: w for w in (StudyPipeline, EfficacyStudy, ToleranceId, TheoremSweep)}
