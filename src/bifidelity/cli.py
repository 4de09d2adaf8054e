"""Command-line surface.

Subcommands wire the pipeline together:

    generate   built-in model pairs -> paired snapshot files + manifest
    decompose  low-fidelity snapshots -> decomposition file
    samples    decomposition file -> required high-fidelity sample ids
    lift       decomposition + high-fidelity skeleton -> estimated ensemble
    bound      low-fidelity + sub-sampled high-fidelity columns -> report CSV
    efficacy   full pair -> table of bound/true-error ratios

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
All diagnostics go to stderr, one line each, and a warning does not change
the exit code; results and file paths go to stdout. A command writes its
files before its first stdout line, and a reader that closes stdout early
ends the run quietly with exit 0.
"""

import argparse
import dataclasses
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .bound import (
    GramianPair,
    default_tau_grid,
    efficacy_study,
    minimize_bound,
    tau_grid,
    write_bound_report,
)
from .errors import DataError, DimensionMismatch, NumericalError
from .interp import build_id
from .lifting import evaluate_all, lift, required_samples
from .linalg import singular_values
from .models import (
    BeamConfig,
    DiffusionConfig,
    beam_pair,
    diffusion_pair,
    draw_beam_samples,
    draw_diffusion_samples,
)
from .snapio import (
    _atomic_write,
    _json_bytes,
    read_id,
    read_snapshots,
    write_id,
    write_snapshots,
)
from .snapshots import SnapshotMatrix, _positional_ids

__all__ = ["cli_main", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line and exit 1, without argparse's usage text
        self.exit(1, f"error: {message}\n")


def _add_mode_flags(p):
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rank", type=int)
    mode.add_argument("--tol", type=float)


def _add_tau_flags(p):
    p.add_argument("--tau-min", type=float, default=None, help="grid lower bound")
    p.add_argument("--tau-max", type=float, default=None, help="grid upper bound")
    p.add_argument("--tau-count", type=int, default=None, help="grid point count")
    p.add_argument("--tau-scale", choices=("log", "linear"), default=None)


def _tau_grid_from_args(args):
    """The default grid when no tau flag is given; otherwise ``tau_grid``
    with each omitted flag at its default."""
    flags = {"tau_min": args.tau_min, "tau_max": args.tau_max,
             "count": args.tau_count, "scale": args.tau_scale}
    given = {name: value for name, value in flags.items() if value is not None}
    return tau_grid(**given) if given else default_tau_grid()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bifidelity", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("generate", help="run a built-in model pair")
    p.add_argument("model", choices=("beam", "diffusion"))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path prefix (default: model name)")
    p.add_argument("--format", choices=("bfsm", "csv"), default="bfsm")
    p.add_argument("--grid", type=int, default=BeamConfig.n_grid, help="beam output points")
    p.add_argument("--mesh-low", type=int, default=DiffusionConfig.mesh_low)
    p.add_argument("--mesh-high", type=int, default=DiffusionConfig.mesh_high)
    p.add_argument("--d-params", type=int, default=DiffusionConfig.d_params)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("decompose", help="build the interpolative decomposition")
    p.add_argument("--low", required=True, help="low-fidelity snapshot file")
    _add_mode_flags(p)
    p.add_argument("--out-id", required=True, help="output decomposition file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("samples", help="list required high-fidelity sample ids")
    p.add_argument("--id", dest="id_path", required=True)
    p.set_defaults(func=_cmd_samples)

    p = sub.add_parser("lift", help="apply the rule to high-fidelity skeleton columns")
    p.add_argument("--id", dest="id_path", required=True)
    p.add_argument("--high-skeleton", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("bfsm", "csv"), default="bfsm")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("bound", help="estimate the lifting error from sub-sampled columns")
    p.add_argument("--low", required=True)
    p.add_argument("--high-sub", required=True,
                   help="snapshot file holding only the sub-sampled high-fidelity columns")
    _add_mode_flags(p)
    _add_tau_flags(p)
    p.add_argument("--two-tau", action="store_true",
                   help="minimize the two bound terms over independent tau values")
    p.add_argument("--out", default=None, help="report CSV path")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("efficacy", help="bound/true-error ratios over repeated sub-samples")
    p.add_argument("--high", required=True)
    p.add_argument("--low", required=True)
    p.add_argument("--rank", type=int, default=10)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    _add_tau_flags(p)
    p.add_argument("--out", default=None, help="optional ratio CSV path")
    p.set_defaults(func=_cmd_efficacy)

    return parser


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _cmd_generate(args) -> list[str]:
    prefix = args.out or args.model
    if args.model == "beam":
        cfg = BeamConfig(n_grid=args.grid)
        samples = draw_beam_samples(args.samples, seed=args.seed)
        high, low = beam_pair(samples, cfg)
    else:
        cfg = DiffusionConfig(
            mesh_low=args.mesh_low, mesh_high=args.mesh_high, d_params=args.d_params
        )
        samples = draw_diffusion_samples(args.samples, seed=args.seed, cfg=cfg)
        high, low = diffusion_pair(samples, cfg)
    config_doc = dataclasses.asdict(cfg)
    high_path = f"{prefix}.high.{args.format}"
    low_path = f"{prefix}.low.{args.format}"
    provenance = {
        "model": args.model,
        "seed": args.seed,
        "samples": args.samples,
        "config": config_doc,
    }
    write_snapshots(high, high_path, fmt=args.format, provenance=provenance)
    write_snapshots(low, low_path, fmt=args.format, provenance=provenance)
    manifest = {
        "model": args.model,
        "seed": args.seed,
        "config": config_doc,
        "sample_ids": list(high.sample_ids),
        # basenames: the files sit next to the manifest, and relative names
        # keep reruns bitwise identical regardless of the working directory
        "files": {"high": Path(high_path).name, "low": Path(low_path).name},
    }
    manifest_path = f"{prefix}.manifest.json"
    _atomic_write(manifest_path, _json_bytes(manifest))
    return [high_path, low_path, manifest_path]


def _cmd_decompose(args) -> list[str]:
    low = read_snapshots(args.low)
    decomposition = build_id(low, rank=args.rank, tol=args.tol)
    ids = low.sample_ids
    del low  # the ensemble is freed before the JSON write, which peaks
    write_id(decomposition, args.out_id, sample_ids=ids)
    return [
        f"rank: {decomposition.rank}",
        f"selected columns: {list(decomposition.selected)}",
        f"required sample ids: {list(required_samples(decomposition, ids))}",
        f"residual norm: {decomposition.residual_norm!r}",
        f"coefficient norm: {decomposition.coeff_norm()!r}",
        args.out_id,
    ]


def _cmd_samples(args) -> list[str]:
    decomposition, ids = read_id(args.id_path)
    if ids is None:
        raise DataError(f"{args.id_path} carries no sample ids")
    return list(required_samples(decomposition, ids))


def _cmd_lift(args) -> list[str]:
    decomposition, ids = read_id(args.id_path)
    skeleton = read_snapshots(args.high_skeleton)
    if ids is not None:
        got, needed = skeleton.sample_ids, required_samples(decomposition, ids)
        if got != needed:
            # both lists can run to thousands of ids: name the first difference
            i = next((j for j, (a, b) in enumerate(zip(got, needed)) if a != b),
                     min(len(got), len(needed)))
            at = [repr(s[i]) if i < len(s) else "nothing" for s in (got, needed)]
            raise DimensionMismatch(
                f"high-fidelity skeleton has {len(got)} ids where {len(needed)} are "
                f"required; at position {i} it has {at[0]} where {at[1]} is required"
            )
    estimate = SnapshotMatrix._adopt(
        evaluate_all(lift(decomposition, skeleton.data)),
        ids if ids is not None else _positional_ids(decomposition.n_samples),
    )
    write_snapshots(estimate, args.out, fmt=args.format,
                    provenance={"kind": "bifidelity-estimate"})
    return [args.out]


def _cmd_bound(args) -> list[str]:
    grid = _tau_grid_from_args(args)
    low = read_snapshots(args.low)
    high_sub = read_snapshots(args.high_sub)

    positions = {sid: pos for pos, sid in enumerate(low.sample_ids)}
    try:
        idx = [positions[sid] for sid in high_sub.sample_ids]
    except KeyError as exc:
        raise DimensionMismatch(
            f"sub-sampled column id {exc.args[0]!r} not present in {args.low}"
        ) from exc

    decomposition = build_id(low, rank=args.rank, tol=args.tol)
    pair = GramianPair.from_columns(
        high_sub.data, low.data[:, idx], n_total=low.n_samples
    )
    sigma = singular_values(low.data)
    report = minimize_bound(pair, sigma, decomposition.coeff_norm(),
                            decomposition.residual_norm, grid, two_tau=args.two_tau)
    lines = [
        f"n_sub: {pair.n_sub} of {pair.n_total}",
        f"rank: {decomposition.rank}",
        f"best_rho: {report.best_rho!r}",
        f"best_tau: {report.best_tau!r}",
    ]
    if report.best_tau2 is not None:
        lines.append(f"best_tau2: {report.best_tau2!r}")
    lines += [f"best_k: {report.best_k}", f"b1: {report.b1!r}", f"b2: {report.b2!r}"]
    if args.out:
        write_bound_report(report, args.out)
        lines.append(args.out)
    return lines


def _cmd_efficacy(args) -> list[str]:
    grid = _tau_grid_from_args(args)
    high = read_snapshots(args.high)
    low = read_snapshots(args.low)
    result = efficacy_study(
        high, low, rank=args.rank, n_sub=args.n, trials=args.trials,
        seed=args.seed, grid=grid,
    )
    lines = [f"trial {t}: {float(r)!r}" for t, r in enumerate(result.ratios)]
    lines += [f"mean: {result.mean!r}", f"true_error: {result.true_error!r}"]
    if args.out:
        rows = ["trial,ratio"]
        rows.extend(f"{t},{float(r)!r}" for t, r in enumerate(result.ratios))
        rows.append(f"mean,{result.mean!r}")
        _atomic_write(args.out, ("\n".join(rows) + "\n").encode("utf-8"))
        lines.append(args.out)
    return lines


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _run(args) -> list[str]:
    """Run the command; each warning it raises is one stderr line, printed
    before its error or stdout lines, with no path or source line. The
    warning filters in force decide which warnings are raised, as they
    would for Python's own printing."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.func(args)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors, --help and --version
        return 0 if exc.code in (0, None) else 1
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    # the command writes its files and returns its stdout lines, so an
    # OSError here is a file's, and one while printing is stdout's; a path
    # holding a lone surrogate cannot be encoded
    try:
        lines = _run(args)
    except (DataError, OSError, UnicodeEncodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy names the size it could not allocate
        print(f"data error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # numpy refuses an array past its size limit with a plain ValueError;
        # any other, such as a LinAlgError, is a fault and stays one
        if type(exc) is not ValueError or not str(exc).startswith(
                ("Maximum allowed", "array is too big")):
            raise
        print(f"data error: cannot allocate: {exc}", file=sys.stderr)
        return 2
    try:
        for line in lines:
            print(line)
        print(end="", flush=True)  # like print, a no-op on a closed stdout
    except BrokenPipeError:
        # the reader stopped early, after the run's files were written; the
        # unflushed rest goes to /dev/null, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except OSError as exc:  # such as a full disk
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:
        # a sample id stdout cannot encode, such as a lone surrogate (BFSM
        # sidecars carry any string)
        print(f"data error: cannot print a sample id: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
