"""The benchmark's span tracer must still find every name it wraps, and
its workloads must still build their study through the package's models.

``bench/spans.py`` patches package functions where the calling module binds
them, and ``bench/workloads.py`` hands the diffusion draw straight to the
pair; a refactor that removes or renames one of those bindings, or changes
what the draw returns, would otherwise only surface when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import bifidelity.bound as bound
import bifidelity.cli as cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    spans = _load("spans")
    originals = [getattr(owner, attr) for owner, attr, _ in spans.TRACED]
    with spans.Tracer():
        pass
    assert [getattr(owner, attr) for owner, attr, _ in spans.TRACED] == originals
    assert cli.minimize_bound is bound.minimize_bound


def test_workloads_build_the_diffusion_study():
    workloads = _load("workloads")
    high, low = workloads.diffusion_study(1, 16, 32)
    n = workloads.STUDY_SAMPLES
    assert high.data.shape == (32, n) and low.data.shape == (16, n)
    assert high.sample_ids == low.sample_ids
    assert high.sample_ids[-1] == f"diff-{n - 1:04d}"
