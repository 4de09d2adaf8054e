"""The benchmark's span tracer must still find every name it wraps.

``bench/spans.py`` patches package functions where the calling module binds
them; a refactor that removes or renames one of those bindings would
otherwise only surface when the traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import bifidelity.bound as bound
import bifidelity.cli as cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_installs_and_restores_every_hook():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = [getattr(owner, attr) for owner, attr, _ in spans.TRACED]
    with spans.Tracer():
        pass
    assert [getattr(owner, attr) for owner, attr, _ in spans.TRACED] == originals
    assert cli.minimize_bound is bound.minimize_bound
