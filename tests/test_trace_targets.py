"""Every layer the benchmark's tracer wraps still exists under its name.

perfbench/tracing.py rebinds named functions and methods of mfcontrol; a
target the program no longer has reads zero in the benchmark instead of
failing it.  This test fails instead, so a refactor that renames or moves a
traced layer updates the tracer's targets in the same change.
"""

import importlib.util
from pathlib import Path

import mfcontrol.cli  # noqa: F401  (the tracer wraps the modules already imported)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
