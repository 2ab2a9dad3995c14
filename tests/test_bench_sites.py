"""The benchmark tracer's call sites exist in the package.

``bench/tracing.py`` wraps each ``(owner, attr)`` of its ``SITES`` on the
name callers look up, so renaming or deleting one of those names breaks
the benchmark.  This test reads the site list without installing the
tracer, so the break shows in the package's own suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.SITES


def test_every_traced_site_resolves_on_the_package():
    missing = []
    for span, owner_path, attr in load_sites():
        module, *rest = owner_path.split(".")
        owner = importlib.import_module(f"dtpsim.{module}")
        for part in rest:
            owner = getattr(owner, part, None)
        # the tracer reads and patches vars(owner)[attr], so an inherited or
        # re-exported name elsewhere does not count
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{span}: dtpsim.{owner_path}.{attr}")
    assert not missing, missing
