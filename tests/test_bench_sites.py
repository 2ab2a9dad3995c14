"""The benchmark tracer's call sites exist in the package.

``bench/tracing.py`` wraps each ``(owner, attr)`` of its ``SITES`` on the
name callers look up, so renaming or deleting one of those names breaks
the benchmark.  This test reads the site list without installing the
tracer, so the break shows in the package's own suite.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
# an import kept only so that the tracer finds the name in that module
SHIM = re.compile(r"(\w+),?\s+# noqa: F401  bench/tracing\.SITES wraps this name here$")


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


def test_every_shim_import_names_a_traced_site():
    # once a site leaves SITES, the import kept for it is dead code
    shims = [
        (path.stem, match[1])
        for path in sorted((ROOT / "src" / "dtpsim").glob("*.py"))
        for line in path.read_text().splitlines()
        if (match := SHIM.search(line))
    ]
    assert shims, "no shim import found: the marker comment changed"
    sites = {(owner, attr) for _, owner, attr in load_sites()}
    assert [shim for shim in shims if shim not in sites] == []
