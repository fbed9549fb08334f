"""The bench tracer's targets exist and its patches come off cleanly.

A refactor that renames or deletes a traced function fails here, not in
the next traced bench run.  bench/tracing.py is loaded from its file and
not modified.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import heiscf

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("heiscf_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def heiscf_modules():
    for info in pkgutil.walk_packages(heiscf.__path__, "heiscf."):
        importlib.import_module(info.name)
    return {n: m for n, m in sys.modules.items()
            if m is not None and (n == "heiscf" or n.startswith("heiscf."))}


def resolve(mod_name: str, attr: str):
    """The traced object's owner and key: a module or, for a method, its class."""
    owner = sys.modules[mod_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def test_install_patches_every_target_and_uninstall_restores():
    tracing = load_tracing()
    modules = heiscf_modules()
    before = {n: dict(vars(m)) for n, m in modules.items()}
    owners = [resolve(mod_name, attr) for mod_name, attr, _, _ in tracing.TARGETS]
    originals = [owner.__dict__[key] for owner, key in owners]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, key), orig in zip(owners, originals):
            assert owner.__dict__[key] is not orig, f"{owner.__name__}.{key} not patched"
    finally:
        tracer.uninstall()

    for (owner, key), orig in zip(owners, originals):
        assert owner.__dict__[key] is orig
    for n, m in modules.items():
        after = vars(m)
        assert all(after[k] is v for k, v in before[n].items()), n
