"""The traced benchmark reaches into the package by name; keep those names alive."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(tmp_path):
    tracer = _load_tracer()
    for _, _, owner, attr in tracer.TARGETS:
        mod_name, _, cls_name = owner.partition(":")
        assert mod_name.startswith("qspecies"), owner
        holder = importlib.import_module(mod_name)
        if cls_name:
            holder = getattr(holder, cls_name)
            assert attr in vars(holder), "%s.%s is traced but gone" % (owner, attr)
        else:
            assert hasattr(holder, attr), "%s.%s is traced but gone" % (owner, attr)
    # the lookup the benchmark itself does
    t = tracer.Tracer(str(tmp_path / "trace"))
    try:
        t.install()
        assert t.patches
    finally:
        t.close()
