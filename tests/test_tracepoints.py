"""Every name the benchmark's tracer wraps, times or counts exists in
arksim, so a rename or deletion fails here, in tier-1, and not only in the
benchmark run.  `perfbench/tracer.py` is read, never edited."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", sorted(tracer.TRACED))
def test_every_traced_name_resolves(layer):
    module = importlib.import_module(f"arksim.{layer}")
    missing = []
    for qualname in tracer.TRACED[layer]:
        owner, _, attr = qualname.rpartition(".")
        # the tracer wraps a method from its class's own __dict__
        scope = getattr(module, owner, None) if owner else module
        if scope is None or attr not in vars(scope):
            missing.append(qualname)
    assert missing == []


@pytest.mark.parametrize("table", ["TIMED", "COUNTED"])
def test_every_timed_and_counted_name_is_traced(table):
    # `<layer>.<function>` metrics read the spans of a traced name
    traced = {(layer, q.rpartition(".")[2]) for layer, names in tracer.TRACED.items()
              for q in names}
    wanted = {(layer, f) for layer, names in getattr(tracer, table).items() for f in names}
    assert wanted - traced == set()
