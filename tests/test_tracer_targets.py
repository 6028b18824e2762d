"""The benchmark's layer tracer names ctsim functions by module and
attribute path; a rename in ctsim must fail here, not in the benchmark."""

import importlib
import importlib.util
import pathlib

TRACER = (pathlib.Path(__file__).resolve().parent.parent
          / "perfbench" / "tracer.py")


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {**tracer.SPANS, **tracer.COUNTS}
    assert targets
    missing = []
    for metric, (module, path) in targets.items():
        owner = importlib.import_module(f"ctsim.{module}")
        *cls, attr = path.split(".")
        if cls:
            # methods are replaced in their class's own namespace
            target = vars(getattr(owner, cls[0], object)).get(attr)
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            missing.append(f"{metric}: ctsim.{module}.{path}")
    assert not missing
