"""The benchmark's tracer (`perfbench/tracer.py`) times metacal by rebinding
the functions its `TRACED` table names, so a rename or deletion in `src/`
that the table does not follow breaks `perfbench/run.py --trace 1`.  Each
name must stay a callable of its layer, and a method must be defined on its
class itself, where the tracer looks it up (`vars(cls)`) and rebinds it."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced() -> tuple[tuple[str, str], ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer, name", _traced())
def test_traced_name_is_a_callable_of_its_layer(layer, name):
    owner = importlib.import_module(f"metacal.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        found = vars(getattr(owner, cls_name)).get(attr)
        found = found.__func__ if isinstance(found, classmethod) else found
    else:
        found = getattr(owner, name, None)
    assert callable(found), f"metacal.{layer}.{name} is not a callable"
