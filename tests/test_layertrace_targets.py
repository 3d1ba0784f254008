"""perfbench/layertrace.py: every call site the tracer patches exists.

The tracer looks each target up as ``owner.__dict__[attr]``; a renamed
function or a dropped import would otherwise fail only in a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
layertrace = sys.modules["layertrace"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)  # its dataclasses look the module up by name


def test_every_tracer_target_resolves_and_is_restored():
    targets = layertrace._targets()
    missing = [(name, getattr(owner, "__name__", owner), attr) for name, owner, attr in targets
               if not callable(owner.__dict__.get(attr))]
    assert missing == []
    originals = [owner.__dict__[attr] for _, owner, attr in targets]
    with layertrace.Tracer().installed():
        assert all(owner.__dict__[attr] is not original
                   for (_, owner, attr), original in zip(targets, originals))
    assert [owner.__dict__[attr] for _, owner, attr in targets] == originals
