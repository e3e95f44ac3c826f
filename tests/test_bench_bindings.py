"""The benchmark's tracer finds every binding it wraps.

perfbench/spans.py wraps each public function at the module attribute its
caller looks up, read through ``module.__dict__``. A refactor that moves or
renames one of those bindings would make a traced benchmark run fail; this
test catches that in the ordinary suite. It only reads perfbench/.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
import spans  # noqa: E402

ALL_BINDINGS = sorted(
    {binding for bindings in spans.BINDINGS.values() for binding in bindings}
    | {spans.NFE_BINDING}
)


@pytest.mark.parametrize("module_name, attr", ALL_BINDINGS)
def test_binding_resolves_like_the_tracer(module_name, attr):
    owner, name = spans._resolve(module_name, attr)
    assert callable(owner.__dict__[name]), f"{module_name}.{attr}"
