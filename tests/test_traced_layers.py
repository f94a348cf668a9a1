"""Every function the benchmark's tracer names is a callable of loopforge.

``perfbench/tracing.py`` wraps each ``LAYERS`` entry,
``"<module under loopforge>.<function>"``, by name from outside the
package.  A refactor that renames or drops one of them fails here, not
only in a traced benchmark run.  The tracer's file is only read.
"""

from __future__ import annotations

import importlib

import pytest

from conftest import perfbench_module

LAYERS = perfbench_module("tracing").LAYERS


@pytest.mark.parametrize("layer", LAYERS)
def test_traced_layer_resolves_to_a_callable(layer):
    module_name, _, attr = layer.rpartition(".")
    module = importlib.import_module(f"loopforge.{module_name}")
    assert callable(getattr(module, attr, None)), f"loopforge.{layer} is not a callable"

