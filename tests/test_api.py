"""The public surface is what the README's "Library API" table names."""

import dataclasses
import importlib
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
import pytest

import wise

README = Path(__file__).resolve().parent.parent / "README.md"

# public names that are gone; the README's removed-names table gives what replaces each
REMOVED = (
    "compute_z",
    "enumerate_moments",
    "permutation_moments",
    "similarity_evaluate",
    "knn_affinity_matrix",
    "weight_evaluate",
    "TooLarge",
    "read_kernel_spec",
    "kernel_spec_from_json_obj",
    "read_weight_spec",
    "weight_spec_from_json_obj",
)

MODULES = [wise] + [
    importlib.import_module(f"wise.{info.name}") for info in pkgutil.iter_modules(wise.__path__)
]


def api_table_names():
    """Every name in backticks on the rows of the README's first table under
    its "Library API" heading."""
    section = README.read_text(encoding="utf-8").split("## Library API", 1)[1]
    rows = re.search(r"^\|.*?(?=^$)", section, flags=re.M | re.S).group(0)
    return set(re.findall(r"`(\w+)`", rows))


def test_the_api_table_names_every_export_that_is_not_a_module():
    exported = {name for name in wise.__all__ if not isinstance(getattr(wise, name), types.ModuleType)}
    assert api_table_names() == exported


def test_every_export_resolves():
    assert [name for name in wise.__all__ if not hasattr(wise, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_a_weight_matrix_has_no_dense_view():
    assert not hasattr(wise.WeightMatrix, "values")


def test_the_containers_hold_no_unread_accessor_or_field():
    series = wise.ObservationSeries("vector", np.zeros((4, 2)))
    assert [name for name in ("p", "rows", "cols", "grid_len") if hasattr(series, name)] == []
    assert [f.name for f in dataclasses.fields(wise.WeightMatrix)] == ["profile"]
