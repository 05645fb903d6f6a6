"""The package namespace re-exports each module's public names, and only live ones."""

import importlib

import pytest

import hetmix


@pytest.mark.parametrize("module", ["topology", "mixing", "gme", "objectives", "simulator"])
def test_package_reexports_every_public_name(module):
    mod = importlib.import_module(f"hetmix.{module}")
    for name in mod.__all__:
        assert getattr(hetmix, name, None) is getattr(mod, name), name


def test_package_has_no_deleted_checks():
    for name in ("validate", "Violation", "CliquePartition", "project_feasible",
                 "stochastic_gradients", "ALGORITHMS"):
        assert not hasattr(hetmix, name), name
