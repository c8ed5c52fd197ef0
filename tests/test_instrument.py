"""perfbench/instrument.py wraps parastream's entry points by name, where
each is looked up, and perfbench/workloads.py patches
`training.training_forward`. A refactor that moves one of them fails
here instead of in a traced benchmark run."""

import importlib.util
import pathlib

from parastream import training

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_instrument(monkeypatch):
    # the script imports its sibling `recorder` as a top-level module
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "instrument", ROOT / "perfbench" / "instrument.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_resolves_where_it_is_wrapped(monkeypatch):
    instrument = load_instrument(monkeypatch)
    entries = [entry[:2] for entry in instrument.ENTRIES + instrument.COUNTED]
    unresolved = [
        f"{owner.__name__}.{attr}" for owner, attr in entries if attr not in vars(owner)
    ]
    assert not unresolved
    assert all(callable(vars(owner)[attr]) for owner, attr in entries)


def test_training_forward_is_where_the_workloads_patch_it():
    assert callable(vars(training).get("training_forward"))
