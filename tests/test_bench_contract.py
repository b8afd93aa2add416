"""The names and signatures that perfbench/ relies on, checked without running it.

The benchmark's tracer rebinds package functions where their callers look
them up, and its train-desk workload rebinds three attributes of
``training`` and reads a few config fields. A refactor that renames or
moves one of them should fail here, not in a benchmark run.
"""

import importlib.util
import inspect
import os
from dataclasses import fields

import numpy as np
import pytest

import stereosr
from stereosr import losses, model, training

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(BENCH, "tracer.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("site", _load_tracer().SITES, ids=lambda s: f"{s[0]}.{s[1]}")
def test_traced_site_resolves(site):
    owner_path, attr = site[0], site[1]
    owner = stereosr
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("attr", ["batch_tensors", "forward_full", "adam_step"])
def test_step_probe_attributes_exist(attr):
    assert callable(getattr(training, attr))


def test_desk_config_fields_read_by_the_workloads():
    names = {f.name for f in fields(training.TrainConfig)}
    read = {"channels", "alpha", "smooth_diagonal", "manifest", "seed", "epochs", "out_dir"}
    assert read <= names
    cfg = training.desk_config(manifest="m.txt", seed=1)
    assert cfg.channels > 0 and cfg.alpha >= 0 and isinstance(cfg.smooth_diagonal, bool)


def test_call_shapes_used_by_the_workloads():
    inspect.signature(model.init_model).bind(
        np.random.default_rng(0), 2, 8, zero_output=False, dtype=np.float64
    )
    inspect.signature(losses.compute_losses).bind(*range(8))
    inspect.signature(training.save_checkpoint).bind(*range(7))
