"""The names and signatures that perfbench/ relies on, checked without running it.

The benchmark's tracer rebinds package functions where their callers look
them up, and its train-desk workload rebinds three attributes of
``training`` and reads a few config fields. Its serving workloads and
reference checks read each eye of a stereo sample by name. A refactor
that renames or moves one of them should fail here, not in a benchmark run.
"""

import importlib.util
import inspect
import os
from dataclasses import fields, replace

import numpy as np
import pytest

import stereosr
from stereosr import data, losses, model, optim, tensor, training

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


def test_data_and_training_call_shapes_used_by_the_workloads():
    inspect.signature(data.synth_stereo).bind(0, 96, 192, (2.0, 6.0), 2)
    inspect.signature(data.generate_dataset).bind("out", 0, (1, 4, 0), 48, 144, (2.0, 6.0), 2)
    inspect.signature(training.adam_step).bind([], optim.AdamState(), 1e-3)
    cfg = replace(training.desk_config(manifest="m.txt", seed=1), epochs=8, out_dir="run")
    assert (cfg.manifest, cfg.seed, cfg.epochs, cfg.out_dir) == ("m.txt", 1, 8, "run")


def test_log_headers_whose_column_1_the_workloads_read(tmp_path):
    manifest = data.generate_dataset(str(tmp_path / "d"), 0, (1, 1, 0), 32, 96, (2.0, 4.0), 2)
    cfg = training.desk_config(manifest=manifest, seed=0)
    result = training.train(replace(cfg, epochs=1, out_dir=str(tmp_path / "run")))
    with open(result.loss_csv) as fh:
        assert fh.readline() == "step,total,mse,dc,apam,photo,smooth_lr,smooth_rl,cycle\n"
    with open(result.val_csv) as fh:
        assert fh.readline() == "epoch,psnr_db,ssim\n"


def _assert_eye_views(sample, c, h, w, scale):
    for name, shape in (("lr", (c, h, w)), ("hr", (c, scale * h, scale * w))):
        for eye in ("left", "right"):
            view = getattr(sample, f"{name}_{eye}")
            assert isinstance(view, np.ndarray) and view.shape == shape, (name, eye)


def test_stereo_sample_eye_names_read_by_the_workloads(tmp_path):
    sample, _ = data.synth_stereo(0, 16, 48, (2.0, 4.0), 2)
    _assert_eye_views(sample, 1, 8, 24, 2)
    manifest = data.generate_dataset(str(tmp_path), 0, (0, 2, 0), 16, 48, (2.0, 4.0), 2)
    frames = data.manifest_frames(manifest, "val", 2)
    assert len(frames) == 2
    for frame in frames:
        _assert_eye_views(frame, 1, 8, 24, 2)


def test_batch_tensors_returns_the_four_tensors_the_step_probe_unpacks():
    sample, _ = data.synth_stereo(0, 16, 48, (2.0, 4.0), 2)
    out = training.batch_tensors([sample, sample])
    assert len(out) == 4 and all(isinstance(t, tensor.Tensor) for t in out)
    assert [t.shape for t in out] == [(2, 1, 8, 24)] * 2 + [(2, 1, 16, 48)] * 2


def test_super_resolve_returns_both_images_and_both_full_masks():
    # the serving workloads unpack four results and check both masks
    params = model.init_model(np.random.default_rng(0), 2, 4)
    lr = np.random.default_rng(1).random((2, 2, 1, 6, 10)).astype(np.float32)
    with tensor.no_grad():
        out = model.super_resolve(tensor.Tensor(lr[0]), tensor.Tensor(lr[1]), params)
    assert isinstance(out, tuple) and len(out) == 4
    sr_l, sr_r, m_lr, m_rl = out
    assert sr_l.shape == sr_r.shape == (2, 1, 12, 20)
    assert m_lr.shape == m_rl.shape == (2, 6, 10, 10)
