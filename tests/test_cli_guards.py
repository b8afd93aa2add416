"""CLI exits on an allocation that fails and on a negative seed: exit 1 with
a message, and nothing written.

No test here allocates much: each failing allocation is a monkeypatched
call that raises, because a real request near the host's RAM can succeed
under overcommit, and the process is then killed.
"""

import os

import numpy as np
import pytest

from stereosr import cli, training
from stereosr import tensor as T
from stereosr.cli import main
from stereosr.data import generate_dataset, synth_stereo
from stereosr.imageio import save_image
from stereosr.model import init_model
from stereosr.optim import adam_init, named_parameters
from stereosr.training import save_checkpoint

NUMPY_MESSAGE = "Unable to allocate 95.4 GiB for an array with shape (2, 8, 40000, 40000)"


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("guard_data"))
    return generate_dataset(
        root, seed=3, counts=(1, 1, 0), frame_h=32, frame_w=96,
        disparity_range=(1.0, 2.0), scale=2,
    )


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("guard_ckpt") / "model.bin")
    params = init_model(np.random.default_rng(0), 2, 4, 1)
    save_checkpoint(
        path, params, adam_init(named_parameters(params)), 0, 0, seed=0, alpha=0.005
    )
    return path


def _raise_memory_error(message):
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    return allocate


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "message, printed",
        [(NUMPY_MESSAGE, NUMPY_MESSAGE), ("", "out of memory")],
        ids=["numpy-message", "empty-message"],
    )
    @pytest.mark.parametrize("command", ["sr", "dump-masks"])
    def test_pair_command_exits_1_and_writes_nothing(
        self, checkpoint, tmp_path, capsys, monkeypatch, command, message, printed
    ):
        image = str(tmp_path / "lr.pgm")
        save_image(image, synth_stereo(0, 16, 32, (1.0, 1.0), scale=2)[0].lr_left)
        out_l, out_r = str(tmp_path / "o1.pgm"), str(tmp_path / "o2.pgm")
        monkeypatch.setattr(T, "row_attention", _raise_memory_error(message))
        code = main([
            command, "--checkpoint", checkpoint, "--left", image, "--right", image,
            "--out-left", out_l, "--out-right", out_r,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {printed}\n"
        assert not os.path.exists(out_l) and not os.path.exists(out_r)

    def test_train_exits_1(self, manifest, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 2.62 TiB for an array with shape (200000, 200000, 3, 3)"
        monkeypatch.setattr(training, "init_model", _raise_memory_error(message))
        code = main([
            "train", "--desk", "--manifest", manifest, "--out-dir", str(tmp_path / "run"),
            "--channels", "200000",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestNegativeSeed:
    def test_gen_data_exits_1_before_creating_the_directory(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        code = main([
            "gen-data", "--out", out, "--seed", "-1", "--frames", "1,1,1", "--size", "32x64",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_train_exits_1_naming_the_field(self, manifest, tmp_path, capsys, where):
        run = str(tmp_path / "run")
        argv = ["train", "--desk", "--manifest", manifest, "--out-dir", run]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text("seed = -1\n")
            argv += ["--config", str(config)]
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err == "error: config field 'seed' out of range\n"
        assert not os.path.exists(run)

    def test_gradcheck_exits_1_naming_the_flag(self, capsys, monkeypatch):
        def no_check(**kwargs):
            raise AssertionError("the gradient check ran")

        monkeypatch.setattr(cli, "full_model_gradcheck", no_check)
        code = main(["gradcheck", "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
