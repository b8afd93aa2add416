"""Command-line surface: subcommands, exit codes, file outputs."""

import os

import numpy as np
import pytest

from oracles import (
    checkpoint_payload_floats,
    checkpoint_sweep_positions,
    corrupted,
    non_finite_floats,
)
from stereosr import cli
from stereosr.cli import main
from stereosr.data import ManifestEntry, generate_dataset, synth_stereo, write_manifest
from stereosr.imageio import load_image, save_image
from stereosr.losses import CSV_HEADER
from stereosr.model import init_model
from stereosr.optim import adam_init, named_parameters
from stereosr.training import load_checkpoint, restore_model, save_checkpoint


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli_data"))
    manifest = generate_dataset(
        root, seed=21, counts=(1, 1, 1), frame_h=32, frame_w=64,
        disparity_range=(1.0, 3.0), scale=2,
    )
    return root, manifest


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "model.bin")
    params = init_model(np.random.default_rng(0), 2, 4, 1)
    save_checkpoint(
        path, params, adam_init(named_parameters(params)), 0, 0, seed=0, alpha=0.005
    )
    return path


class TestGenData:
    def test_writes_manifest_and_frames(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        code = main([
            "gen-data", "--out", out, "--seed", "1", "--frames", "1,1,1",
            "--size", "32x64", "--disparity", "1,3",
        ])
        assert code == 0
        assert os.path.exists(os.path.join(out, "manifest.txt"))
        assert "manifest" in capsys.readouterr().out

    def test_bad_frames_spec_fails(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "x"), "--frames", "1,2"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("disparity", ["nan,nan", "-inf,2"])
    def test_non_finite_disparity_exits_1(self, tmp_path, capsys, disparity):
        out = str(tmp_path / "g")
        code = main([
            "gen-data", "--out", out, f"--disparity={disparity}", "--size", "8x16",
            "--frames", "1,0,0",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "non-finite" in err, err
        assert not os.path.exists(os.path.join(out, "manifest.txt"))

    def test_negative_disparity_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        code = main([
            "gen-data", "--out", out, "--disparity=-3,-1", "--size", "8x16", "--frames", "1,0,0",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "(-3.0, -1.0)" in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("size", ["0x16", "8x0"])
    def test_empty_frame_exits_1_naming_the_extents(self, tmp_path, capsys, size):
        out = str(tmp_path / "g")
        code = main(["gen-data", "--out", out, "--size", size])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: frame extents {size} must be positive\n", err
        assert not os.path.exists(out)

    def test_negative_frame_count_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        code = main(["gen-data", "--out", out, "--frames=-1,0,0", "--size", "8x16"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "(-1, 0, 0)" in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flag, value",
        [("--size", "32"), ("--size", "32x"), ("--disparity", "2"), ("--frames", "a,1,1")],
    )
    def test_malformed_list_exits_1_naming_the_flag(self, tmp_path, capsys, flag, value):
        out = str(tmp_path / "g")
        code = main(["gen-data", "--out", out, f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {flag} expects ") and f"got {value!r}" in err, err
        assert not os.path.exists(out)


class TestTrain:
    def test_desk_train_with_config_file_and_overrides(self, dataset, tmp_path, capsys):
        root, manifest = dataset
        cfg_file = str(tmp_path / "run.cfg")
        with open(cfg_file, "w") as fh:
            fh.write(f"manifest={manifest}\nepochs=2\nchannels=4\n")
            fh.write("patch_h=8\npatch_w=24\nstride=8\nbatch=4\ncheckpoint_every=1\n")
        out_dir = str(tmp_path / "run")
        code = main([
            "train", "--desk", "--config", cfg_file,
            "--out-dir", out_dir, "--epochs", "1",
        ])
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "loss.csv"))
        assert os.path.exists(os.path.join(out_dir, "ckpt_ep001.bin"))

    def test_env_var_overrides_out_dir(self, dataset, tmp_path, monkeypatch):
        root, manifest = dataset
        env_dir = str(tmp_path / "env_out")
        monkeypatch.setenv("STEREOSR_OUT_DIR", env_dir)
        code = main([
            "train", "--desk", "--manifest", manifest, "--epochs", "1",
            "--channels", "4", "--patch-h", "8", "--patch-w", "24",
            "--stride", "8", "--batch", "4",
        ])
        assert code == 0
        assert os.path.exists(os.path.join(env_dir, "loss.csv"))


    @pytest.mark.parametrize(
        "flag, value", [("--lr0", "inf"), ("--lr0", "nan"), ("--alpha", "inf"), ("--alpha", "nan")]
    )
    def test_non_finite_rate_or_weight_exits_1_before_reading_data(
        self, tmp_path, capsys, flag, value
    ):
        out_dir = tmp_path / "run"
        code = main([
            "train", "--desk", "--manifest", str(tmp_path / "missing.txt"),
            "--out-dir", str(out_dir), flag, value,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and f"'{flag[2:]}'" in err, err
        assert not out_dir.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_fractional_epochs_exits_1_naming_key_and_type(self, tmp_path, capsys, where):
        args = ["train", "--desk", "--manifest", str(tmp_path / "missing.txt")]
        if where == "flag":
            args += ["--epochs", "1.5"]
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text("epochs=1.5\n")
            args += ["--config", str(cfg_file)]
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert "config key 'epochs' expects an integer, got '1.5'" in err, err


# a desk run small enough for the CLI tests
SMALL_RUN = [
    "--channels", "4", "--patch-h", "8", "--patch-w", "24", "--stride", "8", "--batch", "4",
]


@pytest.fixture(scope="module")
def rgb_manifest(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("rgb_data"))
    return generate_dataset(
        root, seed=22, counts=(1, 1, 0), frame_h=32, frame_w=64,
        disparity_range=(1.0, 3.0), scale=2, channels=3,
    )


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    """Checkpoint of a one-epoch 1-channel desk run at seed 1."""
    out_dir = str(tmp_path_factory.mktemp("trained"))
    code = main([
        "train", "--desk", "--manifest", dataset[1], "--out-dir", out_dir,
        "--seed", "1", "--epochs", "1", *SMALL_RUN,
    ])
    assert code == 0
    return os.path.join(out_dir, "ckpt_ep001.bin")


class TestImageChannels:
    def test_rgb_manifest_trains_without_a_channel_flag(self, rgb_manifest, tmp_path):
        out_dir = str(tmp_path / "rgb")
        code = main([
            "train", "--desk", "--manifest", rgb_manifest, "--out-dir", out_dir,
            "--epochs", "1", *SMALL_RUN,
        ])
        assert code == 0
        params, _, meta = restore_model(load_checkpoint(os.path.join(out_dir, "ckpt_ep001.bin")))
        assert meta["img_channels"] == params.img_channels == 3

    def test_img_channels_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--desk", "--img-channels", "3"])
        assert exc.value.code == 2

    def test_img_channels_config_key_exits_1(self, rgb_manifest, tmp_path, capsys):
        cfg_file = str(tmp_path / "run.cfg")
        with open(cfg_file, "w") as fh:
            fh.write(f"manifest={rgb_manifest}\nimg_channels=3\n")
        code = main(["train", "--desk", "--config", cfg_file])
        assert code == 1
        assert "unknown config key 'img_channels'" in capsys.readouterr().err

    def test_resume_on_other_channel_count_exits_1(self, trained, rgb_manifest, tmp_path, capsys):
        code = main([
            "train", "--desk", "--manifest", rgb_manifest, "--out-dir", str(tmp_path / "r"),
            "--resume", trained, "--seed", "1", "--epochs", "2", *SMALL_RUN,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "img_channels 1 vs 3" in err, err


class TestResume:
    @pytest.mark.parametrize(
        "flags,message",
        [
            ([], None),
            (["--seed", "2"], "seed 1 vs 2"),
            # alpha as the checkpoint stores it, in float32
            (["--alpha", "7"], "alpha 0.004999999888241291 vs 7.0"),
        ],
        ids=["same", "seed", "alpha"],
    )
    def test_seed_and_alpha_must_match(self, dataset, trained, tmp_path, capsys, flags, message):
        code = main([
            "train", "--desk", "--manifest", dataset[1], "--out-dir", str(tmp_path / "r"),
            "--resume", trained, "--seed", "1", "--epochs", "2", *SMALL_RUN, *flags,
        ])
        err = capsys.readouterr().err
        if message is None:
            assert code == 0, err
        else:
            assert code == 1
            assert err.startswith("error: ") and message in err, err


    @pytest.mark.parametrize("existing", ["none", "empty", "first-run"])
    def test_each_log_opens_with_one_header(self, dataset, trained, tmp_path, existing):
        """A resume writes each log's header when the file is new or empty, and
        appends below the rows of a log that has them."""
        out_dir = str(tmp_path / "r")
        if existing != "none":
            os.makedirs(out_dir)
            for name in ("loss.csv", "val.csv"):
                with open(os.path.join(out_dir, name), "w") as fh:
                    if existing == "first-run":
                        with open(os.path.join(os.path.dirname(trained), name)) as src:
                            fh.write(src.read())
        code = main([
            "train", "--desk", "--manifest", dataset[1], "--out-dir", out_dir,
            "--resume", trained, "--seed", "1", "--epochs", "2", *SMALL_RUN,
        ])
        assert code == 0
        for name, header in (("loss.csv", CSV_HEADER), ("val.csv", "epoch,psnr_db,ssim")):
            with open(os.path.join(out_dir, name)) as fh:
                lines = fh.read().splitlines()
            assert lines[0] == header and lines.count(header) == 1, (name, lines[:2])
            # the resumed epoch's validation row comes last
            if name == "val.csv":
                assert lines[-1].startswith("1,"), lines


@pytest.fixture
def mismatched_manifest(tmp_path):
    """One train, val and test frame whose right eye is twice the left's size."""
    rng = np.random.default_rng(5)
    left, right = str(tmp_path / "L.pgm"), str(tmp_path / "R.pgm")
    save_image(left, rng.random((1, 48, 144)))
    save_image(right, rng.random((1, 96, 288)))
    manifest = str(tmp_path / "manifest.txt")
    write_manifest(manifest, [ManifestEntry(s, left, right) for s in ("train", "val", "test")])
    return manifest, left, right


class TestMismatchedEyes:
    def test_train_exits_1(self, mismatched_manifest, tmp_path, capsys):
        manifest, left, right = mismatched_manifest
        code = main([
            "train", "--desk", "--manifest", manifest, "--epochs", "1",
            "--out-dir", str(tmp_path / "run"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and left in err and right in err, err

    def test_eval_exits_1(self, mismatched_manifest, tmp_path, capsys):
        manifest, left, right = mismatched_manifest
        code = main([
            "eval", "--manifest", manifest, "--method", "bicubic",
            "--csv", str(tmp_path / "e.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and left in err and right in err, err


class TestEval:
    def test_bicubic_eval_deterministic(self, dataset, tmp_path, capsys):
        _, manifest = dataset
        csvs = [str(tmp_path / f"{k}.csv") for k in "ab"]
        for csv in csvs:
            code = main([
                "eval", "--manifest", manifest, "--split", "test",
                "--method", "bicubic", "--csv", csv,
            ])
            assert code == 0
        with open(csvs[0], "rb") as fa, open(csvs[1], "rb") as fb:
            assert fa.read() == fb.read()
        assert "mean PSNR" in capsys.readouterr().out

    def test_model_eval_requires_checkpoint(self, dataset, capsys):
        _, manifest = dataset
        code = main(["eval", "--manifest", manifest, "--method", "model"])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err


class TestSr:
    def test_sr_writes_pair(self, dataset, checkpoint, tmp_path, capsys):
        root, manifest = dataset
        left = os.path.join(root, "train_000_L.pgm")
        right = os.path.join(root, "train_000_R.pgm")
        out_l = str(tmp_path / "sr_L.pgm")
        out_r = str(tmp_path / "sr_R.pgm")
        code = main([
            "sr", "--checkpoint", checkpoint, "--left", left, "--right", right,
            "--out-left", out_l, "--out-right", out_r,
        ])
        assert code == 0
        sr = load_image(out_l)
        assert sr.shape == (1, 64, 128)

    def test_shape_mismatch_exits_1_with_diagnostic(self, checkpoint, tmp_path, capsys):
        a = str(tmp_path / "a.pgm")
        b = str(tmp_path / "b.pgm")
        sample, _ = synth_stereo(0, 16, 32, (1.0, 1.0), scale=2)
        save_image(a, sample.hr_left)
        save_image(b, sample.hr_left[:, :, :16])
        code = main([
            "sr", "--checkpoint", checkpoint, "--left", a, "--right", b,
            "--out-left", str(tmp_path / "o1.pgm"),
            "--out-right", str(tmp_path / "o2.pgm"),
        ])
        assert code == 1
        assert "shapes differ" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_1(self, checkpoint, tmp_path, capsys):
        """Every short copy of a checkpoint is reported, never a traceback."""
        with open(checkpoint, "rb") as fh:
            blob = fh.read()
        # end of the first record: header, name, rank, shape, payload
        name_len = int(np.frombuffer(blob, "<u4", 1, 12)[0])
        at = 16 + name_len
        rank = int(np.frombuffer(blob, "<u4", 1, at)[0])
        shape = np.frombuffer(blob, "<u4", rank, at + 4)
        first_end = at + 4 + 4 * rank + 4 * int(np.prod(shape))
        tail = np.linspace(first_end + 1, len(blob) - 1, 200).astype(int)
        lengths = sorted(set(range(first_end + 1)) | set(tail.tolist()))
        image = str(tmp_path / "lr.pgm")
        sample, _ = synth_stereo(0, 16, 32, (1.0, 1.0), scale=2)
        save_image(image, sample.lr_left)
        short = str(tmp_path / "short.bin")
        for n in lengths:
            with open(short, "wb") as fh:
                fh.write(blob[:n])
            code = main([
                "sr", "--checkpoint", short, "--left", image, "--right", image,
                "--out-left", str(tmp_path / "o1.pgm"),
                "--out-right", str(tmp_path / "o2.pgm"),
            ])
            err = capsys.readouterr().err
            assert code == 1, n
            assert err.startswith("error: ") and "checkpoint" in err, (n, err)

    @pytest.mark.parametrize(
        "record,value",
        [("channels", np.inf), ("channels", 1e9), ("epochs_done", np.nan),
         ("img_channels", 3.0), ("global_residual", 0.0)],
    )
    def test_bad_meta_value_exits_1(self, checkpoint, tmp_path, capsys, record, value):
        with open(checkpoint, "rb") as fh:
            blob = bytearray(fh.read())
        name = f"meta.{record}".encode("ascii")
        at = blob.index(name) + len(name) + 8  # past rank and the one extent
        blob[at : at + 4] = np.array([value], dtype="<f4").tobytes()
        bad = str(tmp_path / "bad.bin")
        with open(bad, "wb") as fh:
            fh.write(blob)
        image = str(tmp_path / "lr.pgm")
        save_image(image, synth_stereo(0, 16, 32, (1.0, 1.0), scale=2)[0].lr_left)
        code = main([
            "sr", "--checkpoint", bad, "--left", image, "--right", image,
            "--out-left", str(tmp_path / "o1.pgm"), "--out-right", str(tmp_path / "o2.pgm"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "checkpoint record" in err, err

    def test_non_finite_weights_exit_1(self, checkpoint, tmp_path, capsys):
        with open(checkpoint, "rb") as fh:
            blob = bytearray(fh.read())
        name = b"param.extractor.entry.weight"
        at = blob.index(name) + len(name) + 4 + 16  # past rank and four extents
        blob[at : at + 4] = b"\xff\xff\xff\xff"  # a NaN
        bad = str(tmp_path / "nan.bin")
        with open(bad, "wb") as fh:
            fh.write(blob)
        image = str(tmp_path / "lr.pgm")
        save_image(image, synth_stereo(0, 16, 32, (1.0, 1.0), scale=2)[0].lr_left)
        out = str(tmp_path / "o1.pgm")
        code = main([
            "sr", "--checkpoint", bad, "--left", image, "--right", image,
            "--out-left", out, "--out-right", str(tmp_path / "o2.pgm"),
        ])
        err = capsys.readouterr().err
        assert code == 1 and not os.path.exists(out)
        assert err.startswith("error: ") and f"'{name.decode()}' holds non-finite" in err, err

    def test_corrupted_checkpoint_exits_0_or_1(self, checkpoint, tmp_path, capsys):
        """Every 16th single-byte corruption of the checkpoint sweep, served."""
        with open(checkpoint, "rb") as fh:
            blob = fh.read()
        variants = list(corrupted(blob, checkpoint_sweep_positions(blob)))[::16]
        image = str(tmp_path / "lr.pgm")
        save_image(image, synth_stereo(0, 16, 32, (1.0, 1.0), scale=2)[0].lr_left)
        bad = str(tmp_path / "bad.bin")
        codes = set()
        for i, blob_i in variants:
            with open(bad, "wb") as fh:
                fh.write(blob_i)
            code = main([
                "sr", "--checkpoint", bad, "--left", image, "--right", image,
                "--out-left", str(tmp_path / "o1.pgm"), "--out-right", str(tmp_path / "o2.pgm"),
            ])
            err = capsys.readouterr().err
            assert code in (0, 1), i
            assert code == 0 or (err.startswith("error: ") and bad in err), (i, err)
            codes.add(code)
        assert len(variants) > 200 and codes == {0, 1}

    def test_non_finite_payload_exits_1_naming_the_file(self, checkpoint, tmp_path, capsys):
        """NaN, +inf or -inf as the first or last float of any record, served."""
        with open(checkpoint, "rb") as fh:
            blob = fh.read()
        image = str(tmp_path / "lr.pgm")
        save_image(image, synth_stereo(0, 16, 32, (1.0, 1.0), scale=2)[0].lr_left)
        bad = str(tmp_path / "bad.bin")
        out = str(tmp_path / "o1.pgm")
        variants = list(non_finite_floats(blob, checkpoint_payload_floats(blob)))
        for off, blob_i in variants:
            with open(bad, "wb") as fh:
                fh.write(blob_i)
            code = main([
                "sr", "--checkpoint", bad, "--left", image, "--right", image,
                "--out-left", out, "--out-right", str(tmp_path / "o2.pgm"),
            ])
            err = capsys.readouterr().err
            assert code == 1 and not os.path.exists(out), off
            assert err.startswith(f"error: {bad}: checkpoint record '"), (off, err)
        assert len(variants) > 900

    def test_huge_image_header_exits_1(self, checkpoint, tmp_path, capsys):
        image = str(tmp_path / "huge.pgm")
        with open(image, "wb") as fh:
            fh.write(b"P5\n9999999 9999999\n255\n" + b"\x00" * 16)
        code = main([
            "sr", "--checkpoint", checkpoint, "--left", image, "--right", image,
            "--out-left", str(tmp_path / "o1.pgm"), "--out-right", str(tmp_path / "o2.pgm"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["sr", "dump-masks"])
def test_channel_mismatch_exits_1(checkpoint, tmp_path, capsys, command):
    """An RGB pair given to a grayscale model is refused before the first conv."""
    image = str(tmp_path / "rgb.ppm")
    save_image(image, synth_stereo(0, 16, 32, (1.0, 1.0), scale=2, channels=3)[0].lr_left)
    code = main([
        command, "--checkpoint", checkpoint, "--left", image, "--right", image,
        "--out-left", str(tmp_path / "o1.pgm"), "--out-right", str(tmp_path / "o2.pgm"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "model expects 1-channel images, got 3" in err, err


class TestDumpMasks:
    def test_writes_disparity_images(self, dataset, checkpoint, tmp_path):
        root, _ = dataset
        left = os.path.join(root, "val_000_L.pgm")
        right = os.path.join(root, "val_000_R.pgm")
        out_l = str(tmp_path / "disp_L.pgm")
        out_r = str(tmp_path / "disp_R.pgm")
        code = main([
            "dump-masks", "--checkpoint", checkpoint, "--left", left,
            "--right", right, "--out-left", out_l, "--out-right", out_r,
        ])
        assert code == 0
        img = load_image(out_l)
        assert img.shape == (1, 32, 64)

    @pytest.mark.parametrize("gain", ["nan", "inf", "-inf"])
    def test_non_finite_gain_exits_1_and_writes_nothing(
        self, dataset, checkpoint, tmp_path, capsys, gain
    ):
        root, _ = dataset
        out_l = str(tmp_path / "disp_L.pgm")
        out_r = str(tmp_path / "disp_R.pgm")
        code = main([
            "dump-masks", "--checkpoint", checkpoint,
            "--left", os.path.join(root, "val_000_L.pgm"),
            "--right", os.path.join(root, "val_000_R.pgm"),
            "--out-left", out_l, "--out-right", out_r, f"--gain={gain}",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "--gain" in err, err
        assert not os.path.exists(out_l) and not os.path.exists(out_r)


class TestGradcheckCommand:
    def test_tiny_gradcheck_passes(self, capsys):
        code = main([
            "gradcheck", "--scale", "2", "--channels", "2", "--patch", "4x8",
            "--seed", "129",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative error" in out
        assert "PASS" in out

    @pytest.mark.parametrize("channels", ["0", "-1"])
    def test_non_positive_channels_exit_1(self, capsys, channels):
        code = main(["gradcheck", "--channels", channels, "--patch", "4x8"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "channels" in err, err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps", "0"), ("--eps", "-1e-4"), ("--eps", "nan"), ("--eps", "inf"),
            ("--tolerance", "0"), ("--tolerance", "-1"), ("--tolerance", "nan"),
            ("--tolerance", "inf"),
        ],
    )
    def test_bad_step_or_tolerance_exits_1_before_any_model(
        self, capsys, monkeypatch, flag, value
    ):
        def no_check(**kwargs):
            raise AssertionError("the gradient check ran")

        monkeypatch.setattr(cli, "full_model_gradcheck", no_check)
        code = main(["gradcheck", f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and flag in err, err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--alpha", "nan", "--alpha must be finite, got nan"),
            ("--alpha", "inf", "--alpha must be finite, got inf"),
            ("--alpha", "-inf", "--alpha must be finite, got -inf"),
            ("--patch", "6", "--patch expects 2 values like 6x12, got '6'"),
            ("--patch", "6xa", "--patch expects 2 values like 6x12, got '6xa'"),
        ],
    )
    def test_bad_weight_or_patch_exits_1_before_any_model(
        self, capsys, monkeypatch, flag, value, message
    ):
        def no_check(**kwargs):
            raise AssertionError("the gradient check ran")

        monkeypatch.setattr(cli, "full_model_gradcheck", no_check)
        code = main(["gradcheck", f"{flag}={value}"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag", ["--adam-beta1", "--adam-beta2", "--adam-eps", "--lr-halving-period"]
    )
    def test_optimiser_recipe_flags_removed(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--desk", flag, "1"])
        assert exc.value.code == 2

    def test_config_file_with_recipe_key_exits_1(self, dataset, tmp_path, capsys):
        _, manifest = dataset
        cfg_file = str(tmp_path / "run.cfg")
        with open(cfg_file, "w") as fh:
            fh.write(f"manifest={manifest}\nlr_halving_period=10\n")
        code = main(["train", "--desk", "--config", cfg_file])
        assert code == 1
        assert "unknown config key 'lr_halving_period'" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
