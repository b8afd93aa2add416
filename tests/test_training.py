"""Initialization, Adam, schedule, checkpoint format, and the train loop."""

import os
from dataclasses import fields

import numpy as np
import pytest

from oracles import (
    checkpoint_payload_floats,
    checkpoint_records,
    checkpoint_sweep_positions,
    corrupted,
    non_finite_floats,
)
from stereosr import optim, training
from stereosr.data import generate_dataset
from stereosr.model import init_model
from stereosr.optim import (
    adam_init,
    adam_step,
    lr_schedule,
    named_parameters,
    xavier_uniform,
)
from stereosr.tensor import Tensor
from stereosr.training import (
    TrainConfig,
    apply_config,
    desk_config,
    load_checkpoint,
    read_config_file,
    restore_model,
    save_checkpoint,
    train,
)


@pytest.fixture
def rng():
    return np.random.default_rng(500)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    return generate_dataset(
        str(root), seed=9, counts=(2, 1, 1), frame_h=48, frame_w=96,
        disparity_range=(2.0, 4.0), scale=2,
    )


def small_cfg(manifest, out_dir, **overrides):
    base = dict(
        manifest=manifest,
        out_dir=out_dir,
        epochs=2,
        channels=4,
        patch_h=8,
        patch_w=24,
        stride=8,
        batch=4,
        checkpoint_every=1,
        seed=3,
    )
    base.update(overrides)
    return desk_config(**base)


class TestXavier:
    def test_bound_for_equal_fans(self, rng):
        t = xavier_uniform((3, 3, 1, 1), rng)
        assert np.abs(t.data).max() <= 1.0  # sqrt(6/(3+3)) = 1

    def test_empirical_variance(self, rng):
        fan_in, fan_out = 40, 60
        t = xavier_uniform((fan_out, fan_in, 1, 1), np.random.default_rng(0))
        samples = [
            xavier_uniform((fan_out, fan_in, 1, 1), np.random.default_rng(k)).data
            for k in range(42)
        ]
        var = np.concatenate([s.ravel() for s in samples]).var()
        want = 2.0 / (fan_in + fan_out)
        assert abs(var - want) / want < 0.05
        assert t.requires_grad

    def test_same_seed_identical(self):
        a = xavier_uniform((4, 2, 3, 3), np.random.default_rng(5))
        b = xavier_uniform((4, 2, 3, 3), np.random.default_rng(5))
        assert np.array_equal(a.data, b.data)

    def test_underivable_fans_rejected(self, rng):
        with pytest.raises(ValueError, match="fans"):
            xavier_uniform((7,), rng)


class TestAdam:
    def _param(self, rng):
        p = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        return [("p", p)]

    def test_zero_gradient_keeps_params_and_decays_moments(self, rng):
        named = self._param(rng)
        before = named[0][1].data.copy()
        state = adam_init(named)
        named[0][1].grad = np.zeros((3, 4), dtype=np.float32)
        adam_step(named, state, lr=0.1)
        np.testing.assert_array_equal(named[0][1].data, before)
        # nonzero moments decay by beta factors on a zero-grad step
        state.m["p"][...] = 1.0
        state.v["p"][...] = 1.0
        adam_step(named, state, lr=0.0)
        np.testing.assert_allclose(state.m["p"], 0.9, atol=1e-7)
        np.testing.assert_allclose(state.v["p"], 0.999, atol=1e-7)

    def test_first_step_magnitude_is_lr(self, rng):
        named = self._param(rng)
        before = named[0][1].data.copy()
        state = adam_init(named)
        named[0][1].grad = np.full((3, 4), 0.37, dtype=np.float32)
        adam_step(named, state, lr=1e-3)
        update = np.abs(named[0][1].data - before)
        np.testing.assert_allclose(update, 1e-3, atol=1e-6)

    def test_deterministic_across_runs(self, rng):
        results = []
        for _ in range(2):
            g = np.random.default_rng(11)
            p = Tensor(g.normal(size=(5,)).astype(np.float32), requires_grad=True)
            named = [("p", p)]
            state = adam_init(named)
            for step in range(10):
                p.grad = g.normal(size=(5,)).astype(np.float32)
                adam_step(named, state, lr=1e-2)
            results.append(p.data.copy())
        assert np.array_equal(results[0], results[1])

    def test_nan_gradient_names_parameter(self, rng):
        named = self._param(rng)
        state = adam_init(named)
        named[0][1].grad = np.full((3, 4), np.nan, dtype=np.float32)
        with pytest.raises(FloatingPointError, match="'p'"):
            adam_step(named, state, lr=1e-3)


class TestLrSchedule:
    @pytest.mark.parametrize("epoch,want", [(0, 2e-4), (30, 1e-4), (60, 5e-5)])
    def test_pinned_values(self, epoch, want):
        assert lr_schedule(epoch, 2e-4) == pytest.approx(want, rel=1e-12)

    def test_closed_form_over_range(self):
        for epoch in range(201):
            want = 2e-4 * 0.5 ** (epoch // 30)
            assert lr_schedule(epoch, 2e-4) == want

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, 2e-4)


class TestConfig:
    def test_defaults_encode_recipe(self):
        cfg = TrainConfig()
        assert cfg.alpha == 0.005
        assert cfg.lr0 == 2e-4
        assert optim.LR_HALVING_PERIOD == 30
        assert cfg.epochs == 80
        assert (optim.ADAM_BETA1, optim.ADAM_BETA2, optim.ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert cfg.patch_h == 30 and cfg.patch_w == 90 and cfg.stride == 20
        assert cfg.resolved_batch() == 8
        assert TrainConfig(scale=4).resolved_batch() == 4

    def test_config_file_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "run.cfg")
        with open(path, "w") as fh:
            fh.write("# comment\nalpha = 0.01\nepochs=5\nsmooth_diagonal=false\nbatch=2\n")
        cfg = apply_config(TrainConfig(), read_config_file(path))
        assert cfg.alpha == 0.01 and cfg.epochs == 5
        assert cfg.smooth_diagonal is False and cfg.batch == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            apply_config(TrainConfig(), {"nope": "1"})

    @pytest.mark.parametrize(
        "key", ["adam_beta1", "adam_beta2", "adam_eps", "lr_halving_period"]
    )
    def test_optimiser_recipe_keys_rejected(self, tmp_path, key):
        """The recipe lives in stereosr.optim; a config file cannot set it."""
        path = os.path.join(tmp_path, "run.cfg")
        with open(path, "w") as fh:
            fh.write(f"{key}=1\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            apply_config(TrainConfig(), read_config_file(path))

    def test_fourteen_fields(self):
        assert len(fields(TrainConfig)) == 14

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["lr0", "alpha"])
    def test_non_finite_rate_and_weight_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}' out of range"):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "key, raw, expects",
        [
            ("epochs", "1.5", "an integer"),
            ("batch", "2.0", "an integer"),
            ("seed", "", "an integer"),
            ("lr0", "fast", "a number"),
        ],
    )
    def test_unparsable_value_names_key_and_type(self, key, raw, expects):
        with pytest.raises(ValueError) as info:
            apply_config(TrainConfig(), {key: raw})
        assert str(info.value) == f"config key '{key}' expects {expects}, got {raw!r}"

    def test_validation(self):
        with pytest.raises(ValueError, match="scale"):
            TrainConfig(scale=3).validate()
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0).validate()


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, rng, tmp_path):
        params = init_model(rng, 2, 4, 1)
        named = list(named_parameters(params))
        adam = adam_init(named)
        for _, p in named:
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        adam_step(named, adam, 1e-3)
        a = os.path.join(tmp_path, "a.bin")
        b = os.path.join(tmp_path, "b.bin")
        save_checkpoint(a, params, adam, 3, 42, seed=123456789, alpha=0.005)
        params2, adam2, meta = restore_model(load_checkpoint(a))
        assert meta["epochs_done"] == 3 and meta["global_step"] == 42
        assert meta["seed"] == 123456789
        save_checkpoint(b, params2, adam2, 3, 42, seed=123456789, alpha=0.005)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_restore_reproduces_tensors(self, rng, tmp_path):
        params = init_model(rng, 2, 4, 1)
        path = os.path.join(tmp_path, "c.bin")
        adam = adam_init(named_parameters(params))
        save_checkpoint(path, params, adam, 0, 0, seed=7, alpha=0.005)
        restored, _, _ = restore_model(load_checkpoint(path))
        for (na, pa), (nb, pb) in zip(
            named_parameters(params), named_parameters(restored)
        ):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "junk.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_names_the_record(self, rng, tmp_path):
        params = init_model(rng, 2, 4, 1)
        path = os.path.join(tmp_path, "t.bin")
        save_checkpoint(path, params, adam_init(named_parameters(params)), 0, 0, 7, 0.005)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:100])
        first = next(named_parameters(params))[0]
        with pytest.raises(ValueError, match=f"truncated in record 'param.{first}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "cut,where,needs,left",
        [(4, "the header", 8, 4), (10, "the header", 4, 2), (14, "the first record", 4, 2)],
    )
    def test_truncated_header_message(self, rng, tmp_path, cut, where, needs, left):
        params = init_model(rng, 2, 4, 1)
        path = os.path.join(tmp_path, "t.bin")
        save_checkpoint(path, params, adam_init(named_parameters(params)), 0, 0, 7, 0.005)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (
            f"{path}: truncated in {where} of the checkpoint, needs {needs} bytes, {left} left"
        )

    def test_truncation_after_a_record_names_it(self, rng, tmp_path):
        params = init_model(rng, 2, 4, 1)
        path = os.path.join(tmp_path, "t.bin")
        save_checkpoint(path, params, adam_init(named_parameters(params)), 0, 0, 7, 0.005)
        names = list(load_checkpoint(path))
        with open(path, "rb") as fh:
            blob = fh.read()
        end = blob.index(names[1].encode("ascii")) - 4  # start of the second record
        with open(path, "wb") as fh:
            fh.write(blob[: end + 2])
        with pytest.raises(ValueError, match=f"truncated in the record after '{names[0]}' of"):
            load_checkpoint(path)

    def test_non_ascii_record_name_names_the_file(self, rng, tmp_path):
        params = init_model(rng, 2, 4, 1)
        path = os.path.join(tmp_path, "n.bin")
        save_checkpoint(path, params, adam_init(named_parameters(params)), 0, 0, 7, 0.005)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[16] = 0xFF  # first byte of the first record's name
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: the first record of the checkpoint has a non-ASCII name"

    def test_every_corruption_restores_or_raises_value_error(self, rng, tmp_path):
        """One overwritten byte in the header, a record head, the first or
        last float of a parameter, or the meta records."""
        params = init_model(rng, 2, 4, 1)
        path = os.path.join(tmp_path, "c.bin")
        save_checkpoint(path, params, adam_init(named_parameters(params)), 0, 0, 7, 0.005)
        with open(path, "rb") as fh:
            blob = fh.read()
        positions = checkpoint_sweep_positions(blob)
        variants = 0
        for _, bad in corrupted(blob, positions):
            with open(path, "wb") as fh:
                fh.write(bad)
            try:
                restore_model(load_checkpoint(path))
            except ValueError:
                pass
            variants += 1
        assert variants >= 4 * len(positions) > 4 * 400

    def test_non_finite_payload_float_names_the_record(self, rng, tmp_path):
        """NaN, +inf or -inf as the first or last float of any record."""
        params = init_model(rng, 2, 4, 1)
        path = os.path.join(tmp_path, "f.bin")
        save_checkpoint(path, params, adam_init(named_parameters(params)), 0, 0, 7, 0.005)
        with open(path, "rb") as fh:
            blob = fh.read()
        records = checkpoint_records(blob)
        owner = {off: name for name, _, payload, end in records for off in (payload, end - 4)}
        seen = set()
        for off, bad in non_finite_floats(blob, checkpoint_payload_floats(blob)):
            with open(path, "wb") as fh:
                fh.write(bad)
            with pytest.raises(ValueError, match=f"'{owner[off]}'"):
                restore_model(load_checkpoint(path))
            seen.add(owner[off])
        assert len(seen) == len(records) > 150

    @pytest.fixture
    def ckpt(self, rng, tmp_path):
        params = init_model(rng, 2, 4, 1)
        path = os.path.join(tmp_path, "k.bin")
        save_checkpoint(path, params, adam_init(named_parameters(params)), 0, 0, 7, 0.005)
        return load_checkpoint(path)

    @pytest.mark.parametrize(
        "key", ["epochs_done", "global_step", "adam_t", "scale", "channels", "img_channels", "seed"]
    )
    @pytest.mark.parametrize("value", [np.inf, np.nan, -1.0, 2.5, 1e9])
    def test_bad_meta_count_names_the_record(self, ckpt, key, value):
        ckpt[f"meta.{key}"][0] = value
        with pytest.raises(ValueError, match=f"'meta.{key}'"):
            restore_model(ckpt)

    @pytest.mark.parametrize(
        "key,value,record",
        [
            ("scale", 3.0, "meta.scale"),
            ("global_residual", 0.0, "meta.global_residual"),
            ("channels", 1000.0, "param.extractor.entry.weight"),
            ("img_channels", 3.0, "param.extractor.entry.weight"),
        ],
    )
    def test_bad_meta_fails_before_allocation(self, ckpt, monkeypatch, key, value, record):
        def no_init(*args, **kwargs):
            raise AssertionError("init_model ran on a bad checkpoint")

        monkeypatch.setattr(training, "init_model", no_init)
        ckpt[f"meta.{key}"][0] = value
        with pytest.raises(ValueError, match=f"'{record}'"):
            restore_model(ckpt)

    @pytest.mark.parametrize("prefix", ["param.", "adam.m.", "adam.v.", "meta.alpha"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_named(self, ckpt, prefix, value):
        record = next(k for k in ckpt if k.startswith(prefix))
        ckpt[record].flat[-1] = value
        with pytest.raises(ValueError, match=f"'{record}' holds non-finite values"):
            restore_model(ckpt)

    @pytest.mark.parametrize("prefix", ["adam.m.", "adam.v.", "meta."])
    def test_missing_record_rejected(self, rng, tmp_path, prefix):
        params = init_model(rng, 2, 4, 1)
        path = os.path.join(tmp_path, "m.bin")
        save_checkpoint(path, params, adam_init(named_parameters(params)), 0, 0, 7, 0.005)
        ckpt = load_checkpoint(path)
        missing = next(k for k in ckpt if k.startswith(prefix))
        del ckpt[missing]
        with pytest.raises(ValueError, match=f"missing record '{missing}'"):
            restore_model(ckpt)


class TestTrainLoop:
    def test_one_epoch_csv_rows(self, manifest, tmp_path):
        cfg = small_cfg(manifest, str(tmp_path / "r1"), epochs=1)
        result = train(cfg)
        lines = open(result.loss_csv).read().strip().splitlines()
        n_patches = 2 * len(range(0, 24 - 8 + 1, 8)) * len(range(0, 48 - 24 + 1, 8))
        want_steps = -(-n_patches // 4)  # ceil
        assert lines[0].startswith("step,total,mse,dc,apam")
        assert len(lines) - 1 == want_steps == result.global_step

    def test_alpha_zero_shares_step0_mse(self, manifest, tmp_path):
        full = train(small_cfg(manifest, str(tmp_path / "full"), epochs=1))
        ablat = train(small_cfg(manifest, str(tmp_path / "abl"), epochs=1, alpha=0.0))

        def rows(path):
            lines = open(path).read().strip().splitlines()[1:]
            return [line.split(",") for line in lines]

        r_full, r_abl = rows(full.loss_csv), rows(ablat.loss_csv)
        assert r_full[0][2] == r_abl[0][2]  # same init, same first forward mse
        assert any(a[3] != b[3] for a, b in zip(r_full, r_abl)) or r_full[0][3] != "0"

    def test_validation_csv_written(self, manifest, tmp_path):
        result = train(small_cfg(manifest, str(tmp_path / "r2"), epochs=1))
        lines = open(result.val_csv).read().strip().splitlines()
        assert lines[0] == "epoch,psnr_db,ssim"
        assert len(lines) == 2

    def test_divergence_aborts_with_last_checkpoint(self, manifest, tmp_path):
        cfg = small_cfg(
            manifest, str(tmp_path / "r3"), epochs=3, lr0=1e18, checkpoint_every=1
        )
        with pytest.raises(FloatingPointError, match="diverged"):
            with np.errstate(all="ignore"):
                train(cfg)

    def test_missing_manifest_rejected(self, tmp_path):
        cfg = small_cfg("", str(tmp_path / "r4"))
        with pytest.raises(ValueError, match="manifest"):
            train(cfg)
