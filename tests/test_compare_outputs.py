"""tools/compare_outputs.py compare: byte-identity of two .npz dumps, and the
size of each difference."""

import importlib.util
import pathlib

import numpy as np

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _save(path, **arrays):
    np.savez(path, **arrays)
    return str(path)


def test_identical_dumps_exit_0(tmp_path, capsys):
    arrays = {"step/grad": np.arange(6.0).reshape(2, 3), "loss": np.float32(0.5)}
    a = _save(tmp_path / "a.npz", **arrays)
    b = _save(tmp_path / "b.npz", **arrays)
    assert compare_outputs.main(["compare", a, b]) == 0
    assert capsys.readouterr().out == "0 of 2 arrays differ\n"


def test_each_kind_of_difference_is_listed(tmp_path, capsys):
    same = np.linspace(0.0, 1.0, 5)
    a = _save(
        tmp_path / "a.npz", same=same, bits=np.array([0.0, 1.0]),
        dtype=np.zeros(2, np.float32), shape=np.zeros(2), only_a=np.ones(1),
    )
    b = _save(
        tmp_path / "b.npz", same=same.copy(), bits=np.array([-0.0, 1.0]),
        dtype=np.zeros(2, np.float64), shape=np.zeros((1, 2)), only_b=np.ones(1),
    )
    assert compare_outputs.main(["compare", a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        # -0.0 equals 0.0 but its bytes differ
        "bits: bytes differ, max abs difference 0, 0 of max-abs",
        "dtype: dtype float32 vs float64",
        f"only_a: only in {a}",
        f"only_b: only in {b}",
        "shape: shape (2,) vs (1, 2)",
        "worst float64: 0 of max-abs, bits",
        "5 of 6 arrays differ",
    ]


def test_differences_are_relative_to_the_max_abs_of_a(tmp_path, capsys):
    """Each differing array's max abs difference over the max-abs of A's
    array, then the worst per dtype."""
    a = _save(
        tmp_path / "a.npz",
        g32=np.array([4.0, -8.0], np.float32), h32=np.array([1.0, 2.0], np.float32),
        g64=np.array([-2.0, 1.0]), zero=np.zeros(2),
    )
    b = _save(
        tmp_path / "b.npz",
        g32=np.array([4.0, -7.0], np.float32), h32=np.array([1.5, 2.0], np.float32),
        g64=np.array([-2.0, 1.5]), zero=np.array([0.0, 1.0]),
    )
    assert compare_outputs.main(["compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "g32: bytes differ, max abs difference 1, 0.125 of max-abs",
        "g64: bytes differ, max abs difference 0.5, 0.25 of max-abs",
        "h32: bytes differ, max abs difference 0.5, 0.25 of max-abs",
        # an all-zero array in A has no scale: any difference is infinite
        "zero: bytes differ, max abs difference 1, inf of max-abs",
        "worst float32: 0.25 of max-abs, h32",
        "worst float64: inf of max-abs, zero",
        "4 of 4 arrays differ",
    ]
