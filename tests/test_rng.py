import numpy as np
import pytest

from plasticity_lab.rng import RngStream

# First 32 uniforms for seed 0, frozen so any platform or numpy upgrade
# that changes the stream is caught immediately.
GOLDEN_SEED0 = [
    0.36896391177704235, 0.6178396225133795, 0.9794041571829702,
    0.8403935326079596, 0.18106483409747265, 0.5267747988742417,
    0.20174990582726993, 0.4145480275304402, 0.42374891245896007,
    0.579878169197906, 0.4999918653947035, 0.8048627323406413,
    0.25468198593299196, 0.4929844222278712, 0.5320982233089572,
    0.21890950376078555, 0.5856196494563537, 0.5543905504529185,
    0.5709274931451813, 0.6847857943677007, 0.22553091306753392,
    0.7748000176625064, 0.8870799905579725, 0.18996291498239548,
    0.47763276413776923, 0.44529869952899126, 0.010370740525973865,
    0.09882521202716921, 0.505964170013478, 0.27353458692672716,
    0.7231978140889332, 0.9584712555610464,
]


def test_golden_sequence_seed0():
    vals = RngStream(0).uniform(0.0, 1.0, 32)
    assert np.array_equal(vals, np.array(GOLDEN_SEED0))


def test_same_seed_same_sequence():
    a = RngStream(42).uniform(-1.0, 1.0, 100)
    b = RngStream(42).uniform(-1.0, 1.0, 100)
    assert np.array_equal(a, b)


def test_split_is_pure_and_label_sensitive():
    root = RngStream(7)
    first = root.split("init").uniform(0.0, 1.0, 8)
    again = root.split("init").uniform(0.0, 1.0, 8)
    other = root.split("noise").uniform(0.0, 1.0, 8)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_split_requires_a_label():
    with pytest.raises(ValueError, match=r"split\(\) requires at least one label"):
        RngStream(7).split()


def test_split_composite_labels_distinct():
    root = RngStream(7)
    a = root.split("task", 0).uniform(0.0, 1.0, 8)
    b = root.split("task", 1).uniform(0.0, 1.0, 8)
    assert not np.array_equal(a, b)


def test_parent_draws_do_not_disturb_children():
    root = RngStream(3)
    child_before = root.split("x").uniform(0.0, 1.0, 4)
    root.uniform(0.0, 1.0, 100)
    child_after = RngStream(3).split("x").uniform(0.0, 1.0, 4)
    assert np.array_equal(child_before, child_after)


def test_uniform_bounds():
    vals = RngStream(5).uniform(-2.0, 3.0, 10_000)
    assert vals.min() >= -2.0
    assert vals.max() < 3.0


@pytest.mark.parametrize("lo, hi", [(-0.3, 0.7), (-1 / np.sqrt(7), 1 / np.sqrt(7))])
def test_uniform_into_out_has_the_bits_of_a_shaped_draw(lo, hi):
    want = RngStream(8).uniform(lo, hi, (5, 7))
    out = np.empty((5, 7))
    assert RngStream(8).uniform(lo, hi, out=out) is out
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
    # successive fills read the stream in order: pieces of 3, 1 and 31 give the same 35 values
    rng, pieces = RngStream(8), [np.empty(3), np.empty(1), np.empty(31)]
    for piece in pieces:
        rng.uniform(lo, hi, out=piece)
    assert np.array_equal(np.concatenate(pieces).view(np.int64), want.ravel().view(np.int64))


def test_uniform_rejects_bad_bounds():
    with pytest.raises(ValueError):
        RngStream(0).uniform(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        RngStream(0).uniform(2.0, -1.0, 3)


def test_uniform_law_of_large_numbers():
    vals = RngStream(11).uniform(0.0, 2.0, 1_000_000)
    assert abs(vals.mean() - 1.0) < 0.01


def test_stream_advances_between_draws():
    r = RngStream(9)
    assert not np.array_equal(r.uniform(0, 1, 5), r.uniform(0, 1, 5))


def test_permutation_is_bijection():
    perm = RngStream(13).permutation(50)
    assert np.array_equal(np.sort(perm), np.arange(50))
