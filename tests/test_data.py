import os
from collections import Counter

import numpy as np
import pytest

from routeseg.data import (AugmentConfig, DataError, SegSample, SplitMix64,
                           adapt_channels, augment, derive_seed, kfold_splits,
                           load_dataset, make_splits, read_image, read_pnm,
                           read_split_file, stack_batch, synth_dataset,
                           to_unit_image, write_pgm)
from routeseg.model import ConfigError

from conftest import save_dataset, write_ppm, write_split_file


# ---------------------------------------------------------------------------
# generator


def test_splitmix_seed_zero_reference_outputs():
    # first three outputs of the documented recurrence from seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_next_array_matches_scalar_stream_and_state():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    vec = a.next_array(17)
    scalars = [b.next_u64() for _ in range(17)]
    np.testing.assert_array_equal(vec, np.array(scalars, dtype=np.uint64))
    assert a.next_u64() == b.next_u64()       # states stayed in lockstep


def test_float_outputs_sit_in_unit_interval():
    rng = SplitMix64(99)
    vals = rng.next_float_array(4096)
    assert vals.min() >= 0.0 and vals.max() < 1.0
    solo = SplitMix64(99)
    assert solo.next_float() == vals[0]


def test_below_is_unbiased_range_and_errors():
    rng = SplitMix64(7)
    draws = [rng.below(6) for _ in range(6000)]
    assert set(draws) == {0, 1, 2, 3, 4, 5}
    counts = Counter(draws)
    assert max(counts.values()) < 1.35 * min(counts.values())
    with pytest.raises(ValueError, match="below"):
        rng.below(0)


def test_shuffle_is_seed_stable_permutation():
    items = list(range(20))
    a, b = items[:], items[:]
    SplitMix64(5).shuffle(a)
    SplitMix64(5).shuffle(b)
    assert a == b and sorted(a) == items and a != items


def test_derive_seed_separates_components():
    assert derive_seed(3, 1) != derive_seed(3, 2)
    assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)
    assert derive_seed(3, 5) == derive_seed(3, 5)


# ---------------------------------------------------------------------------
# image io


def test_pgm_round_trip(tmp_path):
    arr = np.arange(48, dtype=np.uint8).reshape(6, 8)
    path = os.path.join(str(tmp_path), "a.pgm")
    write_pgm(path, arr)
    np.testing.assert_array_equal(read_pnm(path), arr)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(90)
    arr = rng.integers(0, 256, (5, 4, 3)).astype(np.uint8)
    path = os.path.join(str(tmp_path), "a.ppm")
    write_ppm(path, arr)
    np.testing.assert_array_equal(read_pnm(path), arr)


def test_read_pnm_accepts_comments_and_odd_whitespace(tmp_path):
    path = os.path.join(str(tmp_path), "c.pgm")
    with open(path, "wb") as f:
        f.write(b"P5 # format\n# a comment line\n 3\t2 # extents\n255\n")
        f.write(bytes(range(6)))
    arr = read_pnm(path)
    np.testing.assert_array_equal(arr, np.arange(6, dtype=np.uint8).reshape(2, 3))


@pytest.mark.parametrize("blob,msg", [
    (b"P3\n2 2\n255\n" + bytes(4), "unsupported format"),
    (b"P5\n2 x\n255\n" + bytes(4), "bad height"),
    (b"P5\n2 2\n70000\n" + bytes(4), "maxval"),
    (b"P5\n0 2\n255\n", "bad extents"),
    (b"P5\n2 2\n255\n" + bytes(3), "pixel bytes"),
    (b"P5\n2", "truncated header"),
])
def test_read_pnm_rejects_malformed(tmp_path, blob, msg):
    path = os.path.join(str(tmp_path), "bad.pgm")
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(DataError, match=msg):
        read_pnm(path)


def test_pixel_above_maxval_is_data_error(tmp_path):
    root = str(tmp_path)
    os.makedirs(os.path.join(root, "images"))
    os.makedirs(os.path.join(root, "masks"))
    path = os.path.join(root, "images", "a.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n2 1\n15\n" + bytes([3, 200]))
    write_pgm(os.path.join(root, "masks", "a.pgm"), np.zeros((1, 2), np.uint8))
    for load in (lambda: read_pnm(path), lambda: read_image(path, 1),
                 lambda: load_dataset(root, 1, 2)):
        with pytest.raises(DataError, match="pixel value 200 exceeds maxval 15") as err:
            load()
        assert path in str(err.value)


def test_read_pnm_missing_file():
    with pytest.raises(DataError, match="no-such"):
        read_pnm("no-such.pgm")


def test_write_pgm_shape_guards(tmp_path):
    with pytest.raises(DataError, match="H, W"):
        write_pgm(os.path.join(str(tmp_path), "x.pgm"), np.zeros((2, 2, 3)))
    with pytest.raises(DataError, match="H, W, 3"):
        write_ppm(os.path.join(str(tmp_path), "x.ppm"), np.zeros((2, 2)))


def test_adapt_channels_covers_all_paths():
    gray = np.ones((4, 4), np.float32)
    assert adapt_channels(gray, 3).shape == (4, 4, 3)
    rgb = np.stack([np.full((2, 2), v, np.float32) for v in (0.0, 0.3, 0.6)],
                   axis=2)
    mono = adapt_channels(rgb, 1)
    np.testing.assert_allclose(mono[..., 0], 0.3, atol=1e-7)
    with pytest.raises(DataError, match="cannot adapt"):
        adapt_channels(np.zeros((2, 2, 2), np.float32), 3)


def test_to_unit_image_scales_to_unit_range():
    raw = np.array([[0, 255]], dtype=np.uint8)
    out = to_unit_image(raw, 1, 255)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out[:, :, 0], [[0.0, 1.0]])


@pytest.mark.parametrize("magic,channels", [(b"P5", 1), (b"P6", 3)])
@pytest.mark.parametrize("maxval", [1, 15, 255])
def test_images_scale_by_their_files_maxval(tmp_path, magic, channels, maxval):
    rng = np.random.default_rng(maxval)
    raw = rng.integers(0, maxval + 1, size=(2, 3, channels)).astype(np.uint8)
    raw.flat[0], raw.flat[1] = 0, maxval
    ext = ".pgm" if channels == 1 else ".ppm"
    os.makedirs(tmp_path / "images")
    os.makedirs(tmp_path / "masks")
    image_path = str(tmp_path / "images" / ("a" + ext))
    with open(image_path, "wb") as f:
        f.write(b"%s\n3 2\n%d\n" % (magic, maxval) + raw.tobytes())
    mask = np.array([[0, 1, 1], [1, 0, 1]], np.uint8)
    with open(tmp_path / "masks" / "a.pgm", "wb") as f:
        f.write(b"P5\n3 2\n1\n" + mask.tobytes())

    np.testing.assert_array_equal(read_pnm(image_path), raw.squeeze(-1)
                                  if channels == 1 else raw)
    # at maxval 255 this is the fixed 1/255 scale of 8-bit files, bit for bit
    want = raw.astype(np.float32) / np.float32(maxval)
    assert want.max() == 1.0
    np.testing.assert_array_equal(read_image(image_path, channels), want)
    (sample,) = load_dataset(str(tmp_path), channels, 2)
    np.testing.assert_array_equal(sample.image, want)
    np.testing.assert_array_equal(sample.mask, mask)


# ---------------------------------------------------------------------------
# dataset directory io


def test_save_then_load_dataset_round_trips(tmp_path):
    samples = synth_dataset(3, 32, 3, seed=1, in_channels=1)
    root = str(tmp_path)
    save_dataset(samples, root)
    loaded = load_dataset(root, in_channels=1, num_classes=3)
    assert [s.id for s in loaded] == [s.id for s in samples]
    for a, b in zip(loaded, samples):
        np.testing.assert_array_equal(a.mask, b.mask)
        assert np.abs(a.image - b.image).max() <= 0.5 / 255.0 + 1e-7


def test_load_dataset_error_paths(tmp_path):
    root = str(tmp_path)
    with pytest.raises(DataError, match="images/ and masks/"):
        load_dataset(root, 1, 2)
    os.makedirs(os.path.join(root, "images"))
    os.makedirs(os.path.join(root, "masks"))
    write_pgm(os.path.join(root, "images", "a.pgm"),
              np.zeros((4, 4), np.uint8))
    with pytest.raises(DataError, match="missing mask"):
        load_dataset(root, 1, 2)
    write_pgm(os.path.join(root, "masks", "a.pgm"),
              np.zeros((4, 5), np.uint8))
    with pytest.raises(DataError, match="extent mismatch"):
        load_dataset(root, 1, 2)
    write_pgm(os.path.join(root, "masks", "a.pgm"),
              np.full((4, 4), 7, np.uint8))
    with pytest.raises(DataError, match=">= K"):
        load_dataset(root, 1, 2)


def test_load_dataset_rejects_duplicate_stems(tmp_path):
    root = str(tmp_path)
    os.makedirs(os.path.join(root, "images"))
    os.makedirs(os.path.join(root, "masks"))
    write_pgm(os.path.join(root, "images", "a.pgm"), np.zeros((4, 4), np.uint8))
    write_ppm(os.path.join(root, "images", "a.ppm"),
              np.zeros((4, 4, 3), np.uint8))
    with pytest.raises(DataError, match="duplicate image id"):
        load_dataset(root, 1, 2)


def test_stack_batch_shapes_and_empty_guard():
    samples = synth_dataset(2, 16, 2, seed=2, in_channels=3)
    images, masks = stack_batch(samples)
    assert images.shape == (2, 16, 16, 3) and images.dtype == np.float32
    assert masks.shape == (2, 16, 16) and masks.dtype == np.int64
    with pytest.raises(DataError, match="empty batch"):
        stack_batch([])


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_dataset_is_deterministic_per_seed():
    a = synth_dataset(4, 32, 3, seed=11)
    b = synth_dataset(4, 32, 3, seed=11)
    c = synth_dataset(4, 32, 3, seed=12)
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s.image, t.image)
        np.testing.assert_array_equal(s.mask, t.mask)
    assert any(not np.array_equal(s.mask, t.mask) for s, t in zip(a, c))


def test_synth_dataset_foreground_fraction_and_classes():
    samples = synth_dataset(100, 64, 4, seed=11)
    fracs = [float((s.mask > 0).mean()) for s in samples]
    assert 0.05 <= float(np.mean(fracs)) <= 0.5
    seen = set()
    for s in samples:
        seen |= set(np.unique(s.mask).tolist())
    assert seen == {0, 1, 2, 3}
    assert all(s.image.min() >= 0.0 and s.image.max() <= 1.0 for s in samples)


def test_synth_dataset_prefix_stability():
    # sample i depends only on (seed, i), not on n
    short = synth_dataset(2, 32, 3, seed=4)
    longer = synth_dataset(5, 32, 3, seed=4)
    for s, t in zip(short, longer):
        assert s.id == t.id
        np.testing.assert_array_equal(s.image, t.image)
        np.testing.assert_array_equal(s.mask, t.mask)


def test_synth_dataset_validation():
    with pytest.raises(DataError, match="K >= 2"):
        synth_dataset(1, 32, 1, seed=0)
    with pytest.raises(DataError, match="hw >= 16"):
        synth_dataset(1, 8, 2, seed=0)


# ---------------------------------------------------------------------------
# augmentation


def always() -> AugmentConfig:
    return AugmentConfig(p_hflip=1.0, p_vflip=1.0, p_rot=1.0, p_cutout=1.0)


def never() -> AugmentConfig:
    return AugmentConfig(p_hflip=0.0, p_vflip=0.0, p_rot=0.0, p_cutout=0.0)


def sample32(seed=13) -> SegSample:
    return synth_dataset(1, 32, 3, seed=seed)[0]


def test_augment_identity_when_disabled():
    s = sample32()
    out = augment(s, never(), SplitMix64(1))
    np.testing.assert_array_equal(out.image, s.image)
    np.testing.assert_array_equal(out.mask, s.mask)


def test_augment_same_stream_same_output():
    s = sample32()
    a = augment(s, always(), SplitMix64(21))
    b = augment(s, always(), SplitMix64(21))
    np.testing.assert_array_equal(a.image, b.image)
    np.testing.assert_array_equal(a.mask, b.mask)


def test_hflip_is_an_involution():
    s = sample32()
    cfg = AugmentConfig(p_hflip=1.0, p_vflip=0.0, p_rot=0.0, p_cutout=0.0)
    once = augment(s, cfg, SplitMix64(1))
    twice = augment(once, cfg, SplitMix64(1))
    np.testing.assert_array_equal(twice.image, s.image)
    np.testing.assert_array_equal(twice.mask, s.mask)
    assert not np.array_equal(once.mask, s.mask)


def test_flips_and_rotations_move_image_and_mask_together():
    s = sample32()
    cfg = AugmentConfig(p_hflip=0.0, p_vflip=0.0, p_rot=1.0, p_cutout=0.0)
    out = augment(s, cfg, SplitMix64(3))
    assert Counter(out.mask.reshape(-1).tolist()) == \
        Counter(s.mask.reshape(-1).tolist())
    # the class regions still line up with their colors after the move
    k = next(iter({1, 2} & set(np.unique(out.mask).tolist())))
    sel_out = out.image[out.mask == k]
    sel_in = s.image[s.mask == k]
    np.testing.assert_allclose(np.sort(sel_out, axis=0),
                               np.sort(sel_in, axis=0), atol=0)


def test_cutout_touches_image_only():
    s = sample32()
    cfg = AugmentConfig(p_hflip=0.0, p_vflip=0.0, p_rot=0.0, p_cutout=1.0)
    out = augment(s, cfg, SplitMix64(2))
    np.testing.assert_array_equal(out.mask, s.mask)
    zeroed = np.all(out.image == 0.0, axis=2) & ~np.all(s.image == 0.0, axis=2)
    assert zeroed.any()
    ys, xs = np.nonzero(zeroed)
    assert (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1) == zeroed.sum()
    untouched = ~zeroed
    np.testing.assert_array_equal(out.image[untouched], s.image[untouched])


def test_augment_config_validation():
    with pytest.raises(ConfigError, match="p_rot must be in"):
        AugmentConfig(p_rot=1.5)
    AugmentConfig()


# ---------------------------------------------------------------------------
# splits


def test_make_splits_largest_remainder_counts():
    ids = [f"id{i:04d}" for i in range(612)]
    fr = (490 / 612, 61 / 612, 61 / 612)
    splits = make_splits(ids, fr, seed=0)
    counts = Counter(splits.values())
    assert counts == {"train": 490, "val": 61, "test": 61}
    assert set(splits) == set(ids)


def test_make_splits_seed_stable_and_validated():
    ids = [str(i) for i in range(10)]
    assert make_splits(ids, (0.8, 0.1, 0.1), 3) == \
        make_splits(ids, (0.8, 0.1, 0.1), 3)
    assert make_splits(ids, (0.8, 0.1, 0.1), 3) != \
        make_splits(ids, (0.8, 0.1, 0.1), 4)
    # one rule with RunConfig's messages: make_splits raises ConfigError
    with pytest.raises(ConfigError, match=r"nonnegative and sum to 1: \(0.5, 0.2, 0.2\)"):
        make_splits(ids, (0.5, 0.2, 0.2), 0)
    with pytest.raises(ConfigError, match="nonnegative"):
        make_splits(ids, (1.2, -0.1, -0.1), 0)
    with pytest.raises(ConfigError, match="wants exactly train,val,test"):
        make_splits(ids, (0.5, 0.5), 0)


def test_kfold_splits_partition_evenly():
    ids = [f"s{i}" for i in range(10)]
    vals = set()
    for fold in range(5):
        splits = kfold_splits(ids, 5, fold, seed=1)
        fold_val = {i for i, s in splits.items() if s == "val"}
        assert len(fold_val) == 2
        assert not (fold_val & vals)
        vals |= fold_val
    assert vals == set(ids)
    with pytest.raises(DataError, match="kfold wants"):
        kfold_splits(ids, 11, 0, seed=0)
    with pytest.raises(DataError, match="fold index"):
        kfold_splits(ids, 5, 5, seed=0)


def test_split_file_round_trip_and_errors(tmp_path):
    path = os.path.join(str(tmp_path), "splits.tsv")
    splits = {"b": "val", "a": "train"}
    write_split_file(path, splits)
    assert read_split_file(path) == splits
    with open(path, "w") as f:
        f.write("a\ttrain\n\nbad line\n")
    with pytest.raises(DataError, match="splits.tsv:3"):
        read_split_file(path)
    with open(path, "w") as f:
        f.write("a\ttrain\na\tval\n")
    with pytest.raises(DataError, match="duplicate id"):
        read_split_file(path)
    with pytest.raises(DataError, match="missing.tsv"):
        read_split_file(os.path.join(str(tmp_path), "missing.tsv"))
