import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routeseg.metrics import (confusion_counts, evaluate_predictions,
                              hausdorff_distance, mean_defined, pixel_metrics)


def naive_counts(pred, target, k):
    out = np.zeros((k, 4), dtype=np.int64)
    for c in range(k):
        for p, t in zip(pred.reshape(-1), target.reshape(-1)):
            if p == c and t == c:
                out[c, 0] += 1
            elif p == c:
                out[c, 1] += 1
            elif t == c:
                out[c, 2] += 1
            else:
                out[c, 3] += 1
    return out


def test_confusion_counts_match_pixel_loop():
    rng = np.random.default_rng(70)
    pred = rng.integers(0, 4, (3, 9, 9))
    target = rng.integers(0, 4, (3, 9, 9))
    np.testing.assert_array_equal(confusion_counts(pred, target, 4),
                                  naive_counts(pred, target, 4))


def test_confusion_counts_rows_sum_to_total():
    rng = np.random.default_rng(71)
    pred = rng.integers(0, 3, (5, 5))
    target = rng.integers(0, 3, (5, 5))
    counts = confusion_counts(pred, target, 3)
    np.testing.assert_array_equal(counts.sum(axis=1), [25, 25, 25])


def test_confusion_counts_validation():
    with pytest.raises(ValueError, match="pred"):
        confusion_counts(np.zeros((2, 2), int), np.zeros((2, 3), int), 2)
    with pytest.raises(ValueError, match="outside"):
        confusion_counts(np.array([0, 5]), np.array([0, 1]), 2)


def test_pixel_metrics_hand_worked_example():
    # TP 3, FP 1, FN 1, TN 11
    rows = pixel_metrics(np.array([[3, 1, 1, 11]]))
    row = rows[0]
    assert row["dsc"] == 0.75
    assert row["iou"] == 0.6
    assert row["accuracy"] == 0.875
    assert row["precision"] == 0.75
    assert row["recall"] == 0.75


def test_zero_denominator_metrics_are_none():
    row = pixel_metrics(np.array([[0, 0, 0, 16]]))[0]
    assert row["dsc"] is None and row["iou"] is None
    assert row["precision"] is None and row["recall"] is None
    assert row["accuracy"] == 1.0


def test_dsc_iou_identity_over_seeded_counts():
    # DSC = 2 * IoU / (1 + IoU), checked over many random count tuples
    rng = np.random.default_rng(72)
    for _ in range(1000):
        tp, fp, fn = (int(v) for v in rng.integers(0, 50, 3))
        if tp + fp + fn == 0:
            continue
        row = pixel_metrics(np.array([[tp, fp, fn, 0]]))[0]
        iou = row["iou"]
        assert abs(row["dsc"] - 2 * iou / (1 + iou)) < 1e-12


def test_dsc_is_harmonic_mean_of_precision_and_recall():
    rng = np.random.default_rng(73)
    for _ in range(200):
        tp, fp, fn = (int(v) for v in rng.integers(1, 40, 3))
        row = pixel_metrics(np.array([[tp, fp, fn, 0]]))[0]
        p, r = row["precision"], row["recall"]
        assert abs(row["dsc"] - 2 * p * r / (p + r)) < 1e-12


def test_mean_defined_skips_none():
    assert mean_defined([1.0, None, 0.0]) == 0.5
    assert mean_defined([None, None]) is None


def test_hausdorff_identical_masks_is_zero():
    mask = np.zeros((8, 8), bool)
    mask[2:5, 2:5] = True
    assert hausdorff_distance(mask, mask) == 0.0


def test_hausdorff_exact_point_separation():
    a = np.zeros((16, 16), bool)
    b = np.zeros((16, 16), bool)
    a[3, 4] = True
    b[3, 9] = True
    assert hausdorff_distance(a, b) == 5.0


def test_hausdorff_is_max_of_directed_distances():
    # b contains a plus a far outlier: the a->b direction is 0 but the
    # b->a direction reaches the outlier
    a = np.zeros((32, 32), bool)
    b = np.zeros((32, 32), bool)
    a[0, 0] = True
    b[0, 0] = True
    b[0, 10] = True
    assert hausdorff_distance(a, b) == 10.0
    assert hausdorff_distance(b, a) == 10.0


def test_hausdorff_empty_mask_conventions():
    empty = np.zeros((5, 9), bool)
    full = np.ones((5, 9), bool)
    assert hausdorff_distance(empty, empty) is None
    assert hausdorff_distance(empty, full) == np.hypot(4, 8)
    with pytest.raises(ValueError, match="differ"):
        hausdorff_distance(empty, np.zeros((5, 5), bool))


def test_hausdorff_symmetry_on_random_masks():
    rng = np.random.default_rng(74)
    for _ in range(20):
        a = rng.random((12, 12)) < 0.2
        b = rng.random((12, 12)) < 0.2
        if not a.any() or not b.any():
            continue
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


def test_hausdorff_chunked_matches_direct():
    # more than one 2048-point chunk on one side
    rng = np.random.default_rng(75)
    a = rng.random((80, 80)) < 0.5
    b = rng.random((80, 80)) < 0.5
    pa = np.argwhere(a).astype(float)
    pb = np.argwhere(b).astype(float)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1)
    want = max(np.sqrt(d2.min(axis=1).max()), np.sqrt(d2.min(axis=0).max()))
    assert abs(hausdorff_distance(a, b) - want) < 1e-12


def brute_hausdorff(a, b):
    """Symmetric max-min over every pixel pair, in integers."""
    pa, pb = np.argwhere(a), np.argwhere(b)
    if not len(pa) and not len(pb):
        return None
    if not len(pa) or not len(pb):
        return math.hypot(a.shape[0] - 1, a.shape[1] - 1)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1)
    return math.sqrt(max(int(d2.min(1).max()), int(d2.min(0).max())))


def edge_brute_hausdorff(a, b):
    """The brute force over fewer pairs, for 224-pixel maps.

    A pixel of ``a`` inside ``b`` is at distance 0. For any other pixel,
    the nearest pixel of ``b`` has an in-image 4-neighbour outside ``b``,
    or its neighbour towards the query would be nearer; so only those
    edge pixels of ``b`` are searched.
    """
    def edge(m):
        p = np.pad(m, 1, constant_values=True)
        inner = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
        return np.argwhere(m & ~inner)

    def directed_sq(src, dst):
        pts = np.argwhere(src & ~dst)
        if not len(pts):
            return 0
        d2 = ((pts[:, None, :] - edge(dst)[None, :, :]) ** 2).sum(-1)
        return int(d2.min(1).max())

    if not a.any() or not b.any():
        return brute_hausdorff(a, b)
    return math.sqrt(max(directed_sq(a, b), directed_sq(b, a)))


@st.composite
def mask_pairs(draw):
    side = st.integers(1, 40)
    h, w = draw(st.one_of(st.tuples(st.just(1), side), st.tuples(side, st.just(1)),
                          st.tuples(side, side)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = []
    for _ in range(2):
        kind = draw(st.sampled_from(["bool", "int", "labels", "pixel", "full"]))
        p = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.9]))
        if kind == "bool":
            m = rng.random((h, w)) < p
        elif kind == "int":     # nonzero values of any size count as in
            m = (rng.random((h, w)) < p) * rng.integers(1, 300, (h, w))
        elif kind == "labels":
            m = rng.integers(0, 4, (h, w)) == draw(st.integers(0, 3))
        elif kind == "pixel":
            m = np.zeros((h, w), np.uint8)
            m[rng.integers(h), rng.integers(w)] = 1
        else:
            m = np.ones((h, w), bool)
        masks.append(m)
    return masks


@settings(max_examples=300, deadline=None)
@given(mask_pairs())
def test_hausdorff_matches_brute_force(pair):
    a, b = pair
    want = brute_hausdorff(a, b)
    assert hausdorff_distance(a, b) == want
    assert edge_brute_hausdorff(a != 0, b != 0) == want


def test_hausdorff_of_translated_rectangles_at_224():
    for ty, tx in ((7, -9), (0, 13), (-40, 1)):
        a = np.zeros((224, 224), bool)
        a[90:120, 60:140] = True
        b = np.roll(a, (ty, tx), axis=(0, 1))
        want = math.sqrt(float(ty * ty + tx * tx))
        assert hausdorff_distance(a, b) == want
        assert edge_brute_hausdorff(a, b) == want


def test_hausdorff_rejects_masks_that_are_not_2d():
    for shape in ((7,), (3, 4, 5)):
        full, empty = np.ones(shape, bool), np.zeros(shape, bool)
        for a, b in ((full, full), (full, empty), (empty, empty)):
            with pytest.raises(ValueError, match=r"2-D, got shape"):
                hausdorff_distance(a, b)


def test_evaluate_predictions_hausdorff_on_224_nine_class_map():
    rng = np.random.default_rng(78)
    target = np.kron(rng.integers(0, 9, (14, 14)), np.ones((16, 16), np.int64))
    pred = np.roll(target, (3, -5), axis=(0, 1))
    flip = rng.random(pred.shape) < 0.002
    pred[flip] = rng.integers(0, 9, int(flip.sum()))
    report = evaluate_predictions([pred], [target], 9, with_hausdorff=True)
    want = [edge_brute_hausdorff(pred == k, target == k) for k in range(9)]
    assert report.hausdorff == want
    assert report.mean_hausdorff == sum(want[1:]) / 8


def test_evaluate_predictions_pools_counts_before_dividing():
    # two images whose pooled DSC differs from the mean of per-image DSCs
    p1 = np.array([[1, 0]])
    t1 = np.array([[1, 1]])
    p2 = np.array([[1, 1]])
    t2 = np.array([[1, 1]])
    report = evaluate_predictions([p1, p2], [t1, t2], 2)
    pooled = confusion_counts(np.array([p1, p2]), np.array([t1, t2]), 2)
    np.testing.assert_array_equal(report.counts, pooled)
    tp, fp, fn, _ = pooled[1]
    assert report.per_class[1]["dsc"] == 2 * tp / (2 * tp + fp + fn)


def test_evaluate_predictions_foreground_excludes_background():
    pred = np.array([[0, 1], [2, 2]])
    report = evaluate_predictions([pred], [pred], 3, with_hausdorff=True)
    assert report.means["dsc"] == 1.0
    assert report.foreground_means["dsc"] == 1.0
    assert report.num_images == 1
    # class absent from both masks is skipped, present classes give 0.0
    assert report.hausdorff == [0.0, 0.0, 0.0]
    assert report.mean_hausdorff == 0.0


def test_evaluate_predictions_validation():
    img = np.zeros((2, 2), int)
    with pytest.raises(ValueError, match="predictions vs"):
        evaluate_predictions([img], [img, img], 2)
    with pytest.raises(ValueError, match="no images"):
        evaluate_predictions([], [], 2)


def test_report_to_json_round_trips():
    rng = np.random.default_rng(76)
    pred = rng.integers(0, 3, (6, 6))
    target = rng.integers(0, 3, (6, 6))
    report = evaluate_predictions([pred], [target], 3, with_hausdorff=True)
    doc = json.loads(report.to_json())
    assert doc["num_classes"] == 3
    assert doc["counts"] == report.counts.tolist()
    assert doc["means"]["dsc"] == report.means["dsc"]
    assert len(doc["per_class"]) == 3
