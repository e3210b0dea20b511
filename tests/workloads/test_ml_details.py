"""Deeper unit tests for the ML workload building blocks."""

import numpy as np
import pytest

from repro.workloads import ml_training
from repro.workloads.data import make_images
from repro.workloads.ml_prediction import (_pad_tree, load_model,
                                           train_reference_model)
from repro.workloads.ml_training import (_boost_trees, binary_labels,
                                         fit_pca, grow_tree,
                                         images_to_matrix, pca_transform,
                                         predict_margins, reference_basis)


def test_images_to_matrix_shape_and_scale():
    images, _ = make_images(10, seed=0)
    matrix = images_to_matrix(images)
    assert matrix.shape == (10, 28 * 28)
    assert 0.0 <= matrix.min() and matrix.max() <= 1.0


def test_binary_labels_partition():
    labels = [0, 4, 5, 9]
    target = binary_labels(labels)
    assert list(target) == [-1.0, -1.0, 1.0, 1.0]


def test_reference_basis_cached_and_deterministic():
    a_mean, a_comps = reference_basis(8)
    b_mean, b_comps = reference_basis(8)
    assert a_mean is b_mean  # cached object
    c_mean, c_comps = reference_basis(12)
    assert c_comps.shape[1] == 12
    assert np.array_equal(a_comps, b_comps)


def test_fit_pca_captures_variance_in_order():
    rng = np.random.default_rng(0)
    # anisotropic data: one dominant direction
    base = rng.normal(size=(500, 1)) @ np.array([[5.0, 0.5, 0.1, 0.0]])
    data = base + rng.normal(scale=0.1, size=(500, 4))
    mean, comps = fit_pca(data, 2)
    feats = pca_transform(data, mean, comps)
    # first component variance dominates the second
    assert feats[:, 0].var() > 5 * feats[:, 1].var()


def test_grow_tree_respects_min_leaf():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(40, 3))
    target = rng.normal(size=40)
    tree = grow_tree(feats, target, rng, max_depth=8, min_leaf=16)
    # with min_leaf=16 over 40 samples the tree stays tiny
    assert tree.n_nodes <= 7


def test_grow_tree_constant_target_is_single_leaf():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(100, 3))
    tree = grow_tree(feats, np.ones(100), rng)
    assert tree.n_nodes == 1
    assert tree.predict(feats[0]) == pytest.approx(1.0)


def test_pad_tree_preserves_predictions():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(200, 4))
    target = np.where(feats[:, 0] > 0, 1.0, -1.0)
    tree = grow_tree(feats, target, rng)
    padded = _pad_tree(tree, 500)
    assert padded.n_nodes == 500
    for x in feats[:20]:
        assert padded.predict(x) == pytest.approx(tree.predict(x))


def test_padded_model_size_scales():
    small = train_reference_model(n_components=8, n_trees=4, pad_nodes=0)
    big = train_reference_model(n_components=8, n_trees=4, pad_nodes=1000)
    assert big.nbytes() > 10 * small.nbytes()
    # same predictions
    x = np.zeros(8)
    assert big.predict_margin(x) == pytest.approx(small.predict_margin(x))


def test_predict_margins_vectorizes_over_rows():
    model = train_reference_model(n_components=8, n_trees=4)
    images, _ = make_images(5, seed=9)
    matrix = images_to_matrix(images)
    mean, comps = reference_basis(8)
    feats = pca_transform(matrix, mean, comps)
    margins = predict_margins(model, feats)
    assert margins.shape == (5,)
    assert margins[0] == pytest.approx(model.predict_margin(feats[0]))


def test_tree_cache_returns_equal_results():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(128, 8))
    target = np.sign(feats[:, 0])
    first = _boost_trees(feats, target, 2, instance_index=0)
    second = _boost_trees(feats, target, 2, instance_index=0)
    assert second is not first  # each call gets its own list...
    assert all(a is b for a, b in zip(first, second))  # ...of memo trees
    other = _boost_trees(feats, target, 2, instance_index=1)
    assert other != first


def test_tree_cache_key_covers_every_row(monkeypatch):
    """Inputs that agree on shape, row 0 and the target sum but differ
    everywhere else must not share a memo entry."""
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(128, 8))
    target = np.sign(feats[:, 0])
    _boost_trees(feats, target, 2, instance_index=0)
    flipped = feats.copy()
    flipped[1:] *= -1.0
    got = _boost_trees(flipped, target, 2, instance_index=0)
    monkeypatch.setattr(ml_training, "_TREE_CACHE", {})
    fresh = _boost_trees(flipped, target, 2, instance_index=0)
    assert got == fresh


class _Ctx:
    """The slice of a function context that ``load_model`` reads."""

    def __init__(self, params):
        self.params = params

    def charge_compute(self, ns):
        pass


def test_cached_basis_is_read_only():
    mean, comps = reference_basis(8)
    with pytest.raises(ValueError):
        mean[0] = 99.0
    with pytest.raises(ValueError):
        comps[0, 0] = 99.0
    images, _ = make_images(n_images=300, side=28, seed=42)
    fresh_mean, fresh_comps = fit_pca(images_to_matrix(images), 8)
    again_mean, again_comps = reference_basis(8)
    assert np.array_equal(again_mean, fresh_mean)
    assert np.array_equal(again_comps, fresh_comps)


def test_cached_model_is_not_shared_mutable_state():
    params = {"n_components": 8, "n_trees": 4, "model_nodes": 0,
              "seed": 0}
    first = load_model(_Ctx(params))
    with pytest.raises(ValueError):
        first.trees[0].value[0] = 99.0
    first.trees.append(first.trees[0])  # the caller's own model
    second = load_model(_Ctx(params))
    assert second == train_reference_model(n_components=8, n_trees=4,
                                           seed=0)
