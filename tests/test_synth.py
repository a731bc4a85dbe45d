import filecmp
import os

import numpy as np
import pytest

from gestemo.dataio import load_sample, read_manifest
from gestemo.errors import GestemoError
from gestemo.events import DAVIS346, Geometry, GestureClass, emotion_of
from gestemo.synth import (
    DatasetSpec,
    build_dataset,
    class_direction,
    synth_features,
)

SMALL = DatasetSpec(
    gestures=(GestureClass.OK, GestureClass.NO, GestureClass.VICTORY),
    per_class=3,
    geometry=Geometry(16, 16),
    duration_us=100_000,
    min_events=40,
    max_events=60,
    min_frames=4,
    max_frames=8,
    feature_dim=4,
)


def test_spec_validation():
    with pytest.raises(GestemoError, match="at least one gesture and one sample"):
        DatasetSpec(per_class=0)
    with pytest.raises(GestemoError, match="duplicate gesture"):
        DatasetSpec(gestures=(GestureClass.OK, GestureClass.OK))
    with pytest.raises(GestemoError, match="bad event count range"):
        DatasetSpec(min_events=10, max_events=5)
    with pytest.raises(GestemoError, match=r"train_fraction must be in \(0, 1\)"):
        DatasetSpec(train_fraction=1.0)


def test_class_direction_unit_and_stable():
    d1 = class_direction(GestureClass.OK, 8)
    d2 = class_direction(GestureClass.OK, 8)
    assert np.array_equal(d1, d2)
    assert np.linalg.norm(d1) == pytest.approx(1.0)
    other = class_direction(GestureClass.NO, 8)
    assert abs(float(d1 @ other)) < 0.99  # directions are not collinear


def test_synth_features_envelope():
    rng = np.random.default_rng(0)
    seq = synth_features(GestureClass.OK, 9, 4, rng, amplitude=3.0, noise=0.0)
    norms = np.linalg.norm(seq.vectors, axis=1)
    assert norms[0] == pytest.approx(0.0, abs=1e-12)   # half-sine endpoints
    assert norms[-1] == pytest.approx(0.0, abs=1e-12)
    assert norms[4] == pytest.approx(3.0)              # peak mid-clip


def test_build_dataset_layout(tmp_path):
    m = build_dataset(tmp_path / "d", SMALL, seed=1)
    assert len(m.entries) == 9
    assert os.path.exists(os.path.join(m.root, "manifest.json"))
    train, test = set(m.ids("train")), set(m.ids("test"))
    assert not train & test and train | test == set(m.ids())
    # 2/3 of 3 rounds to 2 train per class
    assert len(m.ids("train")) == 6 and len(m.ids("test")) == 3
    back = read_manifest(os.path.join(m.root, "manifest.json"))
    assert [e.id for e in back.entries] == [e.id for e in m.entries]


def test_build_dataset_samples_load_consistently(tmp_path):
    m = build_dataset(tmp_path / "d", SMALL, seed=2)
    for sid in m.ids():
        s = load_sample(m, sid)
        assert s.emotion == emotion_of(s.gesture)
        assert 40 <= len(s.events) <= 60
        assert 4 <= len(s.features.vectors) <= 8
        assert s.events.geometry == Geometry(16, 16)


def test_build_dataset_deterministic(tmp_path):
    ma = build_dataset(tmp_path / "a", SMALL, seed=3)
    mb = build_dataset(tmp_path / "b", SMALL, seed=3)
    for e in ma.entries:
        assert filecmp.cmp(os.path.join(ma.root, e.events),
                           os.path.join(mb.root, e.events), shallow=False)
        assert filecmp.cmp(os.path.join(ma.root, e.features),
                           os.path.join(mb.root, e.features), shallow=False)


def test_build_dataset_seed_changes_data(tmp_path):
    ma = build_dataset(tmp_path / "a", SMALL, seed=4)
    mb = build_dataset(tmp_path / "b", SMALL, seed=5)
    same = all(
        filecmp.cmp(os.path.join(ma.root, e.events),
                    os.path.join(mb.root, e.events), shallow=False)
        for e in ma.entries)
    assert not same


def test_default_spec_covers_all_gestures():
    spec = DatasetSpec()
    assert len(spec.gestures) == 10
    assert spec.geometry == DAVIS346
