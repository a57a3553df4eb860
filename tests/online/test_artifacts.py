"""Artifact persistence: save→load round-trips and manifest validation."""

import gc
import json
import warnings

import numpy as np
import pytest

from repro import IIMImputer, KNNImputer, MeanImputer, load_dataset
from repro.baselines.base import BaseImputer
from repro.data.missing import inject_missing
from repro.exceptions import ConfigurationError
from repro.online import OnlineImputationEngine, read_artifact, write_artifact
from repro.online.artifacts import ARTIFACT_VERSION, MANIFEST_FILENAME


@pytest.fixture(scope="module")
def injection():
    relation = load_dataset("asf", size=180)
    return inject_missing(relation, fraction=0.1, random_state=1)


@pytest.mark.parametrize(
    "make_imputer",
    [
        lambda: IIMImputer(k=5, learning="fixed", learning_neighbors=8),
        lambda: IIMImputer(k=5, learning="adaptive", stepping=5,
                           max_learning_neighbors=20),
        lambda: MeanImputer(),
        lambda: KNNImputer(k=4, weighting="distance"),
    ],
    ids=["iim-fixed", "iim-adaptive", "mean", "knn"],
)
def test_imputer_roundtrip_is_bit_identical(injection, make_imputer, tmp_path):
    imputer = make_imputer()
    imputer.fit(injection.dirty)
    before = imputer.impute(injection.dirty).raw
    imputer.save(tmp_path / "artifact")
    restored = BaseImputer.load(tmp_path / "artifact")
    assert type(restored) is type(imputer)
    after = restored.impute(injection.dirty).raw
    np.testing.assert_array_equal(before, after)


def test_iim_roundtrip_keeps_learned_models(injection, tmp_path):
    imputer = IIMImputer(k=5, learning="adaptive", stepping=5,
                         max_learning_neighbors=20)
    imputer.fit_impute(injection.dirty)
    imputer.save(tmp_path / "artifact")
    restored = IIMImputer.load(tmp_path / "artifact")
    # The lazily-learned models travelled with the artifact.
    for target_index in imputer._models:
        np.testing.assert_array_equal(
            restored.learned_models(target_index).parameters,
            imputer.learned_models(target_index).parameters,
        )


def test_load_with_class_check(injection, tmp_path):
    imputer = MeanImputer().fit(injection.dirty)
    imputer.save(tmp_path / "artifact")
    assert isinstance(MeanImputer.load(tmp_path / "artifact"), MeanImputer)
    with pytest.raises(ConfigurationError):
        KNNImputer.load(tmp_path / "artifact")


def test_save_requires_fit(tmp_path):
    with pytest.raises(ConfigurationError):
        MeanImputer().save(tmp_path / "artifact")


def test_get_params_reflects_constructor():
    imputer = KNNImputer(k=7, weighting="distance")
    assert imputer.get_params() == {
        "k": 7, "weighting": "distance", "metric": "paper_euclidean",
    }
    params = IIMImputer(k=3, learning="fixed", learning_neighbors=2).get_params()
    assert params["learning"] == "fixed" and params["learning_neighbors"] == 2
    rebuilt = IIMImputer(**params)
    assert rebuilt.get_params() == params


def test_engine_snapshot_roundtrip(tmp_path):
    values = load_dataset("ccpp", size=220).raw
    engine = OnlineImputationEngine(
        k=4, learning="adaptive", stepping=3, max_learning_neighbors=20
    )
    engine.append(values[:150])
    rng = np.random.default_rng(0)
    queries = values[150:170].copy()
    for r in range(queries.shape[0]):
        queries[r, rng.integers(queries.shape[1])] = np.nan
    warm = engine.impute_batch(queries)
    engine.snapshot(tmp_path / "engine")

    restored = OnlineImputationEngine.load(tmp_path / "engine")
    np.testing.assert_array_equal(warm, restored.impute_batch(queries))
    # The restored engine keeps streaming identically to the original.
    engine.append(values[170:200])
    restored.append(values[170:200])
    np.testing.assert_array_equal(
        engine.impute_batch(queries), restored.impute_batch(queries)
    )


def test_engine_snapshot_after_churn_roundtrip(tmp_path):
    """Snapshots fold pending lifecycle mutations and restore bit-for-bit."""
    values = load_dataset("ccpp", size=220).raw
    engine = OnlineImputationEngine(
        k=4, learning="adaptive", stepping=3, max_learning_neighbors=20
    )
    engine.append(values[:150])
    queries = values[200:210].copy()
    queries[:, 1] = np.nan
    engine.impute_batch(queries)
    # Leave a burst of lazy mutations pending at snapshot time.
    engine.update(7, values[160])
    engine.delete([0, 33, 149])
    engine.append(values[150:160])
    engine.snapshot(tmp_path / "engine")

    restored = OnlineImputationEngine.load(tmp_path / "engine")
    np.testing.assert_array_equal(
        engine.impute_batch(queries), restored.impute_batch(queries)
    )
    # Both engines keep accepting lifecycle mutations identically.
    engine.delete([5])
    restored.delete([5])
    engine.update(2, values[170])
    restored.update(2, values[170])
    np.testing.assert_array_equal(
        engine.impute_batch(queries), restored.impute_batch(queries)
    )
    np.testing.assert_array_equal(
        engine.store_relation().raw, restored.store_relation().raw
    )


def test_manifest_v3_carries_store_metadata(tmp_path):
    values = load_dataset("ccpp", size=120).raw
    engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=4)
    engine.append(values[:80])
    path = engine.snapshot(tmp_path / "engine")
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    assert manifest["version"] == ARTIFACT_VERSION == 3
    assert manifest["store"] == {"n_rows": 80, "n_pending": 0}
    assert manifest["engine"] == {"model_cache_size": engine.model_cache_size}
    restored = OnlineImputationEngine.load(path)
    np.testing.assert_array_equal(restored.store.matrix(), engine.store.matrix())


def test_manifest_naming_a_removed_engine_knob_still_loads(tmp_path):
    """A snapshot whose engine and store sections name knobs and fields
    this build no longer has loads, and answers bit-identically to the
    engine that wrote it."""
    values = load_dataset("ccpp", size=220).raw
    engine = OnlineImputationEngine(
        k=4, learning="adaptive", stepping=3, max_learning_neighbors=20
    )
    engine.append(values[:150])
    queries = values[150:170].copy()
    queries[np.arange(20), np.arange(20) % queries.shape[1]] = np.nan
    warm = engine.impute_batch(queries)
    path = engine.snapshot(tmp_path / "engine")
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    manifest["engine"]["incremental_fallback_fraction"] = 0.9
    # The row-shard fields snapshots of the sharded store carried.
    manifest["engine"]["shard_capacity"] = 4096
    manifest["store"].update(shard_capacity=4096, n_shards=1)
    # The mutation-journal ring knob snapshots carried before the slot diff.
    manifest["engine"]["journal_capacity"] = 512
    # The refresh schedule knob: states now sync only when read.
    manifest["engine"]["refresh_policy"] = "eager"
    (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))

    restored = OnlineImputationEngine.load(path)
    np.testing.assert_array_equal(restored.impute_batch(queries), warm)
    for served in (engine, restored):
        served.append(values[170:200])
    np.testing.assert_array_equal(
        restored.impute_batch(queries), engine.impute_batch(queries)
    )


@pytest.mark.parametrize(
    "corruption",
    [
        lambda m: m.pop("store"),
        lambda m: m["store"].update(n_rows=999),
    ],
    ids=["missing-section", "row-mismatch"],
)
def test_corrupt_shard_metadata_rejected_with_recreate_hint(tmp_path, corruption):
    values = load_dataset("ccpp", size=100).raw
    engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=4)
    engine.append(values[:60])
    path = engine.snapshot(tmp_path / "engine")
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    corruption(manifest)
    (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="re-create the snapshot"):
        OnlineImputationEngine.load(path)


def test_version1_snapshot_rejected_with_hint(tmp_path):
    """Older snapshots (pre-lifecycle v1, pre-sharding v2) fail loudly
    instead of restoring garbage."""
    values = load_dataset("ccpp", size=120).raw
    engine = OnlineImputationEngine(k=3, learning="fixed", learning_neighbors=4)
    engine.append(values[:80])
    path = engine.snapshot(tmp_path / "engine")
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    for version in (1, 2):
        manifest["version"] = version
        (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(
            ConfigurationError, match=f"found {version}.*re-create the snapshot"
        ):
            OnlineImputationEngine.load(path)


def test_corrupted_manifest_raises(tmp_path):
    path = write_artifact(tmp_path / "a", "imputer", {"class": "MeanImputer"}, {
        "relation_values": np.zeros((2, 2))
    })
    (path / MANIFEST_FILENAME).write_text("{not valid json")
    with pytest.raises(ConfigurationError, match="corrupted"):
        read_artifact(path)


def test_version_mismatch_raises(tmp_path):
    path = write_artifact(tmp_path / "a", "imputer", {}, {"x": np.zeros(3)})
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    manifest["version"] = ARTIFACT_VERSION + 1
    (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="version mismatch"):
        read_artifact(path)


def test_wrong_format_and_kind_raise(tmp_path):
    path = write_artifact(tmp_path / "a", "engine", {}, {"x": np.zeros(3)})
    with pytest.raises(ConfigurationError, match="holds a 'engine'"):
        read_artifact(path, expected_kind="imputer")
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    manifest["format"] = "something-else"
    (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="not a repro-artifact"):
        read_artifact(path)


def _arrays_path(path):
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    return path / manifest["arrays_file"]


def test_missing_files_raise(tmp_path):
    with pytest.raises(ConfigurationError, match="manifest not found"):
        read_artifact(tmp_path / "nowhere")
    path = write_artifact(tmp_path / "a", "imputer", {}, {"x": np.zeros(3)})
    _arrays_path(path).unlink()
    with pytest.raises(ConfigurationError, match="array file not found"):
        read_artifact(path)


def test_torn_arrays_file_rejected_with_recreate_hint(tmp_path):
    """A half-written .npz is detected, not deserialized into garbage, and
    rejecting it leaks no file handle."""
    path = write_artifact(tmp_path / "a", "imputer", {}, {"x": np.arange(8.0)})
    arrays_path = _arrays_path(path)
    data = arrays_path.read_bytes()
    arrays_path.write_bytes(data[: len(data) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigurationError, match="re-create the snapshot"):
            read_artifact(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize(
    "site", ["artifact.arrays", "artifact.manifest", "artifact.commit"]
)
def test_crashed_overwrite_leaves_old_artifact_intact(tmp_path, site):
    """A crash at any point of an overwrite leaves old-or-new, never torn."""
    from repro.reliability import Fault, FaultPlan, SimulatedCrash

    path = write_artifact(tmp_path / "a", "imputer", {}, {"x": np.zeros(3)})
    plan = FaultPlan([Fault(site, "crash")])
    with pytest.raises(SimulatedCrash):
        write_artifact(
            tmp_path / "a", "imputer", {}, {"x": np.ones(3)}, injector=plan
        )
    _, arrays = read_artifact(path)
    np.testing.assert_array_equal(arrays["x"], np.zeros(3))
    # The next (uninjected) overwrite commits and GCs the debris.
    write_artifact(tmp_path / "a", "imputer", {}, {"x": np.full(3, 2.0)})
    _, arrays = read_artifact(path)
    np.testing.assert_array_equal(arrays["x"], np.full(3, 2.0))
    assert sorted(p.name for p in path.glob("arrays*.npz")) == [
        json.loads((path / MANIFEST_FILENAME).read_text())["arrays_file"]
    ]


def test_torn_arrays_write_never_commits(tmp_path):
    """A torn byte-level write dies in staging; the target stays absent."""
    from repro.reliability import Fault, FaultPlan, SimulatedCrash

    plan = FaultPlan([Fault("artifact.arrays", "torn_write", byte_offset=10)])
    with pytest.raises(SimulatedCrash):
        write_artifact(tmp_path / "a", "imputer", {}, {"x": np.zeros(3)},
                       injector=plan)
    with pytest.raises(ConfigurationError, match="manifest not found"):
        read_artifact(tmp_path / "a")


def test_array_mismatch_raises(tmp_path):
    path = write_artifact(tmp_path / "a", "imputer", {}, {"x": np.zeros(3)})
    manifest = json.loads((path / MANIFEST_FILENAME).read_text())
    manifest["arrays"] = ["x", "y"]
    (path / MANIFEST_FILENAME).write_text(json.dumps(manifest))
    with pytest.raises(ConfigurationError, match="do not match the manifest"):
        read_artifact(path)
