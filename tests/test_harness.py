import mmap
import multiprocessing
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from fsdc import harness
from fsdc.calibration import CalibrationParams, calibrate_support_set
from fsdc.classifiers import OptimizerConfig, train_logistic
from fsdc.errors import DataError, SpecError
from fsdc.features_io import (Dataset, SplitManifest, SyntheticSpec,
                              generate_synthetic, load_dataset, save_dataset)
from fsdc.harness import (_DOM_GEN, _DOM_SAMPLE, Episode, EpisodeSpec,
                          EvalReport, PipelineConfig, collect_episode_features,
                          evaluate, project_2d, run_episode, sample_episode)
from fsdc.rng import PortableRng, derive_key
from fsdc.sampling import SamplerConfig, sample_features
from fsdc.stats import BaseStatsTable, build_base_stats
from fsdc.transform import TukeyParams, tukey_transform


def make_world(num_classes=10, dim=8, per_class=40, group_size=5, seed=17):
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=num_classes, dim=dim, samples_per_class=per_class,
        group_size=group_size, seed=seed))
    stats = build_base_stats(ds, split)
    return ds, split, stats


def quick_cfg(**kw):
    base = dict(
        sampler=SamplerConfig(total_per_class=50, seed=1),
        optimizer=OptimizerConfig(epochs=60),
    )
    base.update(kw)
    return PipelineConfig(**base)


# ------------------------------------------------------------------- episodes

def test_sample_episode_shapes():
    ds, split, _ = make_world()
    spec = EpisodeSpec(n_way=2, k_shot=1, q_queries=15, num_episodes=1, seed=3)
    ep = sample_episode(ds, split, spec, 0)
    assert ep.support_x.shape == (2, 8)
    assert ep.query_x.shape == (30, 8)
    assert list(ep.support_y) == [0, 1]
    assert list(ep.query_y) == [0] * 15 + [1] * 15
    assert len(set(ep.class_ids)) == 2
    assert all(c in split.novel_classes for c in ep.class_ids)


def test_sample_episode_is_deterministic_per_index():
    ds, split, _ = make_world()
    spec = EpisodeSpec(n_way=2, k_shot=3, q_queries=4, num_episodes=10, seed=9)
    a = sample_episode(ds, split, spec, 4)
    b = sample_episode(ds, split, spec, 4)
    c = sample_episode(ds, split, spec, 5)
    assert a.class_ids == b.class_ids
    assert np.array_equal(a.support_x, b.support_x)
    assert np.array_equal(a.query_x, b.query_x)
    assert (a.class_ids != c.class_ids
            or not np.array_equal(a.support_x, c.support_x))


def test_sample_episode_support_query_disjoint():
    ds, split, _ = make_world(per_class=20)
    spec = EpisodeSpec(n_way=2, k_shot=5, q_queries=15, num_episodes=1, seed=1)
    ep = sample_episode(ds, split, spec, 0)
    # support and query exhaust each class's 20 rows, so each row appears once
    for t, cid in enumerate(ep.class_ids):
        feats = ds.values[ds.rows_for(cid)].astype(np.float64)
        rows = {tuple(r) for r in feats}
        used = [tuple(r) for r in ep.support_x[ep.support_y == t]]
        used += [tuple(r) for r in ep.query_x[ep.query_y == t]]
        assert len(used) == 20
        assert set(used) == rows


def test_sample_episode_errors():
    ds, split, _ = make_world(num_classes=4, group_size=2, per_class=5)
    with pytest.raises(DataError, match="needs 5 novel classes"):
        sample_episode(ds, split, EpisodeSpec(n_way=5, k_shot=1, q_queries=2,
                                              num_episodes=1), 0)
    with pytest.raises(DataError, match="has 5 records, episode needs 6"):
        sample_episode(ds, split, EpisodeSpec(n_way=2, k_shot=1, q_queries=5,
                                              num_episodes=1), 0)


def test_episode_spec_validation():
    with pytest.raises(SpecError):
        EpisodeSpec(n_way=0)
    # a one-way task has nothing to classify, and training refuses it
    with pytest.raises(SpecError, match="n_way must be at least 2"):
        EpisodeSpec(n_way=1)
    with pytest.raises(SpecError):
        EpisodeSpec(q_queries=0)


# --------------------------------------------------------------- one episode

def test_run_episode_returns_accuracy_in_range():
    ds, split, stats = make_world(num_classes=15)
    spec = EpisodeSpec(n_way=3, k_shot=1, q_queries=10, num_episodes=1, seed=2)
    ep = sample_episode(ds, split, spec, 0)
    acc = run_episode(ep, stats, quick_cfg())
    assert 0.0 <= acc <= 1.0


def test_run_episode_memorizes_query_equals_support():
    ds, split, stats = make_world()
    x = np.array([[1.0] + [0.0] * 7, [0.0] * 7 + [1.0]])
    ep = Episode(index=0, class_ids=(4, 9),
                 support_x=x, support_y=np.array([0, 1]),
                 query_x=x, query_y=np.array([0, 1]))
    cfg = quick_cfg(tukey=TukeyParams(lam=1.0),
                    sampler=SamplerConfig(total_per_class=0, seed=1),
                    optimizer=OptimizerConfig(epochs=200))
    assert run_episode(ep, stats, cfg) == 1.0


def test_run_episode_attaches_index_to_errors():
    ds, split, stats = make_world()
    spec = EpisodeSpec(n_way=2, k_shot=1, q_queries=3, num_episodes=1, seed=2)
    ep = sample_episode(ds, split, spec, 7)
    cfg = quick_cfg(retrieve=1)
    with pytest.raises(SpecError, match="episode 7"):
        run_episode(ep, stats, cfg, base_data=None)


def test_run_episode_all_classifiers_agree_on_easy_data():
    ds, split, stats = make_world(per_class=60, seed=23)
    spec = EpisodeSpec(n_way=2, k_shot=5, q_queries=10, num_episodes=1, seed=5)
    ep = sample_episode(ds, split, spec, 0)
    for classifier in ("logistic", "svm"):
        acc = run_episode(ep, stats, quick_cfg(classifier=classifier))
        assert acc >= 0.5


def test_retrieval_baseline_runs():
    ds, split, stats = make_world(per_class=50)
    spec = EpisodeSpec(n_way=2, k_shot=1, q_queries=5, num_episodes=1, seed=6)
    ep = sample_episode(ds, split, spec, 0)
    cfg = quick_cfg(retrieve=5)
    acc = run_episode(ep, stats, cfg, base_data=ds)
    assert 0.0 <= acc <= 1.0
    with pytest.raises(SpecError,
                       match="episode 0: retrieval needs the base dataset"):
        run_episode(ep, stats, cfg)


@pytest.mark.parametrize("kw, k_shot", [
    ({}, 1),
    ({"sampler": SamplerConfig(total_per_class=0, seed=1)}, 1),
    ({"retrieve": 3}, 1),
    ({}, 2),
], ids=["default", "no_generation", "retrieval", "two_shot"])
def test_classifier_trains_on_the_collected_rows(monkeypatch, kw, k_shot):
    # run_episode and collect_episode_features share one pipeline: the
    # classifier sees exactly the support and non-query collected rows
    ds, split, stats = make_world(num_classes=15)
    spec = EpisodeSpec(n_way=3, k_shot=k_shot, q_queries=4, num_episodes=1,
                       seed=2)
    ep = sample_episode(ds, split, spec, 0)
    cfg = quick_cfg(**kw)
    seen = []

    def capture(train, config):
        seen.append(train)
        return train_logistic(train, config)

    monkeypatch.setattr("fsdc.harness.train_logistic", capture)
    run_episode(ep, stats, cfg, base_data=ds)
    features, class_ids, roles = collect_episode_features(ep, stats, cfg,
                                                          base_data=ds)
    trained = np.array([role != "query" for role in roles])
    (train,) = seen
    assert np.array_equal(train.features, features[trained])
    assert train.num_classes == len(ep.class_ids)
    assert np.array_equal(np.asarray(ep.class_ids)[train.labels],
                          class_ids[trained])


@pytest.mark.parametrize("k_shot, kw", [
    (1, {}),
    (5, {}),
    (5, {"tukey": TukeyParams(lam=1.0)}),
    (5, {"calib": CalibrationParams(use_novel_feature=False)}),
    (5, {"sampler": SamplerConfig(total_per_class=7, seed=1)}),
    (3, {"sampler": SamplerConfig(total_per_class=2, seed=1)}),
], ids=["one_shot", "five_shot", "no_tukey", "no_novel", "uneven_share",
        "zero_counts"])
def test_class_at_a_time_generation_equals_one_call(monkeypatch, k_shot, kw):
    # generation calibrates one support row at a time; the training rows
    # must equal, bit for bit, one calibration of the whole support set and
    # draws from it stacked behind the support rows: labels ascending, rows
    # in support order, the first total mod K rows of a class drawing one
    # extra, and row j of a class drawing from the stream of (label, j)
    ds, split, stats = make_world(num_classes=15)
    spec = EpisodeSpec(n_way=3, k_shot=k_shot, q_queries=4, num_episodes=1,
                       seed=2)
    ep = sample_episode(ds, split, spec, 3)
    cfg = quick_cfg(**kw)
    seen = []

    def capture(train, config):
        seen.append(train)
        return train_logistic(train, config)

    monkeypatch.setattr("fsdc.harness.train_logistic", capture)
    run_episode(ep, stats, cfg)
    support_x = tukey_transform(ep.support_x, cfg.tukey)
    dists = calibrate_support_set(support_x, ep.support_y, stats, cfg.calib)
    seed = derive_key(cfg.sampler.seed, _DOM_GEN, ep.index)
    total = cfg.sampler.total_per_class
    extra_x, extra_y = [], []
    for label in sorted(dists):
        share, extra = divmod(total, len(dists[label]))
        for j, dist in enumerate(dists[label]):
            count = share + (1 if j < extra else 0)
            if count == 0:   # a row with no draws is skipped
                continue
            rng = PortableRng(derive_key(seed, _DOM_SAMPLE, label, j))
            extra_x.append(sample_features(dist, count, rng)[0])
        extra_y += [label] * total
    (train,) = seen
    assert np.array_equal(train.features,
                          np.concatenate([support_x, *extra_x]))
    assert np.array_equal(train.labels, np.concatenate([ep.support_y,
                                                        extra_y]))


def test_episode_holds_one_distribution_at_a_time(monkeypatch):
    # every distribution the episode calibrates is dead by the time the
    # next support row is calibrated, and by the end of the episode
    ds, split, stats = make_world(num_classes=15)
    spec = EpisodeSpec(n_way=3, k_shot=5, q_queries=4, num_episodes=1,
                       seed=2)
    ep = sample_episode(ds, split, spec, 0)
    cfg = quick_cfg(sampler=SamplerConfig(total_per_class=7, seed=1))
    refs = []

    def tracked(*args):
        alive = [i for i, ref in enumerate(refs) if ref() is not None]
        assert not alive, f"distributions {alive} alive at call {len(refs)}"
        made = calibrate_support_set(*args)
        refs.extend(weakref.ref(d) for dists in made.values() for d in dists)
        return made

    monkeypatch.setattr("fsdc.harness.calibrate_support_set", tracked)
    run_episode(ep, stats, cfg)
    assert len(refs) == spec.n_way * spec.k_shot
    assert all(ref() is None for ref in refs)


def test_non_finite_calibrated_covariance_names_its_row():
    # the covariance a NaN base statistic spreads into is refused when it is
    # factored, with the class and row it was calibrated for
    nan = float("nan")
    stats = BaseStatsTable([0, 1], [[1.0, 1.0], [2.0, 2.0]], [10, 10],
                           [[1.0, 0.0, 1.0], [nan, 0.0, 1.0]])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    ep = Episode(index=0, class_ids=(4, 9),
                 support_x=x, support_y=np.array([0, 1]),
                 query_x=x, query_y=np.array([0, 1]))
    with pytest.raises(DataError, match="episode 0: class 0, distribution 0"):
        run_episode(ep, stats, quick_cfg())


def test_episode_holds_one_covariance_at_a_time():
    # the same episode: one covariance at d=256 is 0.5 MB; calibrating a
    # class's 5 before drawing from any of them peaked at 6.29 MB.  The
    # first episode in a process also makes about 1 MB of one-off
    # allocations, so the episode runs once untraced and the traced run
    # peaks at 2.49 MB whichever tests ran before.  That peak comes from the
    # draw (a covariance, its factor and a block's normals and their
    # temporaries), not from calibration; a distribution's lifetime is
    # checked by test_episode_holds_one_distribution_at_a_time.  The bound,
    # 4.35 MB, allows four d×d matrices plus four copies of the training
    # matrix
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=30, dim=256, samples_per_class=40, group_size=5, seed=2))
    stats = build_base_stats(ds, split)
    spec = EpisodeSpec(n_way=5, k_shot=5, q_queries=15, num_episodes=1, seed=4)
    ep = sample_episode(ds, split, spec, 0)
    cfg = quick_cfg(optimizer=OptimizerConfig(epochs=2))
    d = ds.dim
    n_train = spec.n_way * (spec.k_shot + cfg.sampler.total_per_class)
    bound = 4 * d * d * 8 + 4 * n_train * d * 8
    run_episode(ep, stats, cfg)   # the first episode's one-off allocations
    tracemalloc.start()
    try:
        run_episode(ep, stats, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def test_pipeline_config_validation():
    for classifier in ("forest", "max_likelihood"):
        with pytest.raises(SpecError):
            PipelineConfig(classifier=classifier)
    with pytest.raises(SpecError, match="retrieve must be non-negative"):
        PipelineConfig(retrieve=-1)


def test_payloads_pin_the_report_format():
    # the report is a file format: these literals fail if a field rename
    # would silently rename a report key
    spec = EpisodeSpec(n_way=3, k_shot=2, q_queries=7, num_episodes=11, seed=5)
    assert spec.to_payload() == {"n_way": 3, "k_shot": 2, "q_queries": 7,
                                 "num_episodes": 11, "seed": 5}
    cfg = PipelineConfig(
        tukey=TukeyParams(lam=0.25),
        calib=CalibrationParams(k=3, alpha=0.5, use_novel_feature=False),
        sampler=SamplerConfig(total_per_class=40, seed=9),
        optimizer=OptimizerConfig(epochs=12, l2=0.0),
        classifier="svm", retrieve=4)
    assert cfg.to_payload() == {
        "tukey": {"lam": 0.25},
        "calib": {"k": 3, "alpha": 0.5, "use_novel_feature": False},
        "sampler": {"total_per_class": 40, "seed": 9},
        "optimizer": {"epochs": 12, "l2": 0.0},
        "classifier": "svm",
        "retrieve": 4,
    }


# ----------------------------------------------------------------- evaluation

def test_evaluate_single_episode_has_zero_interval():
    ds, split, stats = make_world()
    spec = EpisodeSpec(n_way=2, k_shot=1, q_queries=5, num_episodes=1, seed=3)
    report = evaluate(ds, split, stats, spec, quick_cfg())
    assert report.ci95 == 0.0
    assert len(report.episode_accuracies) == 1


def test_evaluate_report_is_reproducible():
    ds, split, stats = make_world()
    spec = EpisodeSpec(n_way=2, k_shot=1, q_queries=5, num_episodes=8, seed=4)
    a = evaluate(ds, split, stats, spec, quick_cfg())
    b = evaluate(ds, split, stats, spec, quick_cfg())
    assert a.to_json() == b.to_json()


def test_evaluate_parallel_matches_serial():
    ds, split, stats = make_world()
    spec = EpisodeSpec(n_way=2, k_shot=1, q_queries=5, num_episodes=6, seed=5)
    cfg = quick_cfg()
    serial = evaluate(ds, split, stats, spec, cfg, workers=1)
    parallel = evaluate(ds, split, stats, spec, cfg, workers=2)
    assert serial.to_json() == parallel.to_json()


@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_evaluate_parallel_on_a_loaded_dataset_matches_serial(
        tmp_path, monkeypatch, method):
    # a loaded dataset's values are a view of the mapped file; fork shares
    # the mapping, forkserver (Linux's default from Python 3.14) pickles it
    # into each worker as a dataset in memory
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    ds, split, stats = make_world()
    spec = EpisodeSpec(n_way=2, k_shot=1, q_queries=5, num_episodes=6, seed=5)
    cfg = quick_cfg()
    serial = evaluate(ds, split, stats, spec, cfg, workers=1)
    save_dataset(ds, tmp_path / "w.fsdc")
    loaded = load_dataset(tmp_path / "w.fsdc")
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: context)
    parallel = evaluate(loaded, split, build_base_stats(loaded, split), spec,
                        cfg, workers=2)
    assert serial.to_json() == parallel.to_json()


def shuffled_world(tmp_path, **kw):
    """A world whose records are shuffled, in memory and saved and loaded
    again, so each class's rows are spread over the file."""
    ds, split, _ = make_world(**kw)
    order = np.random.default_rng(6).permutation(ds.count)
    ds = Dataset(ds.class_ids[order], ds.values[order])
    save_dataset(ds, tmp_path / "w.fsdc")
    return ds, load_dataset(tmp_path / "w.fsdc"), split


def record_releases(monkeypatch):
    """The dataset of every ``Dataset._release`` call from now on."""
    released = []
    release = Dataset._release
    monkeypatch.setattr(Dataset, "_release", lambda self: (
        released.append(self), release(self)))
    return released


def records_of(ds, rows):
    """The record index of each float64 row of ``rows``; every record of
    ``ds`` must be distinct."""
    where = {v.tobytes(): i for i, v in enumerate(ds.values)}
    assert len(where) == ds.count
    return [where[r.astype(np.float32).tobytes()] for r in rows]


@pytest.mark.parametrize("dontneed", [True, False],
                         ids=["release", "no-madvise"])
def test_loaded_dataset_samples_the_same_episodes(tmp_path, monkeypatch,
                                                  dontneed):
    # each class's rows are read in one call and their pages released
    # before the next class is read; a platform without MADV_DONTNEED
    # releases nothing and reads the same rows
    if not dontneed:
        monkeypatch.delattr(mmap, "MADV_DONTNEED")
    ds, loaded, split = shuffled_world(tmp_path, num_classes=20, dim=16,
                                       per_class=30, group_size=4)
    assert isinstance(loaded._mapping, mmap.mmap)
    spec = EpisodeSpec(n_way=4, k_shot=2, q_queries=5, num_episodes=5, seed=8)
    released = record_releases(monkeypatch)
    for index in range(5):
        expected = sample_episode(ds, split, spec, index)
        released.clear()
        ep = sample_episode(loaded, split, spec, index)
        assert ep.class_ids == expected.class_ids
        for name in ("support_x", "support_y", "query_x", "query_y"):
            got, want = getattr(ep, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert released == [loaded] * spec.n_way


def test_loaded_dataset_retrieves_the_same_rows(tmp_path, monkeypatch):
    # retrieval reads base rows from the mapping and releases them
    ds, loaded, split = shuffled_world(tmp_path)
    spec = EpisodeSpec(n_way=2, k_shot=2, q_queries=5, num_episodes=4, seed=2)
    cfg = quick_cfg(retrieve=3)
    expected = evaluate(ds, split, build_base_stats(ds, split), spec, cfg)
    stats = build_base_stats(loaded, split)
    retrieved = []
    retrieve = harness.retrieve_nearest_class_features

    def capture(*args):
        retrieved.append(retrieve(*args))
        return retrieved[-1]

    monkeypatch.setattr(harness, "retrieve_nearest_class_features", capture)
    released = record_releases(monkeypatch)
    assert evaluate(loaded, split, stats, spec, cfg).to_json() \
        == expected.to_json()
    read = records_of(ds, np.concatenate(retrieved))
    assert len(retrieved) == 4 * 2 * 2
    assert all(int(ds.class_ids[r]) in split.base_classes for r in read)
    # one release per episode class read and per retrieval
    assert released == [loaded] * (4 * 2 + len(retrieved))


def mapped_rss_kb(path) -> list[int]:
    """The ``Rss`` of each mapping of ``path`` in ``/proc/self/smaps``."""
    path = os.path.realpath(path)
    sizes, current = [], False
    with open("/proc/self/smaps", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split(maxsplit=5)
            if not fields[0].endswith(":"):   # a mapping's first line
                current = len(fields) == 6 and fields[5].rstrip("\n") == path
            elif current and fields[0] == "Rss:":
                sizes.append(int(fields[1]))
    return sizes


def test_evaluate_leaves_no_file_pages_mapped(tmp_path):
    # a page fault can map a whole large folio of the file around the row
    # read (2 MiB on Linux 6.18 with ext4), so the file is bigger than two
    # of them; after the episodes the mapping holds no page
    if not hasattr(mmap, "MADV_DONTNEED"):
        pytest.skip("no MADV_DONTNEED here")
    if not os.access("/proc/self/smaps", os.R_OK):
        pytest.skip("no /proc/self/smaps here")
    ds, split, _ = generate_synthetic(SyntheticSpec(
        num_classes=20, dim=256, samples_per_class=300, group_size=5, seed=3))
    path = tmp_path / "w.fsdc"
    save_dataset(ds, path)
    assert path.stat().st_size > 4 << 20
    loaded = load_dataset(path)
    stats = build_base_stats(loaded, split)
    assert mapped_rss_kb(path) == [0]
    spec = EpisodeSpec(n_way=3, k_shot=1, q_queries=5, num_episodes=3, seed=1)
    for cfg in (quick_cfg(optimizer=OptimizerConfig(epochs=5)),
                quick_cfg(optimizer=OptimizerConfig(epochs=5), retrieve=2)):
        evaluate(loaded, split, stats, spec, cfg)
        assert mapped_rss_kb(path) == [0]
    # the file's mapping is the one measured: reading a row maps pages
    loaded.values[ds.count // 2].copy()
    assert mapped_rss_kb(path)[0] > 0


def test_evaluate_signal_free_data_is_random_guess():
    # one indistinguishable class cloud split into fake classes: accuracy
    # has binomial mean 1/n_way; with 400 episodes of 10 queries the sample
    # mean lands within 4 standard errors of 0.5
    rng = np.random.default_rng(0)
    n_per = 30
    ids = np.repeat(np.arange(8), n_per)
    ds = Dataset(ids, rng.normal(size=(8 * n_per, 6)) ** 2)
    split = SplitManifest(base=[0, 1, 2, 3], novel=[4, 5, 6, 7])
    stats = build_base_stats(ds, split)
    spec = EpisodeSpec(n_way=2, k_shot=1, q_queries=5, num_episodes=400, seed=11)
    report = evaluate(ds, split, stats, spec, quick_cfg())
    se = 0.5 / np.sqrt(400 * 10)
    assert abs(report.mean_accuracy - 0.5) < 4 * se + 0.02


def test_tukey_off_equals_exponent_one():
    # exponent one switches the transform off, so features the power ladder
    # refuses evaluate untransformed
    ds, split, _ = make_world(num_classes=15)
    shifted = Dataset(ds.class_ids, ds.values - 1.0)
    assert (shifted.values < 0).any()
    stats = build_base_stats(shifted, split)
    spec = EpisodeSpec(n_way=3, k_shot=1, q_queries=6, num_episodes=5, seed=8)
    off = evaluate(shifted, split, stats, spec,
                   quick_cfg(tukey=TukeyParams(lam=1.0)))
    assert len(off.episode_accuracies) == 5
    with pytest.raises(DataError, match="non-negative"):
        evaluate(shifted, split, stats, spec,
                 quick_cfg(tukey=TukeyParams(lam=0.5)))


def test_zero_generated_equals_generation_off(monkeypatch):
    # zero generated features per class trains on the support rows alone
    ds, split, stats = make_world(num_classes=15)
    spec = EpisodeSpec(n_way=3, k_shot=2, q_queries=6, num_episodes=1, seed=9)
    ep = sample_episode(ds, split, spec, 0)
    cfg = quick_cfg(sampler=SamplerConfig(total_per_class=0, seed=1))
    seen = []

    def capture(train, config):
        seen.append(train)
        return train_logistic(train, config)

    monkeypatch.setattr("fsdc.harness.train_logistic", capture)
    run_episode(ep, stats, cfg)
    (train,) = seen
    assert np.array_equal(train.features,
                          tukey_transform(ep.support_x, cfg.tukey))
    assert np.array_equal(train.labels, ep.support_y)


# ----------------------------------------------------------------- projection

def test_project_2d_diagonal_data_is_axis_aligned():
    rng = np.random.default_rng(1)
    x = np.column_stack([3.0 * rng.normal(size=300), 0.5 * rng.normal(size=300)])
    coords = project_2d(x)
    centered = x - x.mean(axis=0)
    assert np.allclose(np.abs(coords[:, 0]), np.abs(centered[:, 0]), atol=0.2)


def test_project_2d_collinear_points():
    t = np.linspace(0, 1, 30)
    x = np.column_stack([t, 2 * t, -t])
    coords = project_2d(x)
    assert np.allclose(coords[:, 1], 0.0, atol=1e-10)


def test_project_2d_reconstruction_error_is_trailing_spectrum():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 6)) @ rng.normal(size=(6, 6))
    coords = project_2d(x)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigenvalues = np.linalg.eigvalsh(cov)
    total = np.trace(cov)
    captured = coords.var(axis=0, ddof=1).sum()
    assert total - captured == pytest.approx(eigenvalues[:-2].sum(), abs=1e-8)


def test_project_2d_sign_convention_is_stable():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(50, 4))
    a = project_2d(x)
    b = project_2d(x.copy())
    assert np.array_equal(a, b)
    for j in range(2):
        # recover the axis by least squares and check its peak is positive
        axis, *_ = np.linalg.lstsq(x - x.mean(axis=0), a[:, j], rcond=None)
        assert axis[np.argmax(np.abs(axis))] > 0


def test_project_2d_errors():
    with pytest.raises(DataError, match="zero variance"):
        project_2d(np.ones((10, 3)))
    with pytest.raises(DataError, match="features must be 2-D"):
        project_2d(np.ones((10,)))
    with pytest.raises(SpecError):
        project_2d(np.ones((1, 3)))
    with pytest.raises(DataError, match="at least 2 feature dimensions"):
        project_2d(np.ones((10, 1)))
    x = np.arange(12.0).reshape(4, 3)
    x[2, 1] = np.nan
    with pytest.raises(DataError, match="must be finite"):
        project_2d(x)
