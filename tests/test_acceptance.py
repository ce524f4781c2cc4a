"""End-to-end checks for the whole pipeline, one test per headline claim.

Each test prints a single PASS/FAIL line with the measured numbers; run with
``-s`` to see them all.  The episodic tests share one synthetic benchmark
(20 base + 5 novel classes, 16 dims, squared folded-Gaussian features,
200 samples per class) and a fixed stream of 1000 episodes, so every cell of
every comparison sees exactly the same tasks and the reported gaps are paired.
"""

import ctypes
import hashlib
import time

import numpy as np
import pytest

from fsdc.calibration import CalibratedDistribution, CalibrationParams, calibrate
from fsdc.classifiers import (OptimizerConfig, hinge_loss_grad,
                              softmax_loss_grad)
from fsdc.cli import main as cli_main
from fsdc.features_io import (Dataset, SplitManifest, SyntheticSpec,
                              generate_synthetic, load_dataset, save_dataset)
from fsdc.harness import EpisodeSpec, PipelineConfig, evaluate
from fsdc.rng import PortableRng, derive_key
from fsdc.sampling import SamplerConfig, cholesky_psd, sample_features
from fsdc.stats import BaseStatsTable, _openblas_libraries, build_base_stats
from fsdc.transform import TukeyParams, tukey_transform
from skewness import sample_skewness

BENCH_SPEC = SyntheticSpec(num_classes=25, dim=16, samples_per_class=200,
                           skew_power=2.0, group_size=5, seed=0)
BENCH_EPISODES = EpisodeSpec(n_way=5, k_shot=1, q_queries=15,
                             num_episodes=1000, seed=100)
# Smaller than the pipeline defaults so ten cells of a thousand episodes each
# finish in minutes; every comparison uses the same settings on both sides.
BENCH_SAMPLER = SamplerConfig(total_per_class=250, seed=0)
BENCH_OPTIMIZER = OptimizerConfig(epochs=150)

# SHA-256 of each cell's ``report.to_json()`` and of the determinism test's
# ``eval --out`` report; see test_reports_are_pinned for when they change
REPORT_SHA256 = {
    "plain":
        "22ffeae5eca0ad08f4bef834dc8bbea1d6ac93a1f747f62089d6cadba474d7fd",
    "transform_only":
        "9338c9f7b5a32ecbd56d168d0fa699862d51599abbc48c48091a9d1b98ce796c",
    "generate_only":
        "a24aa4035afe04cdabef4e2145031021ba54f918812040c92fe2d12a21a54be3",
    "full":
        "aad782fb3b6348fc03ba4869cbe85303ac6741eb0669054ecc06488ada3c3c95",
    "lam02":
        "486d7e60b948ecc088a0f6a4ab2441e5cfb5fa8355ed5569827290256d073177",
    "lam15":
        "6d3d9ea830977a446f63d4354151391eadd671c111ac14490ffb535c0f70579d",
    "no_novel":
        "2aa6dc94a84acf28bf03e0f11d5a76e38bf8ce420821ebffe2bce841c4aec51e",
    "retrieval_1":
        "6b53a81b4f2e7577b574460cc14b6df54913178e4502539cceddad9686cb3123",
    "retrieval_100":
        "077c179faf5e1e0ebf40ee13fb195f86a3e1f6bb8d044eda3dea6ac84272f56f",
    "generated_100":
        "ec252d2579c916080932be13413e9f2a8800b98632d65197a48d2e8190e1c6c3",
}
EVAL_OUT_SHA256 = (
    "0c4150fe36986ba87e4a7afa9cf3b2cec42a5e4f238f8bf571c8864b7f1becf3")


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _pts(accuracies) -> float:
    return float(np.mean(accuracies)) * 100.0


def _ci_pts(accuracies) -> float:
    a = np.asarray(accuracies)
    return float(1.96 * a.std(ddof=1) / np.sqrt(a.size)) * 100.0


def _platform() -> str:
    """numpy's version and the core OpenBLAS dispatches to, which the
    pinned digests depend on."""
    core = "not found"
    for lib in _openblas_libraries():
        get = (getattr(lib, "scipy_openblas_get_corename64_", None)
               or getattr(lib, "openblas_get_corename", None))
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            core = get().decode()
            break
    return f"numpy {np.__version__}, OpenBLAS core {core}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _paired_gap(a, b):
    """Mean difference in accuracy points and its 95% interval."""
    d = np.asarray(a) - np.asarray(b)
    return _pts(d), _ci_pts(d)


@pytest.fixture(scope="session")
def bench_world():
    ds, split, _ = generate_synthetic(BENCH_SPEC)
    return ds, split, build_base_stats(ds, split)


@pytest.fixture(scope="session")
def bench_cells(bench_world):
    """Episode accuracies, wall time and report digest for every pipeline
    variant.

    Each cell runs on two worker processes; episodes are seeded one by one,
    so the reports equal the serial run's, and the wall time is that of the
    two processes together.
    """
    ds, split, stats = bench_world
    variants = {
        "plain": dict(tukey=TukeyParams(lam=1.0),
                      sampler=SamplerConfig(total_per_class=0, seed=0)),
        "transform_only": dict(sampler=SamplerConfig(total_per_class=0,
                                                     seed=0)),
        "generate_only": dict(tukey=TukeyParams(lam=1.0)),
        "full": {},
        "lam02": dict(tukey=TukeyParams(lam=0.2)),
        "lam15": dict(tukey=TukeyParams(lam=1.5)),
        "no_novel": dict(calib=CalibrationParams(use_novel_feature=False)),
        "retrieval_1": dict(retrieve=1),
        "retrieval_100": dict(retrieve=100),
        "generated_100": dict(sampler=SamplerConfig(total_per_class=100, seed=0)),
    }
    cells = {}
    for name, overrides in variants.items():
        cfg = dict(sampler=BENCH_SAMPLER, optimizer=BENCH_OPTIMIZER)
        cfg.update(overrides)
        start = time.perf_counter()
        report = evaluate(ds, split, stats, BENCH_EPISODES,
                          PipelineConfig(**cfg), workers=2)
        elapsed = time.perf_counter() - start
        cells[name] = (np.asarray(report.episode_accuracies), elapsed,
                       _sha256(report.to_json()))
        print(f"  cell {name}: {_pts(cells[name][0]):.2f}% "
              f"± {_ci_pts(cells[name][0]):.2f} ({elapsed:.0f}s)")
    return cells


def test_statistic_and_calibration_formulas():
    """Closed-form identities of the mean, covariance, transform, and
    calibrated mean hold exactly on hand-checked inputs."""
    start = time.perf_counter()
    ok = True
    notes = []

    def build(*classes):
        # class i holds the rows of classes[i]; every input is exact in
        # float32, the dataset's storage precision
        ids = np.concatenate([np.full(len(r), i) for i, r in enumerate(classes)])
        table = build_base_stats(Dataset(ids, np.concatenate(classes)),
                                 SplitManifest(base=range(len(classes))))
        return table.mean_matrix, [np.take(p, table.gather_map)
                                   for p in table.packed_covariances]

    v = np.array([0.25, -1.5, 4.0])
    means, covs = build(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]),
                        np.tile(v, (2, 1)))
    ok &= np.array_equal(means[0], [1.0, 1.0, 1.0])
    ok &= np.array_equal(covs[0], np.full((3, 3), 2.0))
    ok &= np.array_equal(means[1], v)
    ok &= np.array_equal(covs[1], np.zeros((3, 3)))

    rng = np.random.default_rng(5)
    sample = rng.normal(size=(40, 7))
    _, (cov,) = build(sample)
    ok &= np.array_equal(cov, cov.T)
    notes.append("covariance symmetric")

    ok &= np.array_equal(tukey_transform([4.0, 9.0], TukeyParams(lam=0.5)),
                         [2.0, 3.0])
    ok &= np.allclose(tukey_transform([1.0, np.e], TukeyParams(lam=0.0)),
                      [0.0, 1.0], atol=1e-15)
    x = rng.uniform(0.1, 5.0, size=12)
    ok &= np.array_equal(tukey_transform(x, TukeyParams(lam=1.0)), x)

    m = np.array([1.0, -2.0, 0.5])
    c = np.array([[2.0, 0.1, 0.0], [0.1, 1.0, 0.2], [0.0, 0.2, 3.0]])
    lower = np.tril_indices(3)
    table = BaseStatsTable([7], [m], [50], [c[lower]])
    x_tilde = np.array([0.0, 4.0, 1.0])
    dist = calibrate(x_tilde, table, CalibrationParams(k=1, alpha=0.0))
    ok &= np.array_equal(dist.mean, (m + x_tilde) / 2)
    ok &= np.array_equal(dist.covariance, c)
    notes.append("k=1 calibration exact")

    m2 = np.array([0.5, 3.0, -1.0])
    table2 = BaseStatsTable([7, 9], [m, m2], [50, 50], [c[lower], c[lower]])
    dist2 = calibrate(x_tilde, table2, CalibrationParams(k=2, alpha=0.0))
    ok &= np.allclose(dist2.mean, (m + m2 + x_tilde) / 3, rtol=1e-14)

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict("formula fidelity", bool(ok),
             f"{', '.join(notes)}, {elapsed:.2f}s (< 1s)")


def test_sampler_moment_match():
    """1e5 draws per distribution recover the calibrated mean within 5
    standard errors per dimension and the covariance within 10% Frobenius."""
    start = time.perf_counter()
    n = 100_000
    worst_mean = 0.0
    worst_cov = 0.0
    rng = np.random.default_rng(11)
    for d in (3, 8, 16):
        mu = rng.normal(size=d)
        a = rng.normal(size=(d, d))
        cov = a @ a.T / d + 0.05 * np.eye(d)
        cov = (cov + cov.T) / 2
        dist = CalibratedDistribution(mean=mu, covariance=cov,
                                      neighbor_class_ids=(0,))
        _, shift = cholesky_psd(dist.covariance)
        target = dist.covariance + shift * np.eye(d)
        feats, _ = sample_features(
            dist, n, PortableRng(derive_key(d, 0x5A, 0, 0)))
        se = np.sqrt(np.diag(target) / n)
        worst_mean = max(worst_mean,
                         float(np.max(np.abs(feats.mean(axis=0) - mu) / se)))
        emp = np.cov(feats, rowvar=False)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        worst_cov = max(worst_cov, float(rel))
    elapsed = time.perf_counter() - start
    ok = worst_mean < 5.0 and worst_cov < 0.10 and elapsed < 30.0
    _verdict("sampler moments", ok,
             f"worst mean error {worst_mean:.2f} se (< 5), worst covariance "
             f"error {worst_cov*100:.2f}% Frobenius (< 10%), {elapsed:.1f}s (< 30s)")


def test_gradients_match_finite_differences():
    """Analytic gradients of both losses agree with central differences at
    ten random parameter points (hinge points excluded for the margin loss)."""
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    h = 1e-6
    worst = 0.0

    def fd_check(loss_grad, weights, bias, feats, labels, l2):
        loss, gw, gb = loss_grad(weights, bias, feats, labels, l2)
        flat = np.concatenate([weights.ravel(), bias])
        fd = np.empty_like(flat)
        for i in range(flat.size):
            for sign, store in ((1.0, 0), (-1.0, 1)):
                theta = flat.copy()
                theta[i] += sign * h
                w = theta[:weights.size].reshape(weights.shape)
                b = theta[weights.size:]
                val = loss_grad(w, b, feats, labels, l2)[0]
                if store == 0:
                    up = val
                else:
                    fd[i] = (up - val) / (2 * h)
        analytic = np.concatenate([gw.ravel(), gb])
        return float(np.linalg.norm(fd - analytic)
                     / max(np.linalg.norm(analytic), 1e-12))

    for point in range(10):
        num_classes, dim, count = 3, 4, 12
        feats = rng.normal(size=(count, dim))
        labels = rng.integers(0, num_classes, size=count)
        weights = rng.normal(scale=0.5, size=(num_classes, dim))
        bias = rng.normal(scale=0.5, size=num_classes)
        worst = max(worst, fd_check(softmax_loss_grad, weights, bias, feats,
                                    labels, 1e-3))
        # resample until every hinge margin is clear of the kink
        while True:
            margins = np.full((count, num_classes), -1.0)
            margins[np.arange(count), labels] = 1.0
            margins = margins * (feats @ weights.T + bias)
            if np.min(np.abs(1.0 - margins)) > 1e-3:
                break
            feats = rng.normal(size=(count, dim))
        worst = max(worst, fd_check(hinge_loss_grad, weights, bias, feats,
                                    labels, 1e-3))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    _verdict("gradient checks", ok,
             f"worst relative error {worst:.2e} (< 1e-5) over 10 points "
             f"per loss, {elapsed:.1f}s (< 5s)")


def test_transform_plus_generation_margins(bench_cells):
    """Transform plus generation beats the untreated pipeline by at least 3
    points with non-overlapping intervals, and beats either treatment alone."""
    full, t_full = bench_cells["full"][:2]
    plain, t_plain = bench_cells["plain"][:2]
    transform_only, t_transform = bench_cells["transform_only"][:2]
    generate_only, t_generate = bench_cells["generate_only"][:2]
    gap, gap_ci = _paired_gap(full, plain)
    lo_full = _pts(full) - _ci_pts(full)
    hi_plain = _pts(plain) + _ci_pts(plain)
    elapsed = t_full + t_plain + t_transform + t_generate
    ok = (gap >= 3.0 and lo_full > hi_plain
          and _pts(full) > _pts(transform_only)
          and _pts(full) > _pts(generate_only)
          and elapsed < 600.0)
    _verdict("ablation margins", ok,
             f"full {_pts(full):.2f} vs plain {_pts(plain):.2f} "
             f"(gap {gap:+.2f}±{gap_ci:.2f}, intervals "
             f"[{lo_full:.2f},·] vs [·,{hi_plain:.2f}]), "
             f"transform-only {_pts(transform_only):.2f}, "
             f"generation-only {_pts(generate_only):.2f}, "
             f"{elapsed:.0f}s (< 600s)")


def test_power_sweep_interior_maximum(bench_cells):
    """Across exponents 0.2/0.5/1.0/1.5 the best cell is below 1, and its
    paired advantage over the identity exponent excludes zero."""
    cells = {0.2: bench_cells["lam02"][0], 0.5: bench_cells["full"][0],
             1.0: bench_cells["generate_only"][0],
             1.5: bench_cells["lam15"][0]}
    means = {lam: _pts(acc) for lam, acc in cells.items()}
    winner = max(means, key=means.get)
    gap, gap_ci = _paired_gap(cells[winner], cells[1.0])
    ok = winner < 1.0 and gap - gap_ci > 0.0
    grid = ", ".join(f"λ={lam}: {means[lam]:.2f}" for lam in sorted(means))
    _verdict("exponent sweep shape", ok,
             f"{grid}; winner λ={winner} leads λ=1 by {gap:+.2f}±{gap_ci:.2f}")


def test_retrieval_against_generation(bench_cells):
    """One retrieved neighbor beats the bare support set, yet a hundred
    retrieved neighbors lose to a hundred generated features, by a point each."""
    m1 = bench_cells["retrieval_1"][0]
    support_only = bench_cells["transform_only"][0]
    m100 = bench_cells["retrieval_100"][0]
    dc100 = bench_cells["generated_100"][0]
    gap1, ci1 = _paired_gap(m1, support_only)
    gap2, ci2 = _paired_gap(dc100, m100)
    ok = gap1 >= 1.0 and gap2 >= 1.0
    _verdict("retrieval comparison", ok,
             f"m=1 over support-only {gap1:+.2f}±{ci1:.2f} (≥ 1), "
             f"generated-100 over retrieved-100 {gap2:+.2f}±{ci2:.2f} (≥ 1)")


def test_support_feature_in_calibrated_mean(bench_cells):
    """Dropping the support feature from the calibrated mean costs at least
    2 points against the default pipeline."""
    full = bench_cells["full"][0]
    no_novel = bench_cells["no_novel"][0]
    gap, ci = _paired_gap(full, no_novel)
    ok = gap >= 2.0
    _verdict("support feature in mean", ok,
             f"default {_pts(full):.2f} vs base-means-only "
             f"{_pts(no_novel):.2f}, gap {gap:+.2f}±{ci:.2f} (≥ 2)")


def test_reports_are_pinned(bench_cells):
    """Every cell's report is byte-identical to the pinned one.

    The digests were taken on x86-64 Linux with numpy 2.4.6 and OpenBLAS
    0.3.31 dispatching to its SkylakeX core; another numpy, BLAS or core
    may round a product differently, so a mismatch names them.  A change
    that moves a report's bytes updates its digest here, in the same
    commit, and lists the paired deltas it caused (per cell, queries
    gained and lost over the same episodes) in CHANGES.md.
    """
    moved = {name: cell[2] for name, cell in bench_cells.items()
             if cell[2] != REPORT_SHA256[name]}
    _verdict("pinned reports", not moved,
             f"{len(REPORT_SHA256) - len(moved)} of {len(REPORT_SHA256)} "
             f"cells match on {_platform()}; moved: {moved}")


def test_transform_reduces_skewness():
    """The 0.5-exponent transform lowers mean per-dimension skewness of the
    novel features on every seed of a ten-seed suite."""
    params = TukeyParams(lam=0.5)
    margins = []
    ok = True
    for seed in range(10):
        spec = SyntheticSpec(num_classes=25, dim=16, samples_per_class=200,
                             group_size=5, seed=seed)
        ds, split, _ = generate_synthetic(spec)
        before = []
        after = []
        for cid in sorted(split.novel_classes):
            feats = ds.values[ds.rows_for(cid)].astype(np.float64)
            transformed = tukey_transform(feats, params)
            for j in range(feats.shape[1]):
                before.append(sample_skewness(feats[:, j]))
                after.append(sample_skewness(transformed[:, j]))
        drop = float(np.mean(before) - np.mean(after))
        margins.append(drop)
        ok &= drop > 0.0
    _verdict("skewness reduction", bool(ok),
             f"drop per seed min {min(margins):.3f}, max {max(margins):.3f} "
             f"(all > 0 across 10 seeds)")


def test_repeat_runs_are_identical(tmp_path):
    """The command line produces byte-identical reports on identical flags,
    equal to the pinned report (see test_reports_are_pinned), and the
    binary dataset format round-trips bit-exactly."""
    prefix = tmp_path / "world"
    rc = cli_main(["synth", "--classes", "25", "--dim", "8",
                   "--per-class", "60", "--seed", "3",
                   "--out-prefix", str(prefix)])
    assert rc == 0
    data = str(prefix) + ".fsdc"
    split = str(prefix) + ".split.json"

    reports = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        rc = cli_main(["eval", "--dataset", data, "--split", split,
                       "--episodes", "20", "--num-generated", "100",
                       "--opt-epochs", "50", "--out", str(out)])
        assert rc == 0
        reports.append(out.read_bytes())
    identical = reports[0] == reports[1]
    digest = hashlib.sha256(reports[0]).hexdigest()
    pinned = digest == EVAL_OUT_SHA256

    ds = load_dataset(data)
    copy = tmp_path / "copy.fsdc"
    save_dataset(ds, copy)
    round_trip = copy.read_bytes() == open(data, "rb").read()

    ok = identical and pinned and round_trip
    _verdict("determinism", ok,
             f"reports byte-identical: {identical}, pinned: {pinned} "
             f"({digest} on {_platform()}), "
             f"binary round-trip bit-exact: {round_trip}")
