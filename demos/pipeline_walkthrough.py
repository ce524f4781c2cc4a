#!/usr/bin/env python3
"""Walk one episode through the whole pipeline, printing each stage.

Generates a small synthetic world, computes base-class statistics, then takes
a single 5-way-1-shot task apart: transform the support features, borrow
statistics for each one, sample a synthetic training set, fit a logistic
classifier, and score the queries.
"""

import numpy as np

from fsdc import (CalibrationParams, EpisodeSpec, OptimizerConfig,
                  PipelineConfig, PortableRng, SyntheticSpec, TrainSet,
                  build_base_stats, calibrate, derive_key, generate_synthetic,
                  predict, sample_episode, sample_features, train_logistic,
                  tukey_transform)
from fsdc.transform import TukeyParams

# ------------------------------------------------------------------ the world
# 25 classes in groups of 5; the last member of each group is held out as a
# novel class, so 20 classes provide statistics and 5 provide tasks.
spec = SyntheticSpec(num_classes=25, dim=16, samples_per_class=200, seed=0)
ds, split, _ = generate_synthetic(spec)
print(f"dataset: {ds.count} records, {len(ds.classes())} classes, dim {ds.dim}")
print(f"split:   {sorted(split.base_classes)} base")
print(f"         {sorted(split.novel_classes)} novel")

stats = build_base_stats(ds, split)
print(f"stats:   {len(stats)} base classes summarized\n")

# ------------------------------------------------------------------ a task
episodes = EpisodeSpec(n_way=5, k_shot=1, q_queries=15, num_episodes=1000,
                       seed=100)
ep = sample_episode(ds, split, episodes, index=7)
print(f"episode 7: classes {list(ep.class_ids)}, "
      f"{ep.support_x.shape[0]} support / {ep.query_x.shape[0]} query")

# The raw features are squares of folded Gaussians, so they are strongly
# right-skewed; a square root pulls them toward symmetric.
support = tukey_transform(ep.support_x, TukeyParams(lam=0.5))
query = tukey_transform(ep.query_x, TukeyParams(lam=0.5))
print(f"support feature 0, first 4 dims raw:         "
      f"{np.round(ep.support_x[0, :4], 3)}")
print(f"support feature 0, first 4 dims transformed: "
      f"{np.round(support[0, :4], 3)}\n")

# ------------------------------------------------------------------ borrowing
params = CalibrationParams()  # k=2 neighbors, alpha=0.21
dists = []
for i in range(support.shape[0]):
    dist = calibrate(support[i], stats, params)
    dists.append(dist)
    moved = np.linalg.norm(dist.mean - support[i])
    print(f"support {i} (episode label {ep.support_y[i]}): borrowed from base "
          f"classes {dist.neighbor_class_ids}, mean moved {moved:.3f}")

# ------------------------------------------------------------------ sampling
# One support feature per class, so each Gaussian draws its class's whole
# budget of 750, each from its own stream.
per_class = 750
gen_x = np.concatenate([
    sample_features(dist, per_class, PortableRng(derive_key(0, i)))[0]
    for i, dist in enumerate(dists)])
gen_y = np.repeat(ep.support_y, per_class)
print(f"\nsampled {gen_x.shape[0]} synthetic features "
      f"({per_class} per class)")

# ------------------------------------------------------------------ training
train_x = np.concatenate([support, gen_x])
train_y = np.concatenate([ep.support_y, gen_y])
model = train_logistic(TrainSet(train_x, train_y, len(ep.class_ids)),
                       OptimizerConfig())
guesses = predict(model, query)
acc = float(np.mean(guesses == ep.query_y))
print(f"query accuracy with calibration: {acc:.1%}")

# Same task without any of it: train on the five raw support features alone.
bare = train_logistic(TrainSet(ep.support_x, ep.support_y, len(ep.class_ids)),
                      OptimizerConfig())
bare_acc = float(np.mean(predict(bare, ep.query_x) == ep.query_y))
print(f"query accuracy without:          {bare_acc:.1%}")

# One episode is noisy; PipelineConfig + evaluate() repeats this over the
# whole episode stream (see ablation_and_sweep.py).
print("\nper-episode pipelines are wrapped by PipelineConfig; the eval and")
print("sweep commands run the same steps over thousands of seeded episodes.")
_ = PipelineConfig()
