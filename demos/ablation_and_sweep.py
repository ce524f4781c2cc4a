#!/usr/bin/env python3
"""Reproduce the two headline comparisons on a synthetic world.

First the 2x2 ablation of the power transform and feature generation, each
switched off by its own value (exponent 1, zero generated features), then a
sweep of the transform exponent.  A few hundred episodes keeps this around a
minute; raise EPISODES for tighter intervals.
"""

from fsdc import (EpisodeSpec, OptimizerConfig, PipelineConfig, SamplerConfig,
                  SyntheticSpec, TukeyParams, build_base_stats, evaluate,
                  generate_synthetic)

EPISODES = 200

spec = SyntheticSpec(num_classes=25, dim=16, samples_per_class=200, seed=0)
ds, split, _ = generate_synthetic(spec)
stats = build_base_stats(ds, split)
episodes = EpisodeSpec(n_way=5, k_shot=1, q_queries=15,
                       num_episodes=EPISODES, seed=100)
optimizer = OptimizerConfig(epochs=150)


def config(lam: float, generated: int = 250) -> PipelineConfig:
    return PipelineConfig(tukey=TukeyParams(lam=lam),
                          sampler=SamplerConfig(total_per_class=generated,
                                                seed=0),
                          optimizer=optimizer)


print(f"2x2 ablation, 5-way 1-shot, {EPISODES} episodes")
print("lambda generated   accuracy")
for lam in (1.0, 0.5):
    for generated in (0, 250):
        report = evaluate(ds, split, stats, episodes, config(lam, generated))
        print(f"{lam:6} {generated:9}   "
              f"{report.mean_accuracy:.2%} ± {report.ci95:.2%}")

# The same episode stream backs every cell, so differences are paired: the
# bottom-right cell should sit a few points above everything else.

print("\ntransform exponent sweep (1.0 is the identity)")
for lam in (0.2, 0.5, 1.0, 1.5):
    report = evaluate(ds, split, stats, episodes, config(lam))
    print(f"lambda {lam:4}   {report.mean_accuracy:.2%} ± {report.ci95:.2%}")
print("\nthe maximum away from 1.0 is the point of the transform: pulling")
print("skewed features toward symmetric before borrowing Gaussian statistics.")
