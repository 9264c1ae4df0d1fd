"""Multi-seed regret comparison: joint vs two-stage vs oracle.

Each seed generates a fresh dataset, trains both methods on identical splits,
and scores the chosen actions against the true process by Monte Carlo with
common random numbers, so the oracle rows come out at exactly zero regret and
method deltas carry no sampling noise.
"""

import numpy as np

from predopt import (
    Architecture,
    ExperimentConfig,
    TrainConfig,
    TrueModel,
    WeightConfig,
    compare_methods,
    make_grid,
    write_results_csv,
)

grid = make_grid(0.0, 20.0, 201)
world = TrueModel(
    kind="newsvendor",
    base_weights=(2.0, -1.0),
    intercept=10.0,
    action_effect=0.9,
    nonlinearity=-0.04,
    noise_sd=1.0,
    feature_sd=1.0,
    cost_params={"c_h": 1.0, "c_s": 3.0},
    logging={"policy": "biased", "center": 5.0, "width": 5.0},
)
train = TrainConfig(
    weight_config=WeightConfig(alpha=2.0, beta=3.0, tau=10.0),
    learning_rate=3e-3,
    max_iters=4000,
    tol=1e-9,
    patience=60,
    seed=0,
)
# three seeds to keep the demo quick; the shipped config runs ten
experiment = ExperimentConfig(
    model_spec=world,
    grid=grid,
    n_samples=2000,
    train_frac=0.6,
    val_frac=0.2,
    arch=Architecture("linear", 2),
    train=train,
    n_mc=20000,
    n_seeds=3,
    seed=0,
)

reports = compare_methods(experiment)

print(f"{'seed':>4} {'method':<10} {'action':>7} {'cost':>8} {'regret':>8} {'iters':>6}")
for r in reports:
    print(
        f"{r.seed:>4} {r.method:<10} {r.chosen_action:>7.1f} {r.expected_cost:>8.3f} "
        f"{r.regret:>8.3f} {r.iters_run:>6}"
    )

for method in ("simpo", "two_stage"):
    mean = np.mean([r.regret for r in reports if r.method == method])
    print(f"mean regret {method:<10}: {mean:.3f}")

write_results_csv(reports, "comparison_demo.csv")
print("rows written to comparison_demo.csv")
