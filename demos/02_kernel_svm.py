#!/usr/bin/env python3
"""The built-in SMO kernel SVM on three classic toy problems.

Run:  python demos/02_kernel_svm.py
"""

import numpy as np

from querystance import (
    KernelConfig,
    SvmConfig,
    decision_value,
    predict_batch,
    train_binary,
    train_multiclass,
)

# --- 1. two points on a line: the hard-margin solution is known exactly
print("two-point toy problem (x=-1 negative, x=+1 positive)")
cfg = SvmConfig(c=1e7, kernel=KernelConfig("linear"))
model = train_binary([[-1.0], [1.0]], [-1, 1], cfg)
print(f"  alphas*y = {model.dual_coefs}, bias = {model.bias:.6f}")
print(f"  decision(+1) = {decision_value(model, [1.0], cfg.kernel):+.6f}")
print(f"  decision(-1) = {decision_value(model, [-1.0], cfg.kernel):+.6f}")
# the dual, sum(alpha) - 1/2 coef' K coef over the support vectors, K linear
sv, coef = model.support_vectors, model.dual_coefs
print(f"  dual objective = {np.abs(coef).sum() - 0.5 * coef @ (sv @ sv.T) @ coef:.6f} (analytic: 0.5)")

# --- 2. XOR: linearly inseparable, trivial for an RBF kernel
print("\nXOR with an RBF kernel")
points = [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]
labels = [1, 1, -1, -1]
cfg = SvmConfig(c=1e7, kernel=KernelConfig("rbf", gamma=1.0))
model = train_binary(points, labels, cfg)
for p, y in zip(points, labels):
    d = decision_value(model, p, cfg.kernel)
    print(f"  point {p}: label {y:+d}, decision {d:+.4f}")

# --- 3. three classes, one-vs-one voting
print("\nthree separable blobs, one machine per label pair")
rng = np.random.default_rng(0)
x, y = [], []
for center, label in [((0, 0), "ants"), ((9, 0), "bees"), ((0, 9), "wasps")]:
    for _ in range(6):
        x.append(np.asarray(center, dtype=float) + rng.normal(0, 0.4, 2))
        y.append(label)
cfg = SvmConfig(c=1e7, kernel=KernelConfig("linear"))
model = train_multiclass(x, y, cfg)
print(f"  labels: {model.labels}, machines: {len(model.machines)}")
hits = sum(predicted == label for predicted, label in zip(predict_batch(model, x), y))
print(f"  training accuracy: {hits}/{len(x)}")
probes = [[0.0, 0.5], [8.5, 0.2], [1.0, 8.0], [5.0, 5.0]]
for probe, predicted in zip(probes, predict_batch(model, probes)):
    print(f"  predict({probe}) -> {predicted}")
