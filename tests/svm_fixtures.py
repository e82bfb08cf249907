"""SVM training instances shared by the unit and acceptance tests.

Every instance of ``fixture_instances`` has at most 6 points in at most
3 dimensions so the exact enumeration oracle stays cheap;
``overlapping_rows`` is a larger set for checks without the oracle.
"""

from __future__ import annotations

import numpy as np

from querystance.svm import KernelConfig, SvmConfig


def overlapping_rows() -> tuple[np.ndarray, np.ndarray]:
    """300 rows of 5 features in [0, 1] from two overlapping classes.

    The last 60 rows copy earlier ones: 30 under the same label, 30
    under the other label, so some alphas must end at C.
    """
    rng = np.random.default_rng(0)
    y = np.where(np.arange(240) % 2, 1.0, -1.0)
    x = np.clip(rng.normal(0.5 + 0.15 * y[:, None], 0.25, (240, 5)), 0.0, 1.0)
    copies = rng.choice(240, 60, replace=False)
    return np.vstack([x, x[copies]]), np.concatenate([y, y[copies[:30]], -y[copies[30:]]])


def fixture_instances() -> list[tuple[str, np.ndarray, list[int], SvmConfig]]:
    rng = np.random.default_rng(3)
    blobs = np.vstack([rng.normal(-2, 1, (3, 2)), rng.normal(2, 1, (3, 2))])
    overlap = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [0.2]])
    overlap_y = [-1, -1, 1, 1, 1, -1]
    return [
        (
            "analytic-toy-linear",
            np.array([[-1.0], [1.0]]),
            [-1, 1],
            SvmConfig(c=1e7, kernel=KernelConfig("linear")),
        ),
        (
            "xor-rbf",
            np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]),
            [1, 1, -1, -1],
            SvmConfig(c=1e7, kernel=KernelConfig("rbf", gamma=1.0)),
        ),
        ("blobs-linear", blobs, [-1, -1, -1, 1, 1, 1], SvmConfig(c=10.0, kernel=KernelConfig("linear"))),
        ("overlap-linear", overlap, overlap_y, SvmConfig(c=1.0, kernel=KernelConfig("linear"))),
        ("overlap-rbf", overlap, overlap_y, SvmConfig(c=5.0, kernel=KernelConfig("rbf", gamma=0.5))),
        (
            "poly-tiny-gamma",
            np.array([[0.2, 0.8], [0.4, 0.9], [0.9, 0.1], [0.8, 0.2]]),
            [1, 1, -1, -1],
            SvmConfig(c=1e7, kernel=KernelConfig("poly", gamma=0.006, degree=3, coef0=0.0)),
        ),
        (
            "duplicate-points",
            np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]),
            [1, 1, -1],
            SvmConfig(c=1.0, kernel=KernelConfig("linear")),
        ),
        (
            "conflicting-duplicates",
            np.array([[0.5], [0.5], [-0.5]]),
            [1, -1, -1],
            SvmConfig(c=1.0, kernel=KernelConfig("linear")),
        ),
    ]


def training_alphas(model, matrix: np.ndarray, y=None) -> np.ndarray:
    """Recover per-training-row alphas by matching rows to support vectors.

    Given the labels ``y``, a row only matches a support vector whose
    dual coefficient has the row's sign, so copies of one point under
    both labels keep their own alphas.
    """
    alphas = np.zeros(len(matrix))
    used = [False] * len(model.support_vectors)
    for i, row in enumerate(matrix):
        for j, sv in enumerate(model.support_vectors):
            same_label = y is None or np.sign(model.dual_coefs[j]) == np.sign(y[i])
            if not used[j] and same_label and np.array_equal(row, sv):
                alphas[i] = abs(model.dual_coefs[j])
                used[j] = True
                break
    return alphas


def kkt_satisfied(model, cfg: SvmConfig, matrix: np.ndarray, y, tol: float) -> bool:
    """Check the optimality conditions at every training point."""
    from querystance.svm import decision_value

    alphas = training_alphas(model, matrix, y)
    upper = cfg.c - max(1e-8, 1e-9 * cfg.c)  # at C within 1e-8 or a billionth of C
    for i, row in enumerate(matrix):
        margin = y[i] * decision_value(model, row, cfg.kernel)
        if alphas[i] == 0.0:
            if margin < 1.0 - tol:
                return False
        elif alphas[i] >= upper:
            if margin > 1.0 + tol:
                return False
        elif abs(margin - 1.0) > tol:
            return False
    return True
