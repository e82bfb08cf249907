"""Kernel SVM trained with sequential minimal optimization.

Binary soft-margin dual solved by pairwise coordinate ascent (Platt's
working-set heuristics, full Gram matrix cached), combined one-vs-one
for multiclass. No external solver; numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .codec import from_doc, read_json, to_doc, write_json
from .errors import DimensionMismatch, NonFinite, SingleClassInput
from .features import FeatureVector

KERNEL_KINDS = ("linear", "poly", "rbf")

MODEL_FORMAT = "querystance-svm"
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class KernelConfig:
    kind: str
    gamma: float = 1.0
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if not math.isfinite(self.coef0):
            raise ValueError(f"coef0 must be finite, got {self.coef0}")


@dataclass(frozen=True)
class SvmConfig:
    c: float = 1e7
    kernel: KernelConfig = KernelConfig("linear")
    tol: float = 1e-3
    max_passes: int = 1000
    eps: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be non-negative and finite, got {self.eps}")


@dataclass(frozen=True, eq=False)
class BinaryModel:
    """One trained machine: support vectors, alpha*y coefficients, bias."""

    support_vectors: np.ndarray  # (n_sv, dims)
    dual_coefs: np.ndarray  # (n_sv,)
    bias: float
    positive_label: str
    negative_label: str

    def __post_init__(self):
        sv, coefs = self.support_vectors, self.dual_coefs
        if sv.ndim != 2 or coefs.ndim != 1 or len(sv) != len(coefs):
            raise ValueError(
                f"support_vectors of shape {sv.shape} do not match dual_coefs of shape {coefs.shape}"
            )
        if not (np.isfinite(sv).all() and np.isfinite(coefs).all() and math.isfinite(self.bias)):
            raise ValueError("support_vectors, dual_coefs and bias must be finite")


@dataclass(frozen=True, eq=False)
class MulticlassModel:
    """One-vs-one ensemble over lexicographically ordered labels."""

    FORMAT: ClassVar[tuple[str, int]] = (MODEL_FORMAT, MODEL_FORMAT_VERSION)

    labels: tuple[str, ...]
    machines: tuple[BinaryModel, ...]
    kernel: KernelConfig
    schema_id: str | None = None

    def __post_init__(self):
        n = len(self.labels)
        if len(self.machines) != n * (n - 1) // 2:
            raise ValueError("one machine per unordered label pair required")
        strays = {
            label for m in self.machines for label in (m.positive_label, m.negative_label)
        } - set(self.labels)
        if strays:
            raise ValueError(f"machine labels {sorted(strays)} are not among labels {list(self.labels)}")
        dims = {m.support_vectors.shape[1] for m in self.machines}
        if len(dims) > 1:
            raise ValueError(f"machines disagree on support-vector dims: {sorted(dims)}")


def _as_vector(x) -> np.ndarray:
    if isinstance(x, FeatureVector):
        return x.values
    return np.asarray(x, dtype=np.float64)


def kernel_eval(cfg: KernelConfig, u, v) -> float:
    """Kernel value for a single pair of vectors."""
    u = _as_vector(u)
    v = _as_vector(v)
    if u.shape != v.shape:
        raise DimensionMismatch(f"kernel inputs have shapes {u.shape} and {v.shape}")
    if cfg.kind == "linear":
        return float(np.dot(u, v))
    if cfg.kind == "poly":
        return float((cfg.gamma * np.dot(u, v) + cfg.coef0) ** cfg.degree)
    diff = u - v
    return float(np.exp(-cfg.gamma * np.dot(diff, diff)))


def _gram(cfg: KernelConfig, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(a[i], b[j])."""
    dots = a @ b.T
    if cfg.kind == "linear":
        return dots
    if cfg.kind == "poly":
        return (cfg.gamma * dots + cfg.coef0) ** cfg.degree
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * dots
    )
    return np.exp(-cfg.gamma * np.clip(sq, 0.0, None))


class _SmoSolver:
    """Pairwise coordinate ascent on the soft-margin dual.

    Maintains an error cache E_i = f(x_i) - y_i with
    f(x) = sum_j alpha_j y_j K(x_j, x) + b. The second working-set
    index is picked by largest |E_i - E_j| over unbound points, with
    randomized fallback scans (seeded, so training is deterministic).
    """

    def __init__(self, gram: np.ndarray, y: np.ndarray, cfg: SvmConfig, rng: np.random.Generator):
        self.K = gram
        self.y = y
        self.c = cfg.c
        self.tol = cfg.tol
        self.eps = cfg.eps
        self.max_passes = cfg.max_passes
        self.rng = rng
        self.n = len(y)
        self.alpha = np.zeros(self.n)
        self.b = 0.0
        self.errors = -y.astype(np.float64)

    def _objective_gain(self, i1: int, i2: int, a1_new: float, a2_new: float) -> float:
        """Change in the dual objective if the pair moved to (a1_new, a2_new)."""
        d1 = a1_new - self.alpha[i1]
        d2 = a2_new - self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        g1 = self.errors[i1] + y1 - self.b  # sum_j alpha_j y_j K(j, i1)
        g2 = self.errors[i2] + y2 - self.b
        return (
            d1
            + d2
            - d1 * y1 * g1
            - d2 * y2 * g2
            - 0.5 * (d1 * d1 * self.K[i1, i1] + d2 * d2 * self.K[i2, i2])
            - d1 * d2 * y1 * y2 * self.K[i1, i2]
        )

    def _take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1_old = self.alpha[i1]
        a2_old = self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s > 0:
            low = max(0.0, a1_old + a2_old - self.c)
            high = min(self.c, a1_old + a2_old)
        else:
            low = max(0.0, a2_old - a1_old)
            high = min(self.c, self.c + a2_old - a1_old)
        if low >= high:
            return False
        k11 = self.K[i1, i1]
        k12 = self.K[i1, i2]
        k22 = self.K[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(max(a2, low), high)
        else:
            # flat or concave along the pair direction: compare endpoints
            gain_low = self._objective_gain(i1, i2, a1_old + s * (a2_old - low), low)
            gain_high = self._objective_gain(i1, i2, a1_old + s * (a2_old - high), high)
            if gain_low > gain_high + self.eps:
                a2 = low
            elif gain_high > gain_low + self.eps:
                a2 = high
            else:
                return False
        if abs(a2 - a2_old) < self.eps * (a2 + a2_old + self.eps):
            return False
        a1 = a1_old + s * (a2_old - a2)
        # push tiny constraint-rounding back inside the box
        if a1 < 0.0:
            a2 += s * a1
            a1 = 0.0
        elif a1 > self.c:
            a2 += s * (a1 - self.c)
            a1 = self.c
        d1 = y1 * (a1 - a1_old)
        d2 = y2 * (a2 - a2_old)
        b1 = self.b - e1 - d1 * k11 - d2 * k12
        b2 = self.b - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1 < self.c:
            b_new = b1
        elif 0.0 < a2 < self.c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        self.errors += d1 * self.K[i1] + d2 * self.K[i2] + (b_new - self.b)
        self.b = b_new
        self.alpha[i1] = a1
        self.alpha[i2] = a2
        return True

    def _unbound(self) -> np.ndarray:
        return np.flatnonzero((self.alpha > 0.0) & (self.alpha < self.c))

    def _examine(self, i2: int) -> bool:
        y2 = self.y[i2]
        a2 = self.alpha[i2]
        r2 = self.errors[i2] * y2
        if not ((r2 < -self.tol and a2 < self.c) or (r2 > self.tol and a2 > 0.0)):
            return False
        unbound = self._unbound()
        if unbound.size > 1:
            i1 = int(unbound[np.argmax(np.abs(self.errors[unbound] - self.errors[i2]))])
            if self._take_step(i1, i2):
                return True
        if unbound.size:
            start = int(self.rng.integers(unbound.size))
            for offset in range(unbound.size):
                if self._take_step(int(unbound[(start + offset) % unbound.size]), i2):
                    return True
        start = int(self.rng.integers(self.n))
        for offset in range(self.n):
            if self._take_step((start + offset) % self.n, i2):
                return True
        return False

    def solve(self) -> None:
        examine_all = True
        num_changed = 0
        sweeps = 0
        while num_changed > 0 or examine_all:
            if sweeps >= self.max_passes:
                break
            sweeps += 1
            num_changed = 0
            targets = range(self.n) if examine_all else self._unbound()
            for i2 in targets:
                if self._examine(int(i2)):
                    num_changed += 1
            if examine_all:
                examine_all = False
            elif num_changed == 0:
                examine_all = True

    def objective(self) -> float:
        coef = self.alpha * self.y
        return float(np.sum(self.alpha) - 0.5 * coef @ self.K @ coef)


def _validate_training_input(x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 2:
        raise DimensionMismatch("training vectors must share one dimensionality")
    if len(x) != len(y):
        raise DimensionMismatch(f"{len(x)} vectors but {len(y)} labels")
    if not np.all(np.isfinite(x)):
        raise NonFinite("training vectors contain NaN or infinity")


def _stack(x: Sequence) -> np.ndarray:
    rows = [_as_vector(v) for v in x]
    dims = {row.shape for row in rows}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed vector shapes in training input: {sorted(dims)}")
    return np.asarray(rows, dtype=np.float64)


def train_binary(
    x: Sequence,
    y: Sequence[int],
    cfg: SvmConfig,
    seed: int = 0,
    positive_label: str = "+1",
    negative_label: str = "-1",
) -> BinaryModel:
    """Train one machine on +/-1 labels.

    Deterministic for a fixed seed. Examples whose alpha stays at or
    below cfg.eps are dropped from the support set.
    """
    matrix = _stack(x)
    labels = np.asarray(y, dtype=np.float64)
    _validate_training_input(matrix, labels)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("binary labels must be +1 or -1")
    if np.unique(labels).size < 2:
        raise SingleClassInput("training data holds a single class")
    gram = _gram(cfg.kernel, matrix, matrix)
    solver = _SmoSolver(gram, labels, cfg, np.random.default_rng(seed))
    solver.solve()
    keep = solver.alpha > cfg.eps
    return BinaryModel(
        support_vectors=matrix[keep],
        dual_coefs=(solver.alpha * labels)[keep],
        bias=solver.b,
        positive_label=positive_label,
        negative_label=negative_label,
    )


def decision_value(model: BinaryModel, x, cfg: KernelConfig) -> float:
    """sum_i dual_coef_i * K(sv_i, x) + bias."""
    vec = _as_vector(x)
    if model.support_vectors.size and vec.shape[0] != model.support_vectors.shape[1]:
        raise DimensionMismatch(
            f"model expects {model.support_vectors.shape[1]} dims, got {vec.shape[0]}"
        )
    kernel_row = _gram(cfg, model.support_vectors, vec[None, :])[:, 0]
    return float(model.dual_coefs @ kernel_row + model.bias)


def dual_objective(model: BinaryModel, cfg: KernelConfig) -> float:
    """Value of the trained dual: sum(alpha) - 1/2 * coef' K coef.

    Computed over retained support vectors; dropped alphas are below
    the eps floor and contribute nothing at this precision.
    """
    coef = model.dual_coefs
    gram = _gram(cfg, model.support_vectors, model.support_vectors)
    return float(np.sum(np.abs(coef)) - 0.5 * coef @ gram @ coef)


def train_multiclass(x: Sequence, y: Sequence[str], cfg: SvmConfig, seed: int = 0) -> MulticlassModel:
    """One-vs-one training over lexicographically sorted labels."""
    labels = sorted(set(y))
    if len(labels) < 2:
        raise SingleClassInput(f"need at least 2 distinct labels, got {labels}")
    matrix = _stack(x)
    y = list(y)
    schema_id = x[0].schema_id if len(x) and isinstance(x[0], FeatureVector) else None
    machines = []
    for neg, pos in combinations(labels, 2):
        idx = [i for i, label in enumerate(y) if label in (neg, pos)]
        pair_y = [1 if y[i] == pos else -1 for i in idx]
        machines.append(
            train_binary(
                matrix[idx],
                pair_y,
                cfg,
                seed=seed,
                positive_label=pos,
                negative_label=neg,
            )
        )
    return MulticlassModel(
        labels=tuple(labels),
        machines=tuple(machines),
        kernel=cfg.kernel,
        schema_id=schema_id,
    )


def predict(model: MulticlassModel, x) -> str:
    """Majority vote over pairwise machines.

    Vote ties break on the larger sum of |decision| over the machines
    each tied label won; remaining ties take the lexicographically
    earliest label.
    """
    if isinstance(x, FeatureVector) and model.schema_id and x.schema_id != model.schema_id:
        raise DimensionMismatch(
            f"model expects schema {model.schema_id!r}, got {x.schema_id!r}"
        )
    votes = {label: 0 for label in model.labels}
    margins = {label: 0.0 for label in model.labels}
    for machine in model.machines:
        value = decision_value(machine, x, model.kernel)
        winner = machine.positive_label if value >= 0.0 else machine.negative_label
        votes[winner] += 1
        margins[winner] += abs(value)
    best_votes = max(votes.values())
    tied = [label for label in model.labels if votes[label] == best_votes]
    best_margin = max(margins[label] for label in tied)
    for label in tied:  # labels are sorted, so first hit is lexicographic
        if margins[label] == best_margin:
            return label
    raise AssertionError("unreachable")


def save_model(model: MulticlassModel, path: str | Path) -> None:
    """Write the model as versioned JSON (stable key order)."""
    write_json(path, to_doc(model))


def load_model(path: str | Path) -> MulticlassModel:
    return from_doc(MulticlassModel, read_json(path), path)
