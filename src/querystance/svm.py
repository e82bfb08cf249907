"""Kernel SVM trained with sequential minimal optimization.

The binary soft-margin dual is solved over the full cached Gram matrix
by one SMO loop: each iteration updates the pair chosen by
second-order working-set selection (Fan, Chen & Lin 2005) and the loop
stops once the KKT gap m - M is within tol (Keerthi et al. 2001) or a
cap of max_passes * n pair updates is reached. Training has no random
choices, so equal inputs give equal models. Machines are combined
one-vs-one for multiclass. No external solver; numpy only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .codec import from_doc, read_json, to_doc, write_json
from .errors import DimensionMismatch, NonFinite, NoSupportVectors, SingleClassInput
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
    """Box constraint C, kernel, KKT gap tolerance, a cap of max_passes * n
    pair updates for n training rows, and the support-vector floor eps."""

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


def _smo(gram: np.ndarray, y: np.ndarray, cfg: SvmConfig) -> tuple[np.ndarray, float, float]:
    """Minimise 1/2 a'Qa - e'a, Q = yy'K, over 0 <= a <= C and y'a = 0.

    Each iteration moves one pair by second-order working-set selection
    (WSS2; Fan, Chen & Lin 2005): i is the maximal violator in I_up, j
    the member of I_low whose pair step lowers the objective most. The
    loop stops when the KKT gap m - M is at most cfg.tol (Keerthi et al.
    2001) or after cfg.max_passes * n pair updates. Returns the alphas,
    the bias and the final gap.
    """
    c, cap = cfg.c, cfg.max_passes * len(y)
    pos = y > 0
    alpha = np.zeros(len(y))
    grad = -np.ones(len(y))  # G = Q alpha - e
    diag = np.diag(gram)
    for step in range(cap + 1):
        score = -y * grad
        up = np.where(pos, alpha < c, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < c)
        up_score = np.where(up, score, -np.inf)
        i = int(np.argmax(up_score))
        m, big_m = up_score[i], np.min(score, where=low, initial=np.inf)
        if m - big_m <= cfg.tol or step == cap:
            break
        b = m - score
        a = diag[i] + diag - 2.0 * gram[i]
        a[a <= 0.0] = 1e-12  # flat or concave pair: step to the box edge
        j = int(np.argmax(np.where(low & (b > 0.0), b * b / a, -np.inf)))
        # step t along alpha_i += y_i t, alpha_j -= y_j t, clipped to the box;
        # a variable that reaches its edge is set to exactly 0 or C
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = (c if pos[i] else 0.0) if t == room_i else old_i + y[i] * t
        alpha[j] = (0.0 if pos[j] else c) if t == room_j else old_j - y[j] * t
        grad += y * (y[i] * (alpha[i] - old_i) * gram[i] + y[j] * (alpha[j] - old_j) * gram[j])
    free = (alpha > 0.0) & (alpha < c)
    # bias = -rho as in LIBSVM: -mean(y*G) over free SVs, else the middle of [M, m]
    bias = -float(np.mean(y[free] * grad[free])) if free.any() else 0.5 * float(m + big_m)
    return alpha, bias, float(m - big_m)


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
    positive_label: str = "+1",
    negative_label: str = "-1",
) -> BinaryModel:
    """Train one machine on +/-1 labels.

    Deterministic. Examples whose alpha stays at or below cfg.eps are
    dropped from the support set. Warns (RuntimeWarning) when the
    iteration cap stops the solver before the KKT gap reaches cfg.tol,
    and raises NoSupportVectors when no alpha exceeds cfg.eps.
    """
    matrix = _stack(x)
    labels = np.asarray(y, dtype=np.float64)
    _validate_training_input(matrix, labels)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("binary labels must be +1 or -1")
    if np.unique(labels).size < 2:
        raise SingleClassInput("training data holds a single class")
    alpha, bias, gap = _smo(_gram(cfg.kernel, matrix, matrix), labels, cfg)
    machine = f"machine {positive_label!r} vs {negative_label!r}"
    if gap > cfg.tol:
        warnings.warn(
            f"{machine}: KKT gap {gap:.3g} > tol {cfg.tol:g} at the cap of "
            f"{cfg.max_passes * len(labels)} pair updates (max_passes {cfg.max_passes})",
            RuntimeWarning,
            stacklevel=2,
        )
    keep = alpha > cfg.eps
    if not keep.any():
        raise NoSupportVectors(
            f"{machine}: no alpha exceeds eps {cfg.eps:g} (final KKT gap {gap:.3g}, "
            f"tol {cfg.tol:g}); lower tol or eps"
        )
    return BinaryModel(
        support_vectors=matrix[keep],
        dual_coefs=(alpha * labels)[keep],
        bias=bias,
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


def train_multiclass(x: Sequence, y: Sequence[str], cfg: SvmConfig) -> MulticlassModel:
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
        machines.append(train_binary(matrix[idx], pair_y, cfg, positive_label=pos, negative_label=neg))
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
