"""Independent oracles used by the test suite.

Each of these recomputes an expected value through a different route
than the implementation under test: explicit pairing loops for the
similarity features, and exact active-set enumeration for the SVM
dual. Keep them dumb and obviously correct.
"""

from __future__ import annotations

import itertools

import numpy as np


def dice_bruteforce(query_tokens, sentence_tokens) -> float:
    """Pair off equal words one by one, then apply the 2c/(|q|+|s|) formula."""
    if not query_tokens and not sentence_tokens:
        return 0.0
    used = [False] * len(sentence_tokens)
    common = 0
    for word in query_tokens:
        for j, other in enumerate(sentence_tokens):
            if not used[j] and other == word:
                used[j] = True
                common += 1
                break
    return 2.0 * common / (len(query_tokens) + len(sentence_tokens))


def noun_bruteforce(query_tokens, sentence_tokens, noun_words) -> float:
    """Explicit membership scans over distinct query nouns."""
    query_nouns = []
    for token in query_tokens:
        if token in noun_words and token not in query_nouns:
            query_nouns.append(token)
    if not query_nouns:
        return 0.0
    matched = 0
    for noun in query_nouns:
        for token in sentence_tokens:
            if token == noun:
                matched += 1
                break
    return matched / len(query_nouns)


def solve_dual_bruteforce(kernel_matrix, y, c) -> tuple[float, np.ndarray]:
    """Exact maximum of the SVM dual by enumerating active sets.

    For every assignment of each alpha to {0, C, free}, solve the
    stationarity system on the free coordinates together with the
    sum(alpha * y) = 0 constraint, keep feasible candidates, and return
    the best objective. The optimizer's own active set is always among
    the 3^n assignments, so the best candidate is the global optimum
    of this concave QP. Exponential, fine for n <= ~8.
    """
    K = np.asarray(kernel_matrix, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    Q = (y[:, None] * y[None, :]) * K

    def objective(alpha):
        return float(np.sum(alpha) - 0.5 * alpha @ Q @ alpha)

    scale = max(1.0, c)
    best_obj = -np.inf
    best_alpha = None
    for states in itertools.product((0, 1, 2), repeat=n):
        alpha = np.array([0.0 if s == 0 else (c if s == 1 else np.nan) for s in states])
        free = [i for i, s in enumerate(states) if s == 2]
        fixed = [i for i, s in enumerate(states) if s != 2]
        if free:
            m = len(free)
            A = np.zeros((m + 1, m + 1))
            b = np.zeros(m + 1)
            for r, i in enumerate(free):
                A[r, :m] = Q[i, free]
                A[r, m] = y[i]
                b[r] = 1.0 - (float(Q[i, fixed] @ alpha[fixed]) if fixed else 0.0)
            A[m, :m] = y[free]
            b[m] = -float(y[fixed] @ alpha[fixed]) if fixed else 0.0
            solution, *_ = np.linalg.lstsq(A, b, rcond=None)
            if not np.allclose(A @ solution, b, atol=1e-7 * scale):
                continue  # no stationary point inside this face
            alpha[free] = solution[:m]
        if np.any(alpha < -1e-9 * scale) or np.any(alpha > c + 1e-9 * scale):
            continue
        alpha = np.clip(alpha, 0.0, c)
        if abs(alpha @ y) > 1e-7 * scale:
            continue
        obj = objective(alpha)
        if obj > best_obj:
            best_obj = obj
            best_alpha = alpha
    return best_obj, best_alpha


def cosine_bruteforce(u: dict[int, float], v: dict[int, float]) -> float:
    """Dot and norms via plain accumulation over all indices."""
    indices = sorted(set(u) | set(v))
    dot = 0.0
    norm_u_sq = 0.0
    norm_v_sq = 0.0
    for i in indices:
        a = u.get(i, 0.0)
        b = v.get(i, 0.0)
        dot += a * b
        norm_u_sq += a * a
        norm_v_sq += b * b
    if norm_u_sq == 0.0 or norm_v_sq == 0.0:
        return 0.0
    return dot / (norm_u_sq**0.5 * norm_v_sq**0.5)


def ovo_reference(model, x) -> tuple[str, list[float]]:
    """One-vs-one label and per-machine decision values of one row, by loops.

    Each support vector is rebuilt from the pool's CSR fields, each
    machine sums coef * kernel_eval(sv, x) + bias, and the vote counts
    wins, breaks ties on the summed |decision| of the tied labels and
    then on the earliest label.
    """
    from querystance.svm import kernel_eval

    pool = model.pool

    def support_vector(row):
        dense = [0.0] * pool.dims
        for k in range(pool.indptr[row], pool.indptr[row + 1]):
            dense[pool.indices[k]] = pool.values[k]
        return dense

    values = []
    votes = {label: 0 for label in model.labels}
    margins = {label: 0.0 for label in model.labels}
    for machine in model.machines:
        value = machine.bias
        for row, coef in zip(machine.sv_index, machine.dual_coefs):
            value += coef * kernel_eval(model.kernel, support_vector(row), x)
        values.append(value)
        winner = machine.positive_label if value >= 0.0 else machine.negative_label
        votes[winner] += 1
        margins[winner] += abs(value)
    tied = [label for label in sorted(model.labels) if votes[label] == max(votes.values())]
    best = max(margins[label] for label in tied)
    return next(label for label in tied if margins[label] == best), values
