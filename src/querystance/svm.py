"""Kernel SVM trained with sequential minimal optimization.

The binary soft-margin dual is solved over the full cached Gram matrix
by one SMO loop: each iteration updates the pair chosen by
second-order working-set selection (Fan, Chen & Lin 2005) and the loop
stops once the KKT gap m - M is within tol (Keerthi et al. 2001) or a
cap of max_passes * n pair updates is reached. The loop keeps its state
from one iteration to the next and updates it in place, as LIBSVM does:
the scores -y*G, held only on I_up and on I_low, and the alphas and set
flags as Python scalars. The curvature row of WSS2 depends on i alone,
so each is computed once per solve and kept, within a fixed byte budget
(_ROW_CACHE_BYTES). Training has no random choices, so equal inputs give
equal models. Machines are combined one-vs-one for multiclass and share
one pool of distinct support vectors (as in LIBSVM, Chang & Lin 2011),
built once from the training rows each machine keeps. Machine k decides
the k-th pair of the sorted labels (``_pairs``), so, as in LIBSVM, a
machine stores no labels. Each machine holds
the pool rows of its support vectors, so prediction computes one kernel
matrix against the pool for a batch of rows and every machine reads its
columns. Every row enters through one intake as ``SparseRows`` (CSR rows
of nonzero values, LIBSVM's sparse rows): SparseRows as they are built,
an array-like as its nonzero entries. Training and prediction read them
through one kernel, in chunks: prediction K(chunk, pool), and training each
machine's Gram with its own rows as the pool. The dot products of
K(chunk, pool) are split by the pool's columns, a split made once per pool. A
column that at least PREDICT_DENSE_SHARE of the pool's rows store is
read through one BLAS product with a small dense block of the pool over
those columns; every other column through its list of pool rows and
values (CSC, the inverted file of Zobel & Moffat 2006), whose products
with a chunk's entries are added by one ``np.bincount`` over the (chunk
row, pool row) cells, each cell's in column order, the order in which
``SparseRows`` requires every row to store its entries, a caller's rows
as a pool's. A chunk holds at most PREDICT_CHUNK_ROWS rows and expands
to at most PREDICT_CHUNK_ROWS * pool rows list products, the size of its
kernel matrix, unless one row alone exceeds that.

A linear or polynomial kernel is a finite sum over monomials, K(x, z) =
sum_t c_t phi_t(x) phi_t(z), so such a model has a second form,
``WeightsModel``: each machine is phi(x) . w + b with w = sum_i dual_coef_i
* c∘phi(sv_i) (the explicit low-degree map of Chang, Hsieh, Chang, Ringgaard
& Lin 2010). ``weights_form`` states the one rule that picks it: the kernel
is linear or poly and its map has no more terms than the pool stores
entries; RBF and a wider map keep the pool. Prediction reads the weights
through the same intake and vote, PREDICT_CHUNK_ROWS rows at a time, as
phi(chunk) @ weights.T + biases. Training always gives the pool form.
No external solver; numpy only.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement
from typing import Annotated, NamedTuple, Sequence

import numpy as np

from .codec import FieldError
from .errors import DimensionMismatch, NonFinite, SingleClassInput
from .features import IndexArray, SparseRows

KERNEL_KINDS = ("linear", "poly", "rbf")

# rows per kernel product, at prediction and in a training Gram: bounds the
# kernel matrix (and its temporaries) held at once
PREDICT_CHUNK_ROWS = 128

# share of a pool's rows (in a training Gram, of its rows) that must store a
# column for the kernel to read it through the pool's dense block and BLAS
# rather than through the column's list; on task-2 batches of 260 to 1,542
# rows, 1/8 to 1/32 ran within 8 % of each other, 1/4 slower, lists alone or a
# block of every column far slower (README)
PREDICT_DENSE_SHARE = 1 / 8

# bytes of the rows one SMO solve keeps beside the Gram (the curvature rows of
# WSS2); once they are used up, a row is computed for its update and dropped
_ROW_CACHE_BYTES = 16 * 2**20


def _is_count(value: object) -> bool:
    """An integer, numpy's included; a bool or a float is not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if not _is_count(self.degree):
            raise ValueError(f"degree must be an integer, got {self.degree!r}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if not math.isfinite(self.coef0):
            raise ValueError(f"coef0 must be finite, got {self.coef0}")


@dataclass(frozen=True)
class SvmConfig:
    """Box constraint C, kernel, KKT gap tolerance and a cap of max_passes * n
    pair updates for n training rows."""

    c: float = 1e7
    kernel: KernelConfig = KernelConfig("linear")
    tol: float = 1e-3
    max_passes: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0 < self.tol < 2:  # the KKT gap starts at 2, so a tol of 2 or more stops SMO before it moves
            raise ValueError(f"tol must be in (0, 2), got {self.tol}")
        if not _is_count(self.max_passes):
            raise ValueError(f"max_passes must be an integer, got {self.max_passes!r}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")


@dataclass(frozen=True, eq=False)
class SupportVectorPool(SparseRows):
    """Distinct support vectors shared by the machines of a model, as CSR rows
    (``SparseRows``) of finite values. What prediction reads of the pool
    (``columns``, ``sq_norms``) is built once, on first use, from the CSR
    fields: a ``dims`` read from a file allocates nothing until it is used."""

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.values).all():
            raise FieldError("values", "must be finite")

    @classmethod
    def of(cls, rows: SparseRows) -> tuple[SupportVectorPool, np.ndarray]:
        """The pool of the distinct ``rows``, in order of first appearance,
        and the pool row of each of them. Rows are equal when they store the
        same columns and values: equal bytes."""
        first: dict[bytes, int] = {}
        index = np.array([
            first.setdefault(rows.indices[a:b].tobytes() + rows.values[a:b].tobytes(), len(first))
            for a, b in zip(rows.indptr[:-1], rows.indptr[1:])
        ], dtype=np.int64)
        kept = rows.take(np.unique(index, return_index=True)[1])  # first copy of each, in row order
        return cls(kept.dims, kept.indptr, kept.indices, kept.values), index

    @functools.cached_property
    def sq_norms(self) -> np.ndarray:
        """Each row's squared norm, the squares of its stored values added in column order."""
        return np.bincount(self.row_of_entries(), self.values * self.values, minlength=self.rows)

    @functools.cached_property
    def columns(self) -> PoolColumns:
        """The pool split by its columns for prediction (see ``PoolColumns``)."""
        row, col, values = self.row_of_entries(), self.indices, self.values
        counts = np.bincount(col, minlength=self.dims)
        # a column that no row stores adds nothing: it gets an empty list, also in a pool of no rows
        frequent = counts >= max(PREDICT_DENSE_SHARE * self.rows, 1)
        n_block = np.count_nonzero(frequent)
        place = np.full(self.dims, n_block, dtype=np.intp)
        place[frequent] = np.arange(n_block)
        listed = ~frequent[col]
        block = np.zeros((self.rows, n_block), order="F")  # a chunk reads it as block.T, row-major
        block[row[~listed], place[col[~listed]]] = values[~listed]
        by_column = np.argsort(col[listed], kind="stable")  # each list in row order
        sizes = np.where(frequent, 0, counts)
        return PoolColumns(place, block, np.cumsum(sizes), sizes, row[listed][by_column], values[listed][by_column])


@dataclass(frozen=True, eq=False)
class PoolGaps:
    """A support-vector pool as a model file stores it: the fields of its
    ``SparseRows``, each row's columns (``indices``) gap-coded as posting
    lists are (Witten, Moffat & Bell 1999, §3): the first as it is, each
    later one as its difference from the one before, so every gap after a
    row's first is positive. ``value`` rebuilds the columns, and
    ``SupportVectorPool`` checks them unchanged: a gap of 0 or less gives a
    column out of order, and a sum that wraps past the int64 range a column
    outside [0, dims)."""

    dims: int
    indptr: IndexArray
    indices: IndexArray
    values: np.ndarray

    @classmethod
    def of(cls, pool: SupportVectorPool) -> PoolGaps:
        first = np.zeros(len(pool.indices) + 1, dtype=bool)
        first[pool.indptr] = True
        gaps = np.diff(pool.indices, prepend=0)
        gaps[first[:-1]] = pool.indices[first[:-1]]
        return cls(pool.dims, pool.indptr, gaps, pool.values)

    @functools.cached_property
    def value(self) -> SupportVectorPool:
        indptr, columns = self.indptr, self.indices
        sizes = np.diff(indptr)
        # rows that SparseRows would refuse keep their gaps, and it names the field
        if columns.ndim == indptr.ndim == 1 and len(indptr) and indptr[0] == 0 and indptr[-1] == len(columns) \
                and (sizes >= 0).all():
            total = np.concatenate(([0], columns.cumsum()))  # each row's columns: its gaps summed from its start
            columns = total[1:] - total[indptr[:-1]].repeat(sizes)
        return SupportVectorPool(self.dims, indptr, columns, self.values)


class PoolColumns(NamedTuple):
    """A pool's columns, split for prediction. The columns that at least
    PREDICT_DENSE_SHARE of its rows store form a dense block; every other
    column is a list of the pool rows that store it and their values (CSC),
    the lists held one after the other in column order, each in row order."""

    place: IndexArray  # (dims,) a block column's place in the block; the block's width for a list column
    block: np.ndarray  # (pool rows, block columns)
    stops: IndexArray  # (dims,) where a list column's entries end in list_rows and list_values
    sizes: IndexArray  # (dims,) a list column's entry count, 0 for a block column
    list_rows: IndexArray
    list_values: np.ndarray


@dataclass(frozen=True, eq=False)
class BinaryModel:
    """One trained machine: the pool rows of its support vectors, their
    alpha*y coefficients and the bias; its place in a model names its labels (``_pairs``).

    A machine reads its support vectors from the pool of the model (or,
    from ``train_binary``, of its own) that holds it.
    """

    sv_index: IndexArray  # (n_sv,) rows of the pool
    dual_coefs: np.ndarray  # (n_sv,)
    bias: float

    def __post_init__(self):
        index, coefs = self.sv_index, self.dual_coefs
        if index.ndim != 1 or coefs.ndim != 1 or len(index) != len(coefs):
            raise ValueError(
                f"sv_index of shape {index.shape} does not match dual_coefs of shape {coefs.shape}"
            )
        if not (np.isfinite(coefs).all() and math.isfinite(self.bias)):
            raise ValueError("dual_coefs and bias must be finite")

    @property
    def support_vectors(self) -> np.ndarray:
        """(n_sv, dims) dense support vectors, one row per dual coefficient."""
        return self._pool.to_dense()[self.sv_index]


def _bind(machine: BinaryModel, pool: SupportVectorPool) -> BinaryModel:
    """``machine``, reading its support vectors from ``pool`` from now on."""
    object.__setattr__(machine, "_pool", pool)
    return machine


def _check_labels(labels: tuple[str, ...]) -> None:
    if list(labels) != sorted(set(labels)):  # the vote tie-break relies on it
        raise FieldError("labels", f"must be sorted and distinct, got {list(labels)}")


def _pairs(labels: Sequence) -> list[tuple]:
    """The one-vs-one order: machine k on the sorted ``labels`` decides the k-th pair
    (negative, positive), a positive value voting for the later label. A load check
    counts the C(n, 2) pairs of n labels without listing them."""
    return list(combinations(labels, 2))


@dataclass(frozen=True, eq=False)
class MulticlassModel:
    """One-vs-one ensemble over lexicographically ordered labels, machine k on the k-th pair of ``_pairs``.

    Its machines are copies bound to ``pool``; each ``sv_index`` must
    address rows of it.
    """

    labels: tuple[str, ...]
    machines: tuple[BinaryModel, ...]
    kernel: KernelConfig
    pool: Annotated[SupportVectorPool, PoolGaps]

    def __post_init__(self):
        _check_labels(self.labels)
        if len(self.machines) != (pairs := math.comb(len(self.labels), 2)):
            raise FieldError("machines", f"must hold one machine per label pair of {list(self.labels)}, "
                                         f"{pairs} in all, got {len(self.machines)}")
        for k, m in enumerate(self.machines):
            if len(m.sv_index) and not 0 <= m.sv_index.min() <= m.sv_index.max() < self.pool.rows:
                raise FieldError(
                    f"machines[{k}].sv_index", f"a row lies outside the {self.pool.rows} rows of the pool"
                )
        machines = tuple(_bind(replace(m), self.pool) for m in self.machines)
        object.__setattr__(self, "machines", machines)


def _map_terms(kernel: KernelConfig, dims: int) -> int | None:
    """The number of terms of the kernel's explicit map over ``dims`` columns,
    the monomials whose coefficient is not zero; None for RBF, whose map has no
    end. (gamma x.z + coef0)^degree holds every monomial of degree at most
    ``degree``, or only those of degree ``degree`` when coef0 is 0; linear holds x."""
    if kernel.kind == "rbf":
        return None
    if kernel.kind == "linear":
        return dims
    degree = kernel.degree
    return math.comb(dims + degree, degree) if kernel.coef0 else math.comb(dims + degree - 1, degree)


@functools.cache
def _monomials(kernel: KernelConfig, dims: int) -> tuple[IndexArray, np.ndarray]:
    """The terms of the kernel's map over ``dims`` columns, by degree and then in
    lexicographic order: each term's factor columns, a (terms, degree) array in
    which column ``dims`` stands for a factor 1, and its coefficient c, so that
    K(x, z) = sum_t c_t phi_t(x) phi_t(z). The coefficient of a monomial of degree
    k is C(degree, k) coef0^(degree - k) gamma^k times the multinomial
    coefficient of its factors."""
    if kernel.kind == "linear":
        return np.arange(dims).reshape(dims, 1), np.ones(dims)
    degree, gamma, coef0 = kernel.degree, np.float64(kernel.gamma), np.float64(kernel.coef0)
    factors, coefs = [], []
    for k in range(0 if kernel.coef0 else degree, degree + 1):
        scale = math.comb(degree, k) * coef0 ** (degree - k) * gamma ** k
        for term in combinations_with_replacement(range(dims), k):
            factors.append(term + (dims,) * (degree - k))
            coefs.append(scale * (math.factorial(k) // math.prod(map(math.factorial, Counter(term).values()))))
    return np.array(factors, dtype=np.int64).reshape(-1, degree), np.array(coefs)


def _mapped(rows: SparseRows, start: int, stop: int, factors: IndexArray) -> np.ndarray:
    """phi(rows[start:stop]), the map's terms of each row: the product of the
    term's factor columns, taken factor after factor."""
    lo, hi = rows.indptr[start], rows.indptr[stop]
    dense = np.zeros((stop - start, rows.dims + 1))
    dense[:, -1] = 1.0  # the factor 1 of a term of lower degree
    row = np.arange(stop - start).repeat(rows.indptr[start + 1:stop + 1] - rows.indptr[start:stop])
    dense[row, rows.indices[lo:hi]] = rows.values[lo:hi]
    mapped = dense[:, factors[:, 0]]
    for column in factors.T[1:]:
        mapped *= dense[:, column]
    return mapped


@dataclass(frozen=True, eq=False)
class WeightsModel:
    """A linear or polynomial one-vs-one model in its explicit map (the
    low-degree map of Chang, Hsieh, Chang, Ringgaard & Lin 2010): machine k,
    on the k-th label pair of ``_pairs``, gives
    phi(x) . weights[k] + biases[k] for the map's terms phi(x) (``_monomials``)."""

    labels: tuple[str, ...]
    kernel: KernelConfig
    dims: int
    weights: np.ndarray  # (machines, terms)
    biases: np.ndarray  # (machines,)

    def __post_init__(self):
        _check_labels(self.labels)
        if self.kernel.kind == "rbf":
            raise FieldError("kernel", "an RBF kernel has no finite map to weigh")
        if self.dims < 0:
            raise FieldError("dims", f"must be >= 0, got {self.dims}")
        degree = 1 if self.kernel.kind == "linear" else self.kernel.degree
        stored = self.weights.shape[-1] if self.weights.ndim == 2 else 0
        # the map has at least min(dims, degree) terms: a larger dims and degree are refused
        # before C(dims + degree, degree), whose cost grows with both, is counted
        if min(self.dims, degree) > stored:
            raise FieldError("weights", f"{stored} terms are too few for a map of degree {degree} over "
                                        f"{self.dims} columns")
        shape = (math.comb(len(self.labels), 2), _map_terms(self.kernel, self.dims))
        if self.weights.shape != shape:
            raise FieldError("weights", f"must have shape {shape} (label pairs, terms of the kernel's map "
                                        f"over {self.dims} columns), got {self.weights.shape}")
        if self.biases.shape != shape[:1]:
            raise FieldError("biases", f"must have shape {shape[:1]} (label pairs), got {self.biases.shape}")
        for name in ("weights", "biases"):
            if not np.isfinite(getattr(self, name)).all():
                raise FieldError(name, "must be finite")


def weights_form(model: MulticlassModel) -> WeightsModel | None:
    """``model`` in its explicit map when that is its form, else None. This is
    the one rule that picks the form: the kernel is linear or poly and its map
    has no more terms than the pool stores entries. Each machine's weights are
    sum_i dual_coef_i * c∘phi(sv_i), added term by term in support-vector order
    by one ``np.bincount``."""
    pool, kernel = model.pool, model.kernel
    terms = _map_terms(kernel, pool.dims)
    if terms is None or terms > len(pool.values):
        return None
    factors, coefs = _monomials(kernel, pool.dims)
    scaled = _mapped(pool, 0, pool.rows, factors) * coefs
    weights = np.array([
        np.bincount(np.tile(np.arange(terms), len(m.sv_index)), (m.dual_coefs[:, None] * scaled[m.sv_index]).ravel(),
                    minlength=terms)
        for m in model.machines
    ]).reshape(-1, terms)
    biases = np.array([m.bias for m in model.machines])
    return WeightsModel(model.labels, kernel, pool.dims, weights, biases)


def _smo(gram: np.ndarray, y: np.ndarray, cfg: SvmConfig) -> tuple[np.ndarray, float, float, int]:
    """Minimise 1/2 a'Qa - e'a, Q = yy'K, over 0 <= a <= C and y'a = 0.

    Each iteration moves one pair by second-order working-set selection
    (WSS2; Fan, Chen & Lin 2005): i is the maximal violator in I_up, j
    the member of I_low whose pair step lowers the objective most. The
    loop stops when the KKT gap m - M is at most cfg.tol (Keerthi et al.
    2001) or after cfg.max_passes * n pair updates.

    The state lives across iterations, as in LIBSVM. The scores -y*G, for
    the gradient G = Q alpha - e, are held on the two sets only: up_score
    on I_up (-inf elsewhere) and low_score on I_low (+inf elsewhere).
    Every variable lies in at least one of them, so together they hold
    every score; the full score is rebuilt once, after the loop, for the
    bias. A pair update subtracts the one row y_i d_i K_i + y_j d_j K_j
    from both; y is +/-1, so every negation is exact and the scores equal
    a fresh -y*G. A variable that enters or leaves a set, which only i and
    j can do, carries its score across. The alphas, labels and set flags
    are Python lists inside the loop, so the box step is Python float
    arithmetic.

    WSS2's curvature row diag + diag_i - 2 K_i, clamped to 1e-12 where it
    is not positive, depends on i alone. It is computed the first time i
    is chosen and kept for the rest of the solve, as LIBSVM keeps kernel
    rows (Chang & Lin 2011, section 5.2), while the rows kept fit in
    _ROW_CACHE_BYTES; past that, a new i's row is computed into a buffer
    for its update and not kept. Every other per-iteration array is a
    length-n buffer allocated once. Returns the alphas, the bias, the
    final gap and the number of pair updates made.
    """
    n, c = len(y), float(cfg.c)
    cap = cfg.max_passes * n
    signs = y.tolist()
    pos = [s > 0 for s in signs]
    alpha = [0.0] * n
    up, low = pos.copy(), [not p for p in pos]
    # -y*G at alpha = 0, where G = -e, is y
    up_score = np.where(y > 0, y, -np.inf)
    low_score = np.where(y > 0, np.inf, y)
    diag = np.diag(gram)
    b, gain, row, spill = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    mask = np.empty(n, dtype=bool)
    curvature: dict[int, np.ndarray] = {}  # the clamped curvature row of each i seen
    fits = _ROW_CACHE_BYTES // (8 * n)
    for step in range(cap + 1):
        i = int(up_score.argmax())
        m, big_m = up_score.item(i), low_score.item(int(low_score.argmin()))
        if m - big_m <= cfg.tol or step == cap:
            break
        gram_i = gram[i]
        np.subtract(m, low_score, out=b)  # -inf off I_low
        a = curvature.get(i)
        if a is None:
            keep = len(curvature) < fits
            a = np.add(diag, diag.item(i), out=None if keep else spill)
            np.subtract(a, np.multiply(gram_i, 2.0, out=row), out=a)
            # flat or concave pair: step to the box edge
            np.copyto(a, 1e-12, where=np.less_equal(a, 0.0, out=mask))
            if keep:
                curvature[i] = a
        # b|b|/a is b^2/a where b > 0, the gain of stepping on the pair, and
        # not positive elsewhere; the argmin of low_score has b = m - M > tol
        np.divide(np.multiply(np.absolute(b, out=gain), b, out=gain), a, out=gain)
        j = int(gain.argmax())
        # step t along alpha_i += y_i t, alpha_j -= y_j t, clipped to the box;
        # a variable that reaches its edge is set to exactly 0 or C
        old_i, old_j = alpha[i], alpha[j]
        room_i = c - old_i if pos[i] else old_i
        room_j = old_j if pos[j] else c - old_j
        t = min(b.item(j) / a.item(j), room_i, room_j)
        alpha[i] = (c if pos[i] else 0.0) if t == room_i else old_i + signs[i] * t
        alpha[j] = (0.0 if pos[j] else c) if t == room_j else old_j - signs[j] * t
        np.multiply(gram_i, signs[i] * (alpha[i] - old_i), out=row)
        row += np.multiply(gram[j], signs[j] * (alpha[j] - old_j), out=b)
        up_score -= row
        low_score -= row
        for k in (i, j):
            now_up = alpha[k] < c if pos[k] else alpha[k] > 0.0
            now_low = alpha[k] > 0.0 if pos[k] else alpha[k] < c
            if now_up != up[k] or now_low != low[k]:
                score = up_score.item(k) if up[k] else low_score.item(k)
                up_score[k] = score if now_up else -np.inf
                low_score[k] = score if now_low else np.inf
                up[k], low[k] = now_up, now_low
    alpha = np.array(alpha)
    free = (alpha > 0.0) & (alpha < c)
    # bias = -rho as in LIBSVM: mean(-y*G) over free SVs, else the middle of [M, m]
    score = np.where(up, up_score, low_score)
    bias = float(np.mean(score[free])) if free.any() else 0.5 * (m + big_m)
    return alpha, bias, m - big_m, step


def _rows(x, dims: int | None = None) -> SparseRows:
    """The rows of ``x``, SparseRows or a 2-D array-like, as SparseRows: the
    one intake of every row the SVM trains on or predicts. An array-like is
    stored as its nonzero entries. Given a model's ``dims``, an empty list is
    no rows and another width is a DimensionMismatch; NaN or infinity is
    NonFinite, found among the stored values before any kernel is computed."""
    if isinstance(x, SparseRows):
        rows = x
    else:
        try:
            matrix = np.asarray(x, dtype=np.float64)
        except ValueError as exc:  # rows of different lengths
            raise DimensionMismatch(f"rows must share one width: {exc}") from exc
        if dims is not None and matrix.shape == (0,):
            matrix = matrix.reshape(0, dims)
        if matrix.ndim != 2:
            raise DimensionMismatch(f"rows must form a 2-D matrix, got shape {matrix.shape}")
        rows = SparseRows.from_dense(matrix)
    if dims is not None and rows.dims != dims:
        raise DimensionMismatch(f"model expects {dims} dims, got rows of shape {(rows.dims,)}")
    if not np.isfinite(rows.values).all():
        raise NonFinite("rows contain NaN or infinity")
    return rows


def _finite(values: np.ndarray, k: KernelConfig, rows: str) -> np.ndarray:
    """``values``, computed with overflow ignored; NonFinite naming the kernel's
    settings when one of them is not finite, the kernel having overflowed on ``rows``."""
    if not np.isfinite(values).all():
        raise NonFinite(f"the {k.kind} kernel (gamma {k.gamma:g}, degree {k.degree}, coef0 {k.coef0:g}) "
                        f"overflows on {rows}")
    return values


def _training_matrix(cfg: KernelConfig, rows: SparseRows) -> np.ndarray:
    """K(rows, rows), the Gram matrix SMO solves on, by the kernel prediction reads
    (``_pool_kernel`` over ``_chunks``) with the rows as their own pool. The upper
    triangle is copied onto the lower one, so the matrix is exactly symmetric."""
    pool = SupportVectorPool(rows.dims, rows.indptr, rows.indices, rows.values)
    gram = np.empty((rows.rows, rows.rows))
    for start, stop in _chunks(rows, pool):
        gram[start:stop] = _pool_kernel(cfg, rows, start, stop, pool)
    for i in range(1, rows.rows):  # row by row: one np.copyto would copy the whole matrix first
        gram[i, :i] = gram[:i, i]
    return gram


def _fit(rows: SparseRows, labels: np.ndarray, cfg: SvmConfig,
         pair: tuple[str, str]) -> tuple[IndexArray, np.ndarray, float]:
    """Solve one machine on ``rows`` and their +/-1 ``labels``:
    the rows of nonzero alpha, kept as support vectors, their alpha*y
    coefficients and the bias. The checks and the cap warning of ``train_binary``, naming ``pair`` (positive first);
    a kernel that overflows on the rows is NonFinite, naming its settings."""
    if rows.rows != len(labels):
        raise DimensionMismatch(f"{rows.rows} vectors but {len(labels)} labels")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("binary labels must be +1 or -1")
    if np.unique(labels).size < 2:
        raise SingleClassInput("training data holds a single class")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        gram = _finite(_training_matrix(cfg.kernel, rows), cfg.kernel, "the training rows")
    alpha, bias, gap, _ = _smo(gram, labels, cfg)
    if gap > cfg.tol:
        warnings.warn(
            f"machine {pair[0]!r} vs {pair[1]!r}: KKT gap {gap:.3g} > tol {cfg.tol:g} at the cap of "
            f"{cfg.max_passes * len(labels)} pair updates (max_passes {cfg.max_passes})",
            RuntimeWarning,
            stacklevel=3,  # the caller of train_binary or train_multiclass
        )
    # SMO sets an alpha that reaches the lower edge of the box to exactly 0, as LIBSVM does
    keep = np.flatnonzero(alpha > 0.0)
    return keep, (alpha * labels)[keep], bias


def train_binary(x, y: Sequence[int], cfg: SvmConfig) -> BinaryModel:
    """Train one machine on +/-1 labels.

    Deterministic. The support vectors are the examples of nonzero alpha,
    as in LIBSVM. Warns (RuntimeWarning) when the iteration cap stops the
    solver before the KKT gap reaches cfg.tol.
    """
    rows = _rows(x)
    keep, coefs, bias = _fit(rows, np.asarray(y, dtype=np.float64), cfg, ("+1", "-1"))
    pool, index = SupportVectorPool.of(rows.take(keep))
    return _bind(BinaryModel(index, coefs, bias), pool)


def _pool_kernel(cfg: KernelConfig, rows: SparseRows, start: int, stop: int, pool: SupportVectorPool) -> np.ndarray:
    """K(rows[start:stop], pool) from the stored entries of those rows and of the pool.

    The dot products are the chunk's entries in the pool's block columns times
    the block, one BLAS product, plus the products of its other entries with
    their columns' lists, added by one ``np.bincount`` over the (row, pool row)
    cells, each cell's in column order, the order its row stores them in; RBF
    adds each row's squared norm from its stored values in that order too, as
    the pool's ``sq_norms`` are added.
    """
    split, n = pool.columns, stop - start
    lo, hi = rows.indptr[start], rows.indptr[stop]
    row = np.arange(n).repeat(rows.indptr[start + 1:stop + 1] - rows.indptr[start:stop])
    col, values = rows.indices[lo:hi], rows.values[lo:hi]
    sizes = split.sizes[col]
    chunk = np.zeros((n, split.block.shape[1] + 1))  # the last column takes the list entries, unread
    chunk[row, split.place[col]] = values
    dots = chunk[:, :-1] @ split.block.T
    if sizes.any():
        ends = sizes.cumsum()
        # the list entries of each chunk entry's column, one after the other
        take = np.arange(ends[-1]) + (split.stops[col] - ends).repeat(sizes)
        cells = (row * pool.rows).repeat(sizes) + split.list_rows[take]
        products = values.repeat(sizes) * split.list_values[take]
        dots += np.bincount(cells, products, minlength=n * pool.rows).reshape(n, pool.rows)
    if cfg.kind == "linear":
        return dots
    if cfg.kind == "poly":
        return (cfg.gamma * dots + cfg.coef0) ** cfg.degree
    sq = np.bincount(row, values * values, minlength=n)[:, None] + pool.sq_norms[None, :] - 2.0 * dots
    with np.errstate(over="ignore"):  # an exponent beyond the float range is -inf, whose exp is exactly 0
        exponent = -cfg.gamma * np.maximum(sq, 0.0)
    return np.exp(exponent)


def _chunks(rows: SparseRows, pool: SupportVectorPool) -> list[tuple[int, int]]:
    """(start, stop) of each chunk of ``rows`` that ``_pool_kernel`` reads: at most
    PREDICT_CHUNK_ROWS rows whose entries expand to at most PREDICT_CHUNK_ROWS *
    pool rows list products, the size of their kernel matrix; a row that alone
    expands to more is a chunk of its own."""
    budget = PREDICT_CHUNK_ROWS * pool.rows
    sizes = pool.columns.sizes[rows.indices]
    products = np.concatenate(([0], sizes.cumsum()))[rows.indptr]  # before each row
    chunks, start = [], 0
    while start < rows.rows:
        fits = int(products.searchsorted(products[start] + budget, side="right")) - 1
        stop = max(start + 1, min(start + PREDICT_CHUNK_ROWS, fits))
        chunks.append((start, stop))
        start = stop
    return chunks


def _machine_values(kernel: np.ndarray, machine: BinaryModel) -> np.ndarray:
    """sum_i dual_coef_i * K(sv_i, x) + bias for each row of K(x, pool)."""
    return kernel[:, machine.sv_index] @ machine.dual_coefs + machine.bias


def decision_value(model: BinaryModel, x, cfg: KernelConfig) -> float:
    """sum_i dual_coef_i * K(sv_i, x) + bias for one row ``x``; NonFinite, naming
    the kernel, when the kernel overflows on it."""
    pool = model._pool
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        value = _machine_values(_pool_kernel(cfg, _rows([x], pool.dims), 0, 1, pool), model)
    return float(_finite(value, cfg, "the row to predict")[0])


def train_multiclass(x, y: Sequence[str], cfg: SvmConfig) -> MulticlassModel:
    """One-vs-one training over lexicographically sorted labels, on the rows
    of ``x``, SparseRows or a 2-D array-like.

    Each machine is solved as by ``train_binary``; the model keeps one pool,
    built once from the support-vector rows of all machines. The labels are
    taken as plain ``str``, so a numpy string prints as its text."""
    y = list(map(str, y))
    labels = sorted(set(y))
    if len(labels) < 2:
        raise SingleClassInput(f"need at least 2 distinct labels, got {labels}")
    rows = _rows(x)  # once, before the rows are split by pair
    y = np.asarray(y, dtype=object)  # compared as Python values, not as fixed-width strings
    if rows.rows != len(y):
        raise DimensionMismatch(f"{rows.rows} vectors but {len(y)} labels")
    # each machine's support vectors as indices into rows; the pool copies them once
    solved, sv_rows = [], []
    for neg, pos in _pairs(labels):
        idx = np.flatnonzero((y == neg) | (y == pos))
        keep, coefs, bias = _fit(rows.take(idx), np.where(y[idx] == pos, 1.0, -1.0), cfg, (pos, neg))
        sv_rows.append(idx[keep])
        solved.append((coefs, bias))
    pool, index = SupportVectorPool.of(rows.take(np.concatenate(sv_rows)))
    ends = np.cumsum([len(sv) for sv in sv_rows])[:-1]
    return MulticlassModel(
        labels=tuple(labels),
        machines=tuple(BinaryModel(i, *fit) for i, fit in zip(np.split(index, ends), solved)),
        kernel=cfg.kernel,
        pool=pool,
    )


def decision_values(model: MulticlassModel | WeightsModel, x) -> np.ndarray:
    """(rows, machines) decision values of every machine on every row of ``x``,
    SparseRows or a 2-D array-like.

    A ``WeightsModel`` reads chunks of PREDICT_CHUNK_ROWS rows as
    phi(chunk) @ weights.T + biases. A ``MulticlassModel`` reads the rows in
    the chunks of ``_chunks``. One kernel matrix K(chunk, pool) serves all
    machines: machine k reads its columns, K[:, sv_index_k] @ dual_coefs_k +
    bias_k. K is computed from the stored entries of the chunk and of the pool
    (``_pool_kernel``), and no matrix of the chunk over the full width is made.
    A kernel that overflows on the rows, so that a value is not finite, is
    NonFinite, naming its settings, in either form.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        if isinstance(model, WeightsModel):
            rows = _rows(x, model.dims)
            factors = _monomials(model.kernel, model.dims)[0]
            values = np.empty((rows.rows, len(model.biases)))
            for start in range(0, rows.rows, PREDICT_CHUNK_ROWS):
                stop = min(start + PREDICT_CHUNK_ROWS, rows.rows)
                values[start:stop] = _mapped(rows, start, stop, factors) @ model.weights.T + model.biases
        else:
            pool = model.pool
            rows = _rows(x, pool.dims)
            values = np.empty((rows.rows, len(model.machines)))
            for start, stop in _chunks(rows, pool):
                kernel = _pool_kernel(model.kernel, rows, start, stop, pool)
                for k, machine in enumerate(model.machines):
                    values[start:stop, k] = _machine_values(kernel, machine)
    return _finite(values, model.kernel, "the rows to predict")


def predict_batch(model: MulticlassModel | WeightsModel, x) -> list[str]:
    """Majority vote over pairwise machines, for every row of ``x``, a
    SparseRows or a 2-D array-like.

    Vote ties break on the larger sum of |decision| over the machines
    each tied label won; remaining ties take the lexicographically
    earliest label. Each machine's winners index the cells (row, label),
    machine after machine, and two ``np.bincount``s over those cells
    count the votes and add the margins, each cell's in machine order.
    """
    values = decision_values(model, x)
    n_rows, n_labels = len(values), len(model.labels)
    # machine k takes the k-th label pair (negative, positive); one label has no pairs,
    # so its shape comes from the reshape
    pairs = np.array(_pairs(range(n_labels)), dtype=np.intp).reshape(-1, 2)
    negative, positive = pairs.T
    # machine k's winner on row r, as the cell row * n_labels + label, is entry k * n_rows + r
    won = np.where(values.T >= 0.0, positive[:, None], negative[:, None])
    cells = (won + np.arange(n_rows) * n_labels).ravel()
    votes = np.bincount(cells, minlength=n_rows * n_labels).reshape(n_rows, n_labels)
    margins = np.bincount(cells, np.abs(values.T).ravel(), minlength=n_rows * n_labels).reshape(n_rows, n_labels)
    tied = votes == votes.max(axis=1, keepdims=True)
    # labels are sorted and argmax takes the first maximum, so it is lexicographic
    return [model.labels[i] for i in np.argmax(np.where(tied, margins, -np.inf), axis=1)]


def predict(model: MulticlassModel | WeightsModel, x) -> str:
    """``predict_batch`` of the single row ``x``."""
    return predict_batch(model, [x])[0]

