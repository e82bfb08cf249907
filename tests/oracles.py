"""Independent oracles used by the test suite.

Each of these recomputes an expected value through a different route
than the implementation under test: explicit pairing loops for the
similarity features, exact active-set enumeration for the SVM dual, an
SMO loop that recomputes its whole state every iteration, a one-pair
kernel and a dense Gram by the kernel formulas for the SVM's kernel
matrices, the dual objective over that Gram, the decision values of dense rows
computed chunk by chunk over a dense gather, a ``Counter`` per text for a
batch's word table, string-taking feature functions that re-tokenize
their inputs for every feature, and the model file's compact forms (a
front-coded word list, gap-coded pool columns) worked out one item at a
time over a file's plain JSON lists. Each feature
rule is worked out here from its definition and the raw resource fields
(a vocabulary's ``terms``, ``df`` and ``n_docs``, a sentiment lexicon's
(pos, neg) scores, a noun lexicon's words), never through the
package's own lookups; of the package, only ``GLOSS_SENTENCES``,
``Polarity``, ``porter_stem`` and ``split_sentences`` are imported, and
Porter has its own check against a frozen vocabulary. Keep them dumb and
obviously correct.

Every float sum here adds left to right, one value at a time, as the
package's ``np.bincount`` sums do: Python's ``sum`` compensates its
rounding from 3.12 on, and would then disagree in the last bit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from querystance.lexicons import GLOSS_SENTENCES, Polarity
from querystance.porter import porter_stem
from querystance.textproc import split_sentences


def left_to_right(values) -> float:
    """The sum of ``values``, added one at a time from the left."""
    total = 0.0
    for value in values:
        total += value
    return total


def dice_counts(query_counts, sentence_counts, n_tokens: int) -> float:
    """2 * common / n_tokens, from the two texts' word counts and their
    total token count.

    ``common`` is the size of the multiset intersection: a word counted
    twice in both texts contributes two matches.
    """
    if not n_tokens:
        return 0.0
    common = sum(min(query_counts[w], sentence_counts[w]) for w in query_counts.keys() & sentence_counts.keys())
    return 2.0 * common / n_tokens


def cosine(u: dict[int, float], v: dict[int, float]) -> float:
    """Cosine of two sparse weight vectors: each norm adds its squares in the
    vector's order, and the dot adds its products in the order of ``u``."""
    norm_u = math.sqrt(left_to_right(w * w for w in u.values()))
    norm_v = math.sqrt(left_to_right(w * w for w in v.values()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    dot = left_to_right(w * v[i] for i, w in u.items() if i in v)
    return dot / (norm_u * norm_v)


def tokenize_reference(text: str) -> list[str]:
    """Character loop: letters, digits, apostrophes and hyphens build a token,
    anything else ends it; apostrophes and hyphens are stripped from the edges."""
    tokens = []
    buf = []
    for ch in text.lower():
        if ch.isalnum() or ch in "'-":
            buf.append(ch)
        elif buf:
            tokens.append("".join(buf))
            buf.clear()
    if buf:
        tokens.append("".join(buf))
    return [stripped for t in tokens if (stripped := t.strip("'-"))]


def gloss_tokens_reference(gloss_dict, term: str, k: int) -> list[str]:
    """Tokens of a term's first k gloss sentences, split afresh on every call."""
    gloss = gloss_dict.entries.get(term.lower())
    if gloss is None:
        return []
    return tokenize_reference(" ".join(split_sentences(gloss)[:k]))


def tfidf_reference(vocab, tokens: list[str]) -> dict[int, float]:
    """TF-IDF weights by term column, in the order words first appear:
    (count / token count) * ln(n_docs / df), the token count including words
    outside the vocabulary, which get no weight."""
    column = {term: i for i, term in enumerate(vocab.terms)}
    weights = {}
    for term, count in Counter(tokens).items():
        if term in column:
            i = column[term]
            weights[i] = (count / len(tokens)) * math.log(vocab.n_docs / vocab.df[i])
    return weights


def polarity_reference(sent_lex, word: str) -> Polarity:
    """The word's larger score of (pos, neg) names its polarity; a tie, or a
    word the lexicon lacks, is neutral."""
    pos, neg = sent_lex.entries.get(word.lower(), (0.0, 0.0))
    if pos > neg:
        return Polarity.POSITIVE
    if neg > pos:
        return Polarity.NEGATIVE
    return Polarity.NEUTRAL


def _dice(query_words: list[str], sentence_words: list[str]) -> float:
    return dice_counts(Counter(query_words), Counter(sentence_words), len(query_words) + len(sentence_words))


def feature_exact_reference(query: str, sentence: str) -> float:
    return _dice(tokenize_reference(query), tokenize_reference(sentence))


def feature_stemmed_reference(query: str, sentence: str) -> float:
    return _dice(
        [porter_stem(t) for t in tokenize_reference(query)],
        [porter_stem(t) for t in tokenize_reference(sentence)],
    )


def feature_noun_reference(query: str, sentence: str, noun_lex) -> float:
    query_nouns = {t for t in tokenize_reference(query) if t in noun_lex}
    if not query_nouns:
        return 0.0
    return len(query_nouns & set(tokenize_reference(sentence))) / len(query_nouns)


def feature_neighborhood_reference(query: str, sentence: str, gloss_dict) -> float:
    """Per distinct query word, count the sentence tokens equal to it or whose
    gloss mentions it, capped at the word's query count."""
    query_tokens = tokenize_reference(query)
    sentence_tokens = tokenize_reference(sentence)
    if not query_tokens and not sentence_tokens:
        return 0.0
    common = 0
    for word, q_count in Counter(query_tokens).items():
        matched = sum(
            1 for s_word in sentence_tokens
            if s_word == word or word in gloss_tokens_reference(gloss_dict, s_word, GLOSS_SENTENCES)
        )
        common += min(matched, q_count)
    return min(max(2.0 * common / (len(query_tokens) + len(sentence_tokens)), 0.0), 1.0)


def feature_cosine_reference(query: str, sentence: str, vocab) -> float:
    query_tokens, sentence_tokens = tokenize_reference(query), tokenize_reference(sentence)
    return cosine(tfidf_reference(vocab, query_tokens), tfidf_reference(vocab, sentence_tokens))


def task1_features_reference(query: str, sentence: str, vocab, gloss_dict, noun_lex) -> np.ndarray:
    return np.array([
        feature_exact_reference(query, sentence),
        feature_stemmed_reference(query, sentence),
        feature_noun_reference(query, sentence, noun_lex),
        feature_neighborhood_reference(query, sentence, gloss_dict),
        feature_cosine_reference(query, sentence, vocab),
    ])


def task2_features_reference(sentence: str, relevance_flag: bool, vocab, sent_lex) -> np.ndarray:
    return task2_tokens_reference(tokenize_reference(sentence), relevance_flag, vocab, sent_lex)


def task2_tokens_reference(tokens: list[str], relevance_flag: bool, vocab, sent_lex) -> np.ndarray:
    """The dense task-2 row of one token list: each term's TF-IDF weight at its
    column, then the counts of the three polarities and the flag."""
    block = np.zeros(len(vocab.terms) + 4)
    for i, weight in tfidf_reference(vocab, tokens).items():
        block[i] = weight
    counts = Counter(polarity_reference(sent_lex, t) for t in tokens)
    block[-4:] = (
        counts[Polarity.POSITIVE], counts[Polarity.NEGATIVE], counts[Polarity.NEUTRAL],
        1.0 if relevance_flag else 0.0,
    )
    return block


def idf_reference(sentences: list[list[str]], words: list[str]) -> list[float]:
    """Each word's IDF over ``sentences``, token lists in which a repeated sentence
    counts again: ln(n / df), df the number of sentences that hold the word, and
    0.0 for a word that no sentence holds."""
    n = len(sentences)
    idf = []
    for word in words:
        df = 0
        for tokens in sentences:
            df += word in tokens
        idf.append(math.log(n / df) if df else 0.0)
    return idf


def word_table_reference(texts) -> tuple[list[str], dict[str, int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``WordTable.of``'s fields ``types``, ``index``, ``type``, ``count``, ``length``
    and ``sizes`` of ``texts``, counted a text at a time: a ``Counter`` per text
    gives its entries in the order its words first appear, and each word's id is
    the number of words met before it in those entries, text after text."""
    counts = list(map(Counter, texts))
    index = {}
    ids = [index.setdefault(word, len(index)) for word in itertools.chain.from_iterable(counts)]
    return (list(index), index, np.fromiter(ids, np.intp, len(ids)),
            np.fromiter(itertools.chain.from_iterable(map(Counter.values, counts)), np.intp, len(ids)),
            np.fromiter(map(len, texts), np.intp, len(texts)), np.fromiter(map(len, counts), np.intp, len(counts)))


def _kernel_formula(cfg, dots: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """The kernel matrix of rows a_i and b_j from their dot products and squared
    norms: a.b, (gamma a.b + coef0)^degree, or exp(-gamma |a - b|^2) with
    |a - b|^2 = |a|^2 + |b|^2 - 2 a.b clamped at 0."""
    if cfg.kind == "linear":
        return dots
    if cfg.kind == "poly":
        return (cfg.gamma * dots + cfg.coef0) ** cfg.degree
    sq = a_sq[:, None] + b_sq[None, :] - 2.0 * dots
    with np.errstate(over="ignore"):  # an exponent beyond the float range is -inf, whose exp is exactly 0
        return np.exp(-cfg.gamma * np.maximum(sq, 0.0))


def dense_gram(cfg, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The kernel matrix K[i, j] = k(a[i], b[j]) of dense rows, by the kernel
    formulas over the matrix product a @ b.T."""
    return _kernel_formula(cfg, a @ b.T, np.sum(a * a, axis=1), np.sum(b * b, axis=1))


def dual_objective(model, cfg) -> float:
    """Value of a trained machine's dual, sum(alpha) - 1/2 * coef' K coef, over
    its support vectors (every other alpha is 0), K their ``dense_gram``."""
    coef, sv = model.dual_coefs, model.support_vectors
    return float(np.sum(np.abs(coef)) - 0.5 * coef @ dense_gram(cfg, sv, sv) @ coef)


def _chunk_kernels(model, rows: np.ndarray, chunk_rows: int):
    """Each chunk of ``chunk_rows`` dense ``rows``, its start and its kernel matrix
    against the pool, computed over the columns in which some row of the chunk is
    not zero: the chunk's columns gathered by ``chunk[:, used]`` and the pool's from
    its dense matrix, RBF reading the pool's squared norms summed over its dense rows."""
    pool, cfg = model.pool, model.kernel
    dense = pool.to_dense()
    pool_sq = np.sum(dense * dense, axis=1)
    for start in range(0, len(rows), chunk_rows):
        chunk = rows[start:start + chunk_rows]
        used = np.flatnonzero(chunk.any(axis=0))
        a, b = chunk[:, used], dense[:, used]
        yield start, _kernel_formula(cfg, a @ b.T, np.sum(a * a, axis=1), pool_sq)


def decision_values_reference(model, rows: np.ndarray, chunk_rows: int) -> np.ndarray:
    """(rows, machines) decision values of dense ``rows`` by dense kernel matrices:
    ``chunk_rows`` rows at a time, each chunk's kernel against the pool over the
    columns some row of the chunk uses (``_chunk_kernels``), each machine reading
    its columns of it. This is how prediction computed them before it split the
    pool's columns; its sums run in another order, so the two agree within
    ``decision_tolerance``, not bit for bit."""
    values = np.empty((len(rows), len(model.machines)))
    for start, kernel in _chunk_kernels(model, rows, chunk_rows):
        for k, machine in enumerate(model.machines):
            values[start:start + len(kernel), k] = kernel[:, machine.sv_index] @ machine.dual_coefs + machine.bias
    return values


def decision_tolerance(model, rows: np.ndarray) -> np.ndarray:
    """(rows, machines) bound on a decision value's rounding: 1e-12 times
    sum_i |coef_i * K(sv_i, x)| + |bias|, the size of the terms it adds."""
    bound = np.empty((len(rows), len(model.machines)))
    for start, kernel in _chunk_kernels(model, rows, max(len(rows), 1)):
        for k, machine in enumerate(model.machines):
            bound[:, k] = np.abs(kernel[:, machine.sv_index] * machine.dual_coefs).sum(axis=1) + abs(machine.bias)
    return 1e-12 * bound


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


def smo_reference(gram: np.ndarray, y: np.ndarray, cfg) -> tuple[np.ndarray, float, float, int]:
    """The SMO loop as written before its state was kept in place: every
    iteration recomputes -y*G, the I_up / I_low masks and every temporary
    over all n rows. Same WSS2 choice, box step, stop rule and bias rule.
    Returns the alphas, the bias, the final gap and the number of pair
    updates made."""
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
    return alpha, bias, float(m - big_m), step


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


def kernel_eval(cfg, u, v) -> float:
    """Kernel value of one pair of vectors, by its formula."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if cfg.kind == "linear":
        return float(np.dot(u, v))
    if cfg.kind == "poly":
        return float((cfg.gamma * np.dot(u, v) + cfg.coef0) ** cfg.degree)
    diff = u - v
    return float(np.exp(-cfg.gamma * np.dot(diff, diff)))


def ovo_reference(model, x) -> tuple[str, list[float]]:
    """One-vs-one label and per-machine decision values of one row, by loops.

    Each support vector is rebuilt from the pool's CSR fields, each
    machine sums coef * kernel_eval(sv, x) + bias, machine k decides the
    k-th pair (negative, positive) of the sorted labels, and the vote counts
    wins, breaks ties on the summed |decision| of the tied labels and
    then on the earliest label.
    """
    pool = model.pool

    def support_vector(row):
        dense = [0.0] * pool.dims
        for k in range(pool.indptr[row], pool.indptr[row + 1]):
            dense[pool.indices[k]] = pool.values[k]
        return dense

    values = []
    votes = {label: 0 for label in model.labels}
    margins = {label: 0.0 for label in model.labels}
    pairs = itertools.combinations(sorted(model.labels), 2)
    for machine, (negative, positive) in zip(model.machines, pairs, strict=True):
        value = machine.bias
        for row, coef in zip(machine.sv_index, machine.dual_coefs):
            value += coef * kernel_eval(model.kernel, support_vector(row), x)
        values.append(value)
        winner = positive if value >= 0.0 else negative
        votes[winner] += 1
        margins[winner] += abs(value)
    tied = [label for label in sorted(model.labels) if votes[label] == max(votes.values())]
    best = max(margins[label] for label in tied)
    return next(label for label in tied if margins[label] == best), values


def words_of_front_coded(coded: dict) -> list[str]:
    """The words of a front-coded list as a model file stores it: word i is the
    first ``prefix[i]`` characters of word i - 1, then ``suffix[i]``."""
    words, word = [], ""
    for shared, rest in zip(coded["prefix"], coded["suffix"]):
        word = word[:shared] + rest
        words.append(word)
    return words


def front_coded_reference(words: list[str]) -> dict:
    """``words`` front-coded, each with the longest prefix it shares with the word before it."""
    prefix, before = [], ""
    for word in words:
        shared = 0
        while shared < min(len(word), len(before)) and word[shared] == before[shared]:
            shared += 1
        prefix.append(shared)
        before = word
    return {"prefix": prefix, "suffix": [word[shared:] for word, shared in zip(words, prefix)]}


def columns_of_gaps(pool: dict) -> list[int]:
    """The columns of a pool document whose ``indices`` are gaps within each row."""
    columns = []
    for start, end in zip(pool["indptr"], pool["indptr"][1:]):
        columns += itertools.accumulate(pool["indices"][start:end])
    return columns


def gaps_of_columns(pool: dict, columns: list[int]) -> list[int]:
    """``columns`` of a pool document as gaps within each row of its ``indptr``."""
    gaps = []
    for start, end in zip(pool["indptr"], pool["indptr"][1:]):
        row = columns[start:end]
        gaps += [column - before for column, before in zip(row, [0] + row[:-1])]
    return gaps
