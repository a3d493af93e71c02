"""Independent brute-force reference implementations used as test oracles.

Everything here is written for clarity, not speed, and deliberately avoids
the code paths used by the package: pair counting by explicit double loops,
dense linear algebra by plain solves, n-gram metrics by direct enumeration.
The boosted-tree references are the direct forms of the package's faster
searches: a split scan one feature at a time, and cross-validation that
trains a separate model for every ensemble size.
"""

from __future__ import annotations

import math

import numpy as np


def naive_kendall_tau(a, b) -> float:
    """Tau-b by O(n^2) enumeration of concordant/discordant/tied pairs."""
    a = list(map(float, a))
    b = list(map(float, b))
    n = len(a)
    concordant = discordant = tied_a_only = tied_b_only = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = a[i] - a[j]
            db = b[i] - b[j]
            if da == 0 and db == 0:
                continue
            elif da == 0:
                tied_a_only += 1
            elif db == 0:
                tied_b_only += 1
            elif (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
    denom_a = concordant + discordant + tied_b_only
    denom_b = concordant + discordant + tied_a_only
    return (concordant - discordant) / math.sqrt(denom_a * denom_b)


def naive_ranks(values) -> list[float]:
    """Mid-ranks via a direct definition: 1 + count(smaller) + (count(equal)-1)/2."""
    out = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(1.0 + smaller + (equal - 1) / 2.0)
    return out


def naive_pearson(a, b) -> float:
    a = list(map(float, a))
    b = list(map(float, b))
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)


def naive_spearman(a, b) -> float:
    return naive_pearson(naive_ranks(a), naive_ranks(b))


def naive_pairwise_accuracy(pairs) -> float:
    credit = 0.0
    total = 0
    for chosen, rejected in pairs:
        total += 1
        if chosen > rejected:
            credit += 1.0
        elif chosen == rejected:
            credit += 0.5
    return credit / total


def loop_midranks(values) -> np.ndarray:
    """Mid-ranks by a Python loop over the runs of equal sorted values, each
    run getting 0.5 * (start + end - 1) + 1: the same arithmetic as the
    package's vectorized `_midranks`, so results must match exactly."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(values.size, dtype=np.float64)
    boundaries = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [values.size]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + e - 1) + 1.0
    return ranks


def tie_pair_count(sorted_values) -> int:
    """Sum of t*(t-1)/2 over runs of equal values in a sorted array."""
    n = sorted_values.size
    boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
    run_ends = np.concatenate([boundaries + 1, [n]])
    run_starts = np.concatenate([[0], boundaries + 1])
    runs = run_ends - run_starts
    return int(np.sum(runs * (runs - 1) // 2))


def table_kendall_tau(a, b) -> float:
    """Tau-b of two lists with few distinct values, for large n.

    Concordant and discordant pairs are counted exactly from 2-D cumulative
    sums over the contingency table of value ranks, tied pairs by
    `tie_pair_count`; the final division is the package's, so results must
    match exactly.  The table has one cell per pair of distinct values."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    n = x.size
    xs, xi = np.unique(x, return_inverse=True)
    ys, yi = np.unique(y, return_inverse=True)
    table = np.zeros((xs.size, ys.size), dtype=np.int64)
    np.add.at(table, (xi, yi), 1)
    # below[i, j]: elements whose x rank is below i and y rank below j.
    below = np.zeros((xs.size + 1, ys.size + 1), dtype=np.int64)
    below[1:, 1:] = table.cumsum(axis=0).cumsum(axis=1)
    concordant = int(np.sum(table * below[:-1, :-1]))
    discordant = int(np.sum(table * (below[:-1, -1:] - below[:-1, 1:])))
    total = n * (n - 1) // 2
    ties_x = tie_pair_count(np.sort(x))
    ties_y = tie_pair_count(np.sort(y))
    tau = (concordant - discordant) / math.sqrt(float(total - ties_x) * float(total - ties_y))
    return min(1.0, max(-1.0, tau))


def matern52_scalar(a, b, lengthscale: float) -> float:
    d = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    r = math.sqrt(5.0) * d / lengthscale
    return (1.0 + r + r * r / 3.0) * math.exp(-r)


def _dense_solve(A, b):
    # LU solve plus one iterative-refinement step: near-duplicate observation
    # points push the kernel condition number to ~1e6, where raw LU round-off
    # alone would exceed the 1e-8 agreement budget.  Refinement keeps the
    # oracle testing the mathematics rather than LAPACK rounding.
    x = np.linalg.solve(A, b)
    return x + np.linalg.solve(A, b - A @ x)


def gp_dense_oracle(W, rho, lengthscale, jitter, query):
    """Posterior mean/std by a plain dense solve, mirroring the contract's
    standardization convention (population std, zero fallback to 1)."""
    W = np.asarray(W, dtype=float)
    rho = np.asarray(rho, dtype=float)
    mean = rho.mean()
    scale = rho.std()
    if scale == 0.0:
        scale = 1.0
    ys = (rho - mean) / scale
    n = rho.size
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = matern52_scalar(W[i], W[j], lengthscale)
    A = K + jitter * np.eye(n)
    q = np.array([matern52_scalar(W[i], query, lengthscale) for i in range(n)])
    post_mean = mean + scale * (q @ _dense_solve(A, ys))
    var = matern52_scalar(query, query, lengthscale) - q @ _dense_solve(A, q)
    return post_mean, scale * math.sqrt(max(var, 0.0))


def char_ngrams(text: str, n: int) -> list[str]:
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def clipped_matches(hyp_grams: list, ref_grams: list) -> int:
    remaining = list(ref_grams)
    matched = 0
    for gram in hyp_grams:
        if gram in remaining:
            remaining.remove(gram)
            matched += 1
    return matched


def naive_chrf(hypothesis: str, reference: str, char_n: int = 6, beta: float = 2.0) -> float:
    hyp = "".join(hypothesis.split())
    ref = "".join(reference.split())
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    precisions = []
    recalls = []
    for n in range(1, char_n + 1):
        hg = char_ngrams(hyp, n)
        rg = char_ngrams(ref, n)
        matched = clipped_matches(hg, rg)
        if hg:
            precisions.append(matched / len(hg))
        if rg:
            recalls.append(matched / len(rg))
    p = sum(precisions) / len(precisions) if precisions else 0.0
    r = sum(recalls) / len(recalls) if recalls else 0.0
    if beta * beta * p + r == 0:
        return 0.0
    return (1 + beta * beta) * p * r / (beta * beta * p + r)


def lcs_recursive(a: tuple, b: tuple, memo=None) -> int:
    if memo is None:
        memo = {}
    key = (len(a), len(b))
    if key in memo:
        return memo[key]
    if not a or not b:
        result = 0
    elif a[-1] == b[-1]:
        result = 1 + lcs_recursive(a[:-1], b[:-1], memo)
    else:
        result = max(lcs_recursive(a[:-1], b, memo), lcs_recursive(a, b[:-1], memo))
    memo[key] = result
    return result


def per_feature_best_split(x, grad, hess, idx, reg_lambda, gamma):
    """Exact greedy split search scanning one feature at a time.

    Same contract as `metacal.gbt._best_split`: (gain, feature, threshold,
    left rows, right rows), the first maximum within a feature, a strictly
    better gain to move to a later feature, None when no feature varies.
    """
    g_total = float(grad[idx].sum())
    h_total = float(hess[idx].sum())
    parent = g_total * g_total / (h_total + reg_lambda) if h_total + reg_lambda > 0 else 0.0
    best = None
    for feature in range(x.shape[1]):
        col = x[idx, feature]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        boundaries = np.flatnonzero(xs[1:] > xs[:-1])
        if boundaries.size == 0:
            continue
        gl = np.cumsum(grad[idx][order])[boundaries]
        hl = np.cumsum(hess[idx][order])[boundaries]
        gr = g_total - gl
        hr = h_total - hl
        dl = hl + reg_lambda
        dr = hr + reg_lambda
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (gl * gl / dl + gr * gr / dr - parent) - gamma
        gains[(dl <= 0) | (dr <= 0)] = -np.inf
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if best is not None and gain <= best[0]:
            continue
        b = boundaries[pos]
        lo, hi = float(xs[b]), float(xs[b + 1])
        threshold = 0.5 * (lo + hi)
        if not lo < threshold <= hi:
            threshold = hi
        best = (gain, feature, threshold, idx[order[: b + 1]], idx[order[b + 1 :]])
    return best


def retrain_cv_curve(features, target, objective, config, sizes):
    """Mean held-out objective per ensemble size, training a fresh model of
    each size on each fold and predicting with `TreeEnsemble.predict`."""
    from metacal import gbt
    from metacal.objectives import pairwise_accuracy, score_or_worst

    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    curve = []
    for n_estimators in sizes:
        rng = np.random.default_rng(config.seed)
        values = []
        if isinstance(target, gbt.RankingPairs):
            for hold in gbt._group_folds(target.groups, config.cv_folds, rng):
                keep = np.setdiff1d(np.arange(target.n_pairs), hold)
                train_x, train_pairs = gbt._subset_pairs(x, target, keep)
                preds = gbt.gbt_train(train_x, train_pairs, config, n_estimators).predict(x)
                values.append(
                    pairwise_accuracy(preds[target.chosen[hold]], preds[target.rejected[hold]])
                )
        else:
            y = np.asarray(target, dtype=np.float64).ravel()
            for hold in gbt._pointwise_folds(x.shape[0], config.cv_folds, rng):
                keep = np.setdiff1d(np.arange(x.shape[0]), hold)
                preds = gbt.gbt_train(x[keep], y[keep], config, n_estimators).predict(x[hold])
                values.append(score_or_worst(objective, preds, y[hold]))
        curve.append(float(np.mean(values)))
    return curve
