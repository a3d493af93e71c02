"""Independent brute-force reference implementations used as test oracles.

Everything here is written for clarity, not speed, and deliberately avoids
the code paths used by the package: pair counting by explicit double loops,
dense linear algebra by plain solves, n-gram metrics by direct enumeration.
The per-pair text metrics are the package's first scalar forms: `Counter`
n-gram overlap per segment and the O(|a|·|b|) LCS table.  The boosted-tree references are the direct forms of the package's faster
searches: a split scan one feature at a time, trees grown node by node on
it, and cross-validation that trains a separate model for every ensemble
size and every fold.  The score-file loaders are
the package's first row-by-row forms: every value parsed and checked on its
own, in reading order, so their errors name the first bad line and column.
The harness reference is its first dict form: cells keyed by (system,
segment), per-system score lists, and acc-t by a loop over system pairs.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from operator import itemgetter

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


def kernel_matrix_direct(a, b, lengthscale: float) -> np.ndarray:
    """Matern-5/2 block from direct differences, in the expression order the
    GP used for its kernel matrix before the shared in-place helper."""
    diff = a[:, None, :] - b[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=2))
    r = math.sqrt(5.0) * d / lengthscale
    return (1.0 + r + r * r / 3.0) * np.exp(-r)


def kernel_matrix_expanded(a, b, lengthscale: float) -> np.ndarray:
    """Matern-5/2 block from the expanded square |a|^2 + |b|^2 - 2 a.b, in the
    expression order the GP used for its candidate block before the shared
    in-place helper."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    d = np.sqrt(np.clip(sq, 0.0, None))
    r = math.sqrt(5.0) * d / lengthscale
    return (1.0 + r + r * r / 3.0) * np.exp(-r)


def _matern52_fixed_order(sq, lengthscale: float) -> np.ndarray:
    """Matern-5/2 values from squared distances, written out in the GP's
    fixed operation order: quad = r^2 / 3 and decay = -r from the clamped
    square, then (1 - decay + quad) * exp(decay)."""
    sq = np.maximum(sq, 0.0)
    quad = sq * (5.0 / (3.0 * lengthscale * lengthscale))
    decay = np.sqrt(sq) * (-math.sqrt(5.0) / lengthscale)
    return ((1.0 - decay) + quad) * np.exp(decay)


def gram_matrix_fixed_order(points, lengthscale: float) -> np.ndarray:
    """The GP's Gram matrix: direct differences, then the fixed order."""
    diff = points[:, None, :] - points[None, :, :]
    return _matern52_fixed_order(np.sum(diff * diff, axis=2), lengthscale)


def cross_kernel_gemm(a, b, lengthscale: float) -> np.ndarray:
    """The GP's candidate block: the squared distances as one product of
    augmented rows, [a, |a|^2, 1] @ [-2b, 1, |b|^2].T, then the fixed order."""
    left = np.column_stack([a, np.einsum("ij,ij->i", a, a), np.ones(len(a))])
    right = np.column_stack([-2.0 * b, np.ones(len(b)), np.einsum("ij,ij->i", b, b)])
    return _matern52_fixed_order(left @ right.T, lengthscale)


def dense_ucb(W, rho, lengthscale: float, jitter: float, queries, kappa: float) -> np.ndarray:
    """UCB values at `queries` from the expanded-square candidate block and a
    dense posterior solve, with the surrogate's standardization."""
    rho = np.asarray(rho, dtype=float)
    mean, scale = rho.mean(), rho.std()
    if scale == 0.0:
        scale = 1.0
    A = kernel_matrix_direct(W, W, lengthscale) + jitter * np.eye(len(rho))
    cross = kernel_matrix_expanded(W, queries, lengthscale)
    post_mean = mean + scale * (cross.T @ _dense_solve(A, (rho - mean) / scale))
    var = 1.0 - np.sum(cross * _dense_solve(A, cross), axis=0)
    return post_mean + kappa * scale * np.sqrt(np.clip(var, 0.0, None))


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


def ngram_overlap(hyp, ref, n: int) -> tuple[int, int, int]:
    """Clipped n-gram matches of `hyp` in `ref` (each n-gram counts at most
    as often as `ref` has it), and the n-gram totals of `hyp` and `ref`."""
    hyp_counts, ref_counts = (
        Counter(tuple(items[i : i + n]) for i in range(len(items) - n + 1)) for items in (hyp, ref)
    )
    matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    return matched, max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0)


def bleu_pair(hypothesis: str, reference: str, max_n: int = 4) -> float:
    hyp = hypothesis.split()
    ref = reference.split()
    if not hyp:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matched, total, _ = ngram_overlap(hyp, ref, n)
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        else:
            precision = (matched + 1.0) / (total + 1.0)
        log_sum += math.log(precision)
    if len(hyp) >= len(ref):
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - len(ref) / len(hyp))
    return brevity * math.exp(log_sum / max_n)


def _left_to_right_mean(values: list[float]) -> float:
    """Mean with the sum added left to right (Python 3.12's `sum` would
    compensate, and the metric's figures predate that)."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def chrf_pair(hypothesis: str, reference: str, char_n: int = 6, beta: float = 2.0) -> float:
    hyp = "".join(hypothesis.split())
    ref = "".join(reference.split())
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    precisions = []
    recalls = []
    for n in range(1, char_n + 1):
        matched, hyp_total, ref_total = ngram_overlap(hyp, ref, n)
        if hyp_total > 0:
            precisions.append(matched / hyp_total)
        if ref_total > 0:
            recalls.append(matched / ref_total)
    avg_p = _left_to_right_mean(precisions)
    avg_r = _left_to_right_mean(recalls)
    denom = beta * beta * avg_p + avg_r
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * avg_p * avg_r / denom


def rouge_n_pair(hypothesis: str, reference: str, n: int) -> float:
    matched, hyp_total, ref_total = ngram_overlap(hypothesis.split(), reference.split(), n)
    if hyp_total == 0 and ref_total == 0:
        return 1.0
    if hyp_total == 0 or ref_total == 0:
        return 0.0
    precision = matched / hyp_total
    recall = matched / ref_total
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def lcs_table(a, b) -> int:
    """LCS length by the O(|a|·|b|) dynamic-programming table."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for token in a:
        cur = [0] * (len(b) + 1)
        for j, other in enumerate(b, start=1):
            if token == other:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l_pair(hypothesis: str, reference: str) -> float:
    hyp = hypothesis.split()
    ref = reference.split()
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    lcs = lcs_table(hyp, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(hyp)
    recall = lcs / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def per_feature_best_split(x, grad, hess, idx, reg_lambda, gamma):
    """Exact greedy split search scanning one feature at a time over the rows
    `idx`, in that order: (gain, feature, threshold, left rows, right rows),
    the first maximum within a feature, a strictly better gain to move to a
    later feature, None when no feature varies.  Each side keeps the rows in
    their stable order on the feature.
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


def per_node_tree(x, grad, hess, reg_lambda, gamma, max_depth):
    """The tree grown node by node, depth first, each split found by
    `per_feature_best_split` on the node's rows in their order, and the
    tree's output on each row; a node's totals are `.sum()` of its rows."""
    from metacal.gbt import Tree

    out = np.empty(x.shape[0], dtype=np.float64)

    def visit(node):
        idx, depth = node
        g = float(grad[idx].sum())
        h = float(hess[idx].sum())
        found = None
        if depth < max_depth and idx.size >= 2:
            found = per_feature_best_split(x, grad, hess, idx, reg_lambda, gamma)
        if found is None or found[0] <= 0.0:
            value = -g / (h + reg_lambda) if h + reg_lambda > 0 else 0.0
            out[idx] = value
            return (value,)
        gain, feature, threshold, left, right = found
        return feature, threshold, gain, (left, depth + 1), (right, depth + 1)

    return Tree.grow((np.arange(x.shape[0]), 0), visit), out


def per_node_train(features, target, config, n_estimators):
    """`gbt_train` boosting one `per_node_tree` at a time."""
    from metacal import gbt

    x = gbt._as_features(features)
    target = gbt._as_target(target)
    gbt._check_fit(x.shape, target, config, n_estimators)
    preds = np.full(x.shape[0], gbt._BASE_SCORE, dtype=np.float64)
    trees = []
    for _ in range(n_estimators):
        if target.z is None:
            grad, hess = gbt._pairwise_grad_hess(preds)
        else:
            grad, hess = gbt._regression_grad_hess(config.loss, preds, target.z)
        tree, tree_preds = per_node_tree(x, grad, hess, config.reg_lambda, config.gamma, config.max_depth)
        trees.append(tree)
        preds += config.learning_rate * tree_preds
        if config.loss is gbt.GbtLoss.SQUARED_LOG_ERROR:
            np.maximum(preds, gbt._SLE_FLOOR, out=preds)
    return gbt.TreeEnsemble(tuple(trees), gbt._BASE_SCORE, config.learning_rate)


def retrain_cv_curve(features, target, objective, config, sizes):
    """Mean held-out objective per ensemble size, training a fresh
    `per_node_train` model of each size on each fold and predicting with
    `TreeEnsemble.predict`.

    Pointwise folds are the sorted chunks of one permutation of the rows;
    pairwise folds keep each group's pairs together, and a fold's pairs are
    sliced out of the stacked rows here (chosen 2i, rejected 2i + 1)."""
    from metacal import gbt
    from metacal.core import PreferenceTarget, TargetKind
    from metacal.objectives import pairwise_accuracy, score_or_worst

    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    pairwise = isinstance(target, PreferenceTarget) and target.kind is TargetKind.PAIRWISE
    curve = []
    for n_estimators in sizes:
        rng = np.random.default_rng(config.seed)
        values = []
        if pairwise:
            groups = [pair.group_id for pair in target.pairwise]
            for hold in gbt._group_folds(groups, config.cv_folds, rng):
                keep = np.setdiff1d(np.arange(len(groups)), hold)
                rows = np.sort(np.concatenate([2 * keep, 2 * keep + 1]))
                kept = PreferenceTarget.from_pairs(target.pairwise[i] for i in keep)
                preds = per_node_train(x[rows], kept, config, n_estimators).predict(x)
                values.append(pairwise_accuracy(preds[2 * hold], preds[2 * hold + 1]))
        else:
            y = np.asarray(target.z if isinstance(target, PreferenceTarget) else target, float)
            for chunk in np.array_split(rng.permutation(x.shape[0]), config.cv_folds):
                hold = np.sort(chunk)
                keep = np.setdiff1d(np.arange(x.shape[0]), hold)
                preds = per_node_train(x[keep], y[keep], config, n_estimators).predict(x[hold])
                values.append(score_or_worst(objective, preds, y[hold]))
        curve.append(float(np.mean(values)))
    return curve


def dict_grouping(examples):
    """dataset -> (system, segment) -> (metric, human), cells in row order."""
    groups = {}
    for (dataset, system, segment), metric, human in examples:
        cells = groups.setdefault(dataset, {})
        assert (system, segment) not in cells
        cells[system, segment] = (float(metric), float(human))
    return groups


def dict_system_means(cells):
    """Per-system mean metric and human scores, systems in sorted order."""
    per_system = {}
    for (system, _), scores in cells.items():
        per_system.setdefault(system, []).append(scores)
    systems = sorted(per_system)
    metric = np.asarray([np.mean([s[0] for s in per_system[name]]) for name in systems])
    human = np.asarray([np.mean([s[1] for s in per_system[name]]) for name in systems])
    return metric, human


def dict_sys_pearson(cells):
    from metacal.objectives import pearson_r

    return pearson_r(*dict_system_means(cells))


def dict_seg_pearson(cells):
    from metacal.objectives import pearson_r

    keys = sorted(cells)
    return pearson_r(np.asarray([cells[k][0] for k in keys]), np.asarray([cells[k][1] for k in keys]))


def loop_acc_t(cells, tie_policy="strict"):
    """acc-t by visiting every system pair; raises ZeroDivisionError when
    every pair ties on human means."""
    metric, human = dict_system_means(cells)
    rankable = 0
    credit = 0.0
    for i in range(metric.size):
        for j in range(i + 1, metric.size):
            dh = human[i] - human[j]
            if dh == 0.0:
                continue
            rankable += 1
            dm = metric[i] - metric[j]
            if dm == 0.0:
                credit += 0.5 if tie_policy == "half" else 0.0
            elif (dh > 0.0) == (dm > 0.0):
                credit += 1.0
    return credit / rankable


def dict_avg_corr(groups, tie_policy="strict"):
    """Unweighted mean of every dataset's (sys, seg, acc-t) triple."""
    return float(np.mean([
        value for cells in groups.values()
        for value in (dict_sys_pearson(cells), dict_seg_pearson(cells), loop_acc_t(cells, tie_policy))
    ]))


def row_read_table(path, columns, parse):
    """The row-by-row CSV table reader: (ids, parse(line, fields) per row,
    human z or None), checking each row, then each value, as it is read."""
    from metacal.core import ExampleId
    from metacal.io import HUMAN_COLUMN, ID_COLUMNS, HeaderMismatch, ParseError, _parse_value

    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(1, "empty file")
            used = [*ID_COLUMNS, *columns]
            missing = [c for c in used if c not in header]
            if missing:
                raise HeaderMismatch(f"missing columns: {', '.join(missing)}")
            has_human = HUMAN_COLUMN in header
            if has_human:
                used.append(HUMAN_COLUMN)
            repeated = [c for c in used if header.count(c) > 1]
            if repeated:
                raise HeaderMismatch(f"repeated columns: {', '.join(repeated)}")
            pick = itemgetter(*(header.index(c) for c in used))
            end = len(ID_COLUMNS) + len(columns)
            ids, rows, zs = [], [], []
            for line, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != len(header):
                    raise ParseError(line, f"{len(record)} fields, header has {len(header)}")
                fields = pick(record)
                ids.append(ExampleId(fields[0], fields[1], fields[2]))
                rows.append(parse(line, fields[3:end]))
                if has_human:
                    zs.append(_parse_value(fields[end], line, HUMAN_COLUMN))
        except csv.Error as exc:
            raise ParseError(reader.line_num, str(exc)) from exc
    return ids, rows, (zs if has_human else None)


def row_load_scores_csv(path, names):
    """(ids, values as a list of rows, z or None) of a score table."""
    from metacal.io import _parse_value

    return row_read_table(
        path, names, lambda line, fields: [_parse_value(v, line, m) for v, m in zip(fields, names)]
    )


def row_load_scores_jsonl(path, names):
    """(ids, values as a list of rows, [(group, category)]) of a pairwise
    JSONL file, checking each record, then each value, as it is read."""
    from metacal.core import ExampleId
    from metacal.io import (
        HeaderMismatch, ParseError, _json_number, _json_str, _parse_json, _parse_value,
    )

    pairs, ids, rows = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            record = _parse_json(raw, lambda reason: ParseError(line, reason))
            if not isinstance(record, dict) or "chosen" not in record or "rejected" not in record:
                raise ParseError(line, "record needs 'chosen' and 'rejected' objects")
            try:
                group = _json_str(record["group"], "group") if "group" in record else str(line - 1)
                category = _json_str(record.get("category", "-"), "category")
                for side in ("chosen", "rejected"):
                    scores = record[side]
                    if not isinstance(scores, dict):
                        raise ParseError(line, f"{side!r} must be an object of metric scores")
                    missing = [m for m in names if m not in scores]
                    if missing:
                        raise HeaderMismatch(
                            f"line {line}: {side} record missing metrics: {', '.join(missing)}"
                        )
                    rows.append([_parse_value(_json_number(scores[m], m), line, m) for m in names])
                    ids.append(ExampleId("-", group, f"{len(pairs)}:{side}"))
            except TypeError as exc:
                raise ParseError(line, str(exc)) from None
            pairs.append((group, category))
    if not pairs:
        raise ParseError(1, "no pairwise records")
    return ids, rows, pairs


def compact_json(obj) -> str:
    """One JSONL record as the package first wrote it: ", " and ": "
    separators, floats with 17 significant digits, strings as `json.dumps`."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {compact_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, float):
        return format(obj, ".17g")
    return json.dumps(obj)
