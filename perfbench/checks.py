"""Output checks made apart from homopart.

Each check recomputes what an output claims from the raw data with
plain numpy (no homopart code), or tests a property the method must
have, and returns a list of error strings; an empty list means the
output passed. Nothing here compares against stored copies of earlier
output, and nothing assumes a particular block structure: any
partition the method may return has to pass.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


# --- raw data -------------------------------------------------------------


def unpack_words(words, n: int) -> np.ndarray:
    """Decode little-endian uint64 bit rows into a bool array of width n."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    shift = np.arange(n, dtype=np.uint64) % np.uint64(64)
    word = words[..., np.arange(n) // 64]
    return ((word >> shift) & np.uint64(1)).astype(bool)


def _data_lines(path):
    with open(path) as handle:
        lines = [line.strip() for line in handle]
    return [line for line in lines if line and not line.startswith("#")]


def parse_khg(path) -> np.ndarray:
    """Dense bool tensor of a .khg file."""
    lines = _data_lines(path)
    sizes = tuple(int(v) for v in lines[0].split()[2:])
    tensor = np.zeros(sizes, dtype=bool)
    if len(lines) > 1:
        edges = np.array([line.split() for line in lines[1:]], dtype=np.int64)
        tensor[tuple(edges.T)] = True
    return tensor


def parse_w3g(path) -> np.ndarray:
    """Dense float64 weight tensor of a .w3g file."""
    lines = _data_lines(path)
    sizes = tuple(int(v) for v in lines[0].split()[1:])
    weights = np.zeros(sizes, dtype=np.float64)
    if len(lines) > 1:
        rows = [line.split() for line in lines[1:]]
        cells = np.array([row[:3] for row in rows], dtype=np.int64)
        weights[tuple(cells.T)] = [float(row[3]) for row in rows]
    return weights


def parse_part(path) -> list:
    """Label arrays, one per part, of a .part file."""
    lines = _data_lines(path)
    return [np.array(line.split(), dtype=np.int64) for line in lines[1:]]


# --- homogeneity audits and partitions ------------------------------------


def block_sums(tensor, labels) -> np.ndarray:
    """Weight sum of every block tuple, by one-hot contraction per axis."""
    sums = np.asarray(tensor, dtype=np.float64)
    for lab in labels:
        onehot = (lab[:, None] == np.arange(lab.max() + 1)[None, :])
        sums = np.tensordot(sums, onehot.astype(np.float64), axes=([0], [0]))
    return sums


def check_audit(tensor, labels, eps, report) -> list:
    """Recompute every audited density, the verdicts and the mass.

    ``tensor`` is the 0/1 input and ``labels`` the partition's label
    array per part. Sums of 0/1 cells are exact integers, so each
    density must equal the reported one exactly.
    """
    errors = []
    sums = block_sums(tensor, labels)
    volumes = functools.reduce(np.multiply.outer,
                               [np.bincount(lab) for lab in labels])
    audited = np.argwhere(volumes > 0)
    if report.labels.shape != audited.shape or not np.array_equal(
            report.labels, audited):
        return [f"audit lists {len(report.labels)} block tuples, "
                f"expected the {len(audited)} of non-zero volume"]
    index = tuple(audited.T)
    density = sums[index] / volumes[index]
    bad = np.flatnonzero(density != report.densities)
    if bad.size:
        i = bad[0]
        errors.append(f"{bad.size} densities differ, first at block tuple "
                      f"{tuple(audited[i])}: {report.densities[i]!r} "
                      f"reported, {density[i]!r} recomputed")
    ok = (density <= eps) | (density >= 1.0 - eps)
    if not np.array_equal(ok, report.ok):
        errors.append(f"{int((ok != report.ok).sum())} tuple verdicts differ")
    mass = int(volumes[index][~ok].sum())
    normalized = mass / tensor.size
    if mass != report.mass or normalized != report.normalized_mass:
        errors.append(f"mass {report.mass} ({report.normalized_mass!r}) "
                      f"reported, {mass} ({normalized!r}) recomputed")
    if (normalized <= eps + 1e-12) != report.passed:
        errors.append(f"verdict {report.passed} at normalized mass "
                      f"{normalized!r} and eps {eps}")
    return errors


def check_partition(partition, sizes, p, eps) -> list:
    """Labels cover every vertex; block count within 8kp/eps^2."""
    errors = []
    k = len(sizes)
    bound = 8.0 * k * p / eps**2
    for i, n in enumerate(sizes):
        part = partition[i]
        lab = np.asarray(part.labels)
        if lab.shape != (n,):
            errors.append(f"part {i} labels {lab.shape} vertices, expected {n}")
        elif lab.min() < 0 or lab.max() >= part.n_blocks:
            errors.append(f"part {i} labels outside 0..{part.n_blocks - 1}")
        if part.n_blocks > bound:
            errors.append(f"part {i} has {part.n_blocks} blocks, "
                          f"bound 8kp/eps^2 = {bound:.6g}")
    return errors


# --- VC dimension ----------------------------------------------------------


def vc_bitmask(rows, cap: int = 8) -> int:
    """VC dimension of the row sets over the columns, up to ``cap``.

    Each row is encoded as an integer over the columns; a column set
    S is shattered when the rows masked to S take all 2^|S| values.
    """
    rows = np.asarray(rows, dtype=bool)
    n_cols = rows.shape[1]
    codes = rows.astype(np.uint64) @ (np.uint64(1) << np.arange(
        n_cols, dtype=np.uint64))
    dim = 0
    for d in range(1, min(cap, n_cols) + 1):
        if rows.shape[0] < 2**d:
            break
        masks = np.array([sum(1 << c for c in combo) for combo in
                          itertools.combinations(range(n_cols), d)],
                         dtype=np.uint64)
        patterns = np.sort(masks[:, None] & codes[None, :], axis=1)
        distinct = 1 + (np.diff(patterns, axis=1) != 0).sum(axis=1)
        if not (distinct == 2**d).any():
            break
        dim = d
    return dim


def check_vc(tensor, result, cap: int = 8, blocks: int | None = None) -> list:
    """Per-part link VC maxima of a tripartite 0/1 tensor.

    With ``blocks`` (planted boxes with that many blocks per part), a
    link has at most ``blocks`` distinct rows, so its VC dimension is
    at most floor(log2 blocks).
    """
    errors = []
    dims = {}
    for part in range(3):
        best = 0
        for v in range(tensor.shape[part]):
            slab = np.take(tensor, v, axis=part)
            best = max(best, vc_bitmask(slab, cap), vc_bitmask(slab.T, cap))
        dims[part] = best
        if result[part] != best:
            errors.append(f"part {part}: VC {result[part]} reported, "
                          f"{best} recomputed")
    top = max(dims.values())
    if result["max"] != top or bool(result["at_cap"]) != (top >= cap):
        errors.append(f"max {result['max']} at_cap {result['at_cap']}, "
                      f"recomputed {top}")
    if blocks is not None and top > math.floor(math.log2(blocks)):
        errors.append(f"VC {top} above floor(log2 {blocks}) for planted boxes")
    return errors


# --- the tower -------------------------------------------------------------


def check_weights(weights, t: int) -> list:
    """Every cell is 0 or 2^-r, r the layer of its third-part vertex."""
    n = weights.shape[2]
    layer = np.arange(n) // (n // t) + 1
    allowed = (weights == 0.0) | (weights == 2.0 ** -layer[None, None, :])
    if allowed.all():
        return []
    bad = tuple(int(v) for v in np.argwhere(~allowed)[0])
    return [f"{int((~allowed).sum())} cells off their layer weight, first "
            f"{bad} = {weights[bad]!r}"]


def check_certificate(weights, cert, check) -> list:
    """A certificate verifies, within its claimed size.

    Exact kinds are re-verified here: the link must carry one weight
    per certified block pair. A quasirandom claim is checked one-sidedly
    by the program's sampled witness search; here it must have come
    back clean.
    """
    where = f"certificate {cert.kind} part {cert.part} vertex {cert.vertex}"
    if not check.ok:
        return [f"{where} did not verify"]
    n = weights.shape[0]
    left, right = (np.asarray(p.labels) for p in cert.partitions)
    if left.shape != (n,) or right.shape != (n,):
        return [f"{where} does not cover {n} vertices per side"]
    if max(left.max(), right.max()) + 1 > cert.size_bound:
        return [f"{where} has more blocks than its bound {cert.size_bound}"]
    if cert.kind == "quasirandom":
        return []
    link = np.take(weights, cert.vertex, axis=cert.part)
    n_right = right.max() + 1
    key = (left[:, None] * n_right + right[None, :]).ravel()
    sums = np.bincount(key, weights=link.ravel())
    counts = np.bincount(key)
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    if not np.array_equal(means[key], link.ravel()):
        return [f"{where}: link not constant on a certified block pair"]
    return []


def check_cascade(weights, level: int, t: int, report) -> list:
    """Ladder candidate ``level`` refines levels 1..level and fails at
    level + 1 with a witness whose boxes have density 2^-r and 0."""
    errors = []
    for entry in report.levels:
        r = entry.r
        if r <= level and entry.refines is not True:
            errors.append(f"candidate {level} does not refine level {r}")
        if r == level + 1:
            if entry.refines is not False or not entry.witnesses:
                errors.append(f"candidate {level} fails level {r} "
                              f"without a witness")
            for wit in entry.witnesses:
                full = weights[np.ix_(*wit.complete.subsets)]
                empty = weights[np.ix_(*wit.empty.subsets)]
                if not full.size or full.mean() != 2.0 ** -r:
                    errors.append(f"level {r} complete box density "
                                  f"{full.mean() if full.size else None!r}")
                if not empty.size or empty.mean() != 0.0:
                    errors.append(f"level {r} empty box density "
                                  f"{empty.mean() if empty.size else None!r}")
    if level == t and any(entry.witnesses for entry in report.levels):
        errors.append("finest candidate produced a witness")
    return errors


def check_sample(weights, words) -> list:
    """Sampled edges sit on the weight support, include every weight-1
    cell, and number within 3 sigma of the weight sum."""
    sampled = unpack_words(words, weights.shape[-1])
    errors = []
    if (sampled & (weights == 0.0)).any():
        errors.append("an edge was sampled on a weight-0 cell")
    if (~sampled & (weights == 1.0)).any():
        errors.append("a weight-1 cell was not sampled")
    edges = int(sampled.sum())
    expected = float(weights.sum())
    sigma = math.sqrt(float((weights * (1.0 - weights)).sum()))
    if abs(edges - expected) > 3.0 * sigma:
        errors.append(f"{edges} edges sampled, expected {expected:.1f} "
                      f"+- 3 x {sigma:.1f}")
    return errors


def max_agreement(side) -> int:
    """Largest number of partitions on which two members agree, by
    integer popcount of XORed member words."""
    side = np.asarray(side, dtype=bool)
    m, size = side.shape
    packed = np.packbits(side, axis=0, bitorder="little").T
    pad = (-packed.shape[1]) % 8
    words = np.ascontiguousarray(np.pad(packed, ((0, 0), (0, pad)))).view(
        np.uint64)
    worst = 0
    for lo in range(0, size, 256):
        chunk = words[lo:lo + 256]
        differ = np.bitwise_count(chunk[:, None, :] ^ words[None, :, :]).sum(
            axis=2, dtype=np.int64)
        differ[np.arange(chunk.shape[0]), np.arange(lo, lo + chunk.shape[0])] = m
        worst = max(worst, int(m - differ.min()))
    return worst


def check_family(family, m: int, size: int) -> list:
    """M distinct members, every pair agreeing on at most 3m/4 places."""
    side = np.asarray(family.x_side)
    if side.shape != (m, size):
        return [f"family ({m}, {size}) has sides of shape {side.shape}"]
    worst = max_agreement(side)
    if worst > 0.75 * m:
        return [f"family ({m}, {size}): two members agree on {worst} of {m}"]
    return []
