"""Reference evaluations of the quote-similarity definition in ``verify.py``.

The verifier scores a quote against a document as the best, over windows
of 0.8x to 1.2x the quote length, of ``1 - edit_distance / max(window
length, quote length)``. The functions here evaluate that definition
without shortcuts, independently of the program's matcher:

* ``window_similarity`` checks every window at stride 1. It is exact and
  affordable on short documents only.
* ``best_end_distances`` is Sellers' semi-global pass (1980): for every end
  position ``e`` it gives the least edit distance of the quote to any
  document substring ending at ``e``. Since every window's denominator is
  at most ``ceil(1.2 |quote|)``, it yields an upper bound on the similarity
  any window can reach, on documents of any length.

The generator uses them to certify its labels; the traced benchmark run
uses ``window_similarity`` to measure the matcher's error.
"""

from __future__ import annotations

import math

import numpy as np


def _codes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int32)


def best_end_distances(quote: str, doc: str) -> np.ndarray:
    """``D[e] = min_s editdistance(quote, doc[s:e])`` for ``e`` in ``0..len(doc)``."""
    d = _codes(doc)
    cols = np.arange(len(d) + 1, dtype=np.int32)
    prev = np.zeros(len(d) + 1, dtype=np.int32)
    cur = np.empty_like(prev)
    for i, ch in enumerate(quote, start=1):
        cost = (d != ord(ch)).astype(np.int32)
        cur[0] = i
        np.minimum(prev[:-1] + cost, prev[1:] + 1, out=cur[1:])
        # Horizontal moves: cur[j] = min(cur[j], cur[j-1] + 1), done as a
        # running minimum of cur[j] - j.
        cur -= cols
        np.minimum.accumulate(cur, out=cur)
        cur += cols
        prev, cur = cur, prev
    return prev


def similarity_upper_bound(quote: str, doc: str) -> float:
    """An upper bound on the best window similarity of ``quote`` in ``doc``."""
    if not doc:
        return 0.0
    max_len = max(1, math.ceil(1.2 * len(quote)))
    return 1.0 - int(best_end_distances(quote, doc).min()) / max_len


def window_similarity(quote: str, doc: str) -> float:
    """The best window similarity, every start and every allowed length checked.

    Window starts run over ``0 .. len(doc) - floor(0.8 |quote|)``; when the
    document is shorter than the shortest window, the whole remaining text
    is allowed, as in ``verify.py``.
    """
    if not doc:
        return 0.0
    if quote in doc:
        return 1.0
    m = len(quote)
    min_len = max(1, math.floor(0.8 * m))
    max_len = max(1, math.ceil(1.2 * m))
    d = _codes(doc)
    n = len(d)
    width = min(max_len, n)
    starts = np.arange(max(0, n - min_len) + 1)
    idx = starts[:, None] + np.arange(width)[None, :]
    windows = np.where(idx < n, d[np.minimum(idx, n - 1)], -1)

    # dist[s, j] = editdistance(quote[:i], doc[s:s+j]) after row i.
    offsets = np.arange(width + 1, dtype=np.int32)
    dist = np.broadcast_to(offsets, (len(starts), width + 1)).copy()
    for i, ch in enumerate(quote, start=1):
        cost = (windows != ord(ch)).astype(np.int32)
        nxt = np.empty_like(dist)
        nxt[:, 0] = i
        np.minimum(dist[:, :-1] + cost, dist[:, 1:] + 1, out=nxt[:, 1:])
        dist = np.minimum.accumulate(nxt - offsets, axis=1) + offsets

    lengths = np.arange(width + 1)
    remaining = (n - starts)[:, None]
    valid = (lengths >= np.minimum(min_len, remaining)) & (lengths <= remaining) & (lengths >= 1)
    sims = 1.0 - dist / np.maximum(m, lengths)
    return float(np.where(valid, sims, -1.0).max())
