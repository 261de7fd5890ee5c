"""The windows of the powers of a block stack, for the block walk of
:func:`polarops.classify.blockwise_centered_order`.

The k-th power ``T^k`` of an operator that holds a stack of blocks on its
first block subdiagonal holds ``a[j+k-1] @ ... @ a[j]`` at block position
j, a function of the window of block labels j..j+k-1; so does ``U^k``.
``Windows`` numbers those windows from the runs of equal labels and lays
out each group of consecutive powers (``Layout``): the window at each
block position, a source position of each window, and the (window, image)
pairs of the commutators. Nothing here is exported by the package.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["Layout", "Windows"]


class Layout(NamedTuple):
    """Where the windows of a group of consecutive powers ``T^k``, ``U^k``
    of a block stack sit (see ``Windows``), the powers joined as
    ``classify._join`` joins them: power i has ``lengths[i]`` block
    positions, ``index[j]`` is the window at joined position j, and
    ``sources[w]`` a position of window w in its power. The commutator
    ``[U^k |T| (U^k)*, |T|]`` at j is a function of the pair (window at j,
    block at j + k): ``pairs[j]`` is that pair, and pair i is window
    ``prefix[i]`` with its image at position ``images[i]``. ``bounds[i]``
    counts the positions, windows and pairs before power i."""

    lengths: list[int]
    bounds: list[list[int]]
    index: np.ndarray
    sources: np.ndarray
    pairs: np.ndarray
    prefix: np.ndarray
    images: np.ndarray

    def cut(self, start: int, stop: int) -> Layout:
        """The layout of the powers ``start, ..., stop - 1`` alone."""
        (p0, w0, q0), (p1, w1, q1) = self.bounds[start], self.bounds[stop]
        return Layout(
            self.lengths[start:stop],
            [[p - p0, w - w0, q - q0] for p, w, q in self.bounds[start : stop + 1]],
            self.index[p0:p1] - w0,
            self.sources[w0:w1],
            self.pairs[p0:p1] - q0,
            self.prefix[q0:q1] - w0,
            self.images[q0:q1],
        )


def _above(counts: np.ndarray) -> np.ndarray:
    """For each k, the sum of ``counts`` from k on."""
    return np.cumsum(counts[::-1])[::-1]


class Windows:
    """The distinct windows of consecutive blocks of a block stack (see
    ``classify._powers``), from labels ``labels[j]`` of its blocks, equal
    for equal blocks and numbered 0, 1, ... with none left out: ``T^k`` and
    ``U^k`` at position j depend only on the window of labels j..j+k-1.

    Windows come from the runs of equal labels: one inside a run is
    numbered by its label, any other by its position (label windows first,
    in label order). So equal windows that cross runs at two positions
    (labels like ABAB) keep two numbers, a duplicate product but never a
    merge of unequal windows; where each label fills one run, as on the
    recipe shifts, each window has one number. A label of its own ends the
    labels, at the zero block of ``|T|`` that no block leaves; the window
    over it, the (window, image) pair of the last commutator, is numbered
    last.

    The walks of ``T^k`` and ``U^k`` go forward through groups of powers
    (``classify._power_groups``) of at most ``group`` windows, neither
    behind the group the other is in; a group's layout and steps are built
    when a walk reaches it, with a fixed number of numpy calls."""

    def __init__(self, labels: np.ndarray, group: int):
        self.labels = np.append(labels, labels.max() + 1)
        n = len(self.labels)
        starts = np.flatnonzero(np.diff(self.labels, prepend=-1))
        runs = np.diff(starts, append=n)
        self._ends = np.repeat(starts + runs, runs)
        # The longest run of each label, and where it starts.
        order = np.lexsort((runs, self.labels[starts]))
        last = order[np.flatnonzero(np.diff(self.labels[starts][order], append=n))]
        self._longest, self._sources = runs[last], starts[last]
        # The windows of each length k: one per label with a run of k, and
        # one per position of 0..n-k not inside such a run.
        k = np.arange(n + 1)
        inside = _above(_above(np.bincount(runs, minlength=n + 1)))
        self._widths = _above(np.bincount(self._longest, minlength=n + 1)) + n + 1 - k - inside
        self._counts = np.cumsum(self._widths[1:n] - 1)
        self._group = group
        self._first = self._next = 1

    def step(self, k: int) -> tuple[np.ndarray | None, np.ndarray]:
        """For each window of power k: the window of power k - 1 at the
        position after its source (None for k = 1), and its source."""
        if k == len(self.labels):
            return self._sources[:0], self._sources[:0]
        while k >= self._next:
            self._advance()
        return self._steps[k - self._first]

    def layout(self, first: int) -> Layout:
        """The layout of the group of powers that starts at power ``first``,
        the group a walk is in or the next one."""
        if first == self._next:
            self._advance()
        return self._layout

    def _advance(self) -> None:
        """Build the layout and the steps of the next group of powers."""
        first = self._first = self._next
        done = self._counts[first - 2] if first > 1 else 0
        count = int(np.searchsorted(self._counts, done + self._group, "right")) - first + 1
        self._next = first + max(count, 1)
        # The window lengths ks: the powers', the power's before them (for
        # the steps) and the last power's pairs, each at every position.
        lo = max(first - 1, 1)
        n, ks = len(self.labels), np.arange(lo, self._next + 1)
        sizes = n + 1 - ks
        starts = np.cumsum(sizes) - sizes
        row = np.repeat(np.arange(len(ks)), sizes)
        position = np.arange(len(row)) - starts[row]
        inside = self._ends[position] - position >= row + lo
        held = self._longest >= ks[:, None]
        ranks = np.cumsum(held, axis=1)
        widths = self._widths[ks]
        base = np.cumsum(widths) - widths
        crossing = np.cumsum(~inside) - 1 + np.cumsum(ranks[:, -1])[row]
        ids = np.where(inside, base[row] - 1 + ranks[row, self.labels[position]], crossing)
        # The source of a window inside a run is the start of the longest
        # run of its label.
        alone = np.zeros(base[-1] + widths[-1], dtype=bool)
        alone[ids[~inside]] = True
        heads = np.empty(len(alone), dtype=np.intp)
        heads[alone] = position[~inside]
        heads[~alone] = self._sources[np.nonzero(held)[1]]
        # The powers' windows numbered on from power to power, those over
        # the pad left out.
        r0 = first - lo
        joined = ids - row - (base[r0] - r0)
        counts = widths[r0:-1] - 1
        sources = np.delete(heads[base[r0] : base[-1]], base[r0 + 1 :] - 1 - base[r0])
        pair_rows = np.repeat(np.arange(r0, len(ks) - 1), widths[r0 + 1 :])
        pair_heads = heads[base[r0 + 1] :]
        spans = np.stack([n - ks[r0:-1], counts, widths[r0 + 1 :]], axis=1)
        bounds = np.concatenate([np.zeros((1, 3), dtype=int), np.cumsum(spans, axis=0)]).tolist()
        self._layout = Layout(
            (n - ks[r0:-1]).tolist(),
            bounds,
            np.delete(joined[starts[r0] : starts[-1]], starts[r0 + 1 :] - 1 - starts[r0]),
            sources,
            ids[starts[r0 + 1] :] - base[r0 + 1],
            joined[starts[pair_rows] + pair_heads],
            pair_heads + pair_rows + lo,
        )
        skip = counts[0] if first == 1 else 0
        prior = np.repeat(np.arange(r0 - 1, len(ks) - 2), counts)[skip:]
        after = ids[starts[prior] + sources[skip:] + 1] - base[prior]
        self._steps = [
            (None if k == 1 else after[a - skip : b - skip], sources[a:b])
            for k, (_, a, _), (_, b, _) in zip(range(first, self._next), bounds, bounds[1:])
        ]
