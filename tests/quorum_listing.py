"""Every quorum of a construction, listed: the tests' reference for the
closed-form scans of regsim.quorum, which list none."""

from functools import cache
from itertools import combinations


def mask(servers):
    return sum(1 << s for s in servers)


@cache
def quorum_masks(qs):
    """Every quorum of qs in scan order: a k-of-n system's k-subsets in
    combinations order, a grid's row r united with column c in r-major
    order, servers laid out row-major."""
    if qs.k:
        return tuple(mask(c) for c in combinations(range(qs.n), qs.k))
    cols = qs.cols
    rows = qs.n // cols
    return tuple(
        mask({r * cols + j for j in range(cols)} | {i * cols + c for i in range(rows)})
        for r in range(rows)
        for c in range(cols)
    )


class Listed:
    """qs answered by plain scans over its listing: the reference for the
    closed forms, and a stand-in for qs in whole runs."""

    def __init__(self, qs):
        self.n = qs.n
        self.masks = quorum_masks(qs)

    def first_contained_mask(self, responders):
        return next((m for m in self.masks if m & ~responders == 0), 0)

    def view3_mask(self, current, maxset):
        return any(m != current and (m & current) & ~maxset == 0 for m in self.masks)
