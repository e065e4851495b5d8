"""Grouped aggregation: the one grouping implementation, used by SQL.

Scenario 2 of the demo runs queries like "compute the average elevation of
the LIDAR points near a fast transit road"; this is the engine half of
that.  :func:`group_rows` partitions rows once per statement (distinct keys
via ``np.unique``, a group id per row, the first row of each group), and
:meth:`Grouping.aggregate` reduces any number of value arrays with that
partition (``np.bincount`` / ``np.add.reduceat`` over the rows sorted by
group), the columnar analogue of MonetDB's group-by kernels.  A statement
without ``GROUP BY`` is the one-group case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

#: Ufuncs reduced over the values sorted by group (``reduceat``).
_SORTED_KERNELS: Dict[str, np.ufunc] = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


@dataclass
class Grouping:
    """A partition of ``n_rows`` rows into groups sorted ascending by key.

    ``ids`` holds each row's group id, ``first`` each group's first row
    (empty when there are no rows) and ``sizes`` each group's row count.
    """

    ids: NDArray[Any]
    first: NDArray[Any]
    sizes: NDArray[Any]

    @property
    def n_groups(self) -> int:
        return int(self.sizes.shape[0])

    @cached_property
    def _sorted(self) -> Tuple[NDArray[Any], NDArray[Any]]:
        """Rows in group order, and where each group starts in it."""
        order = np.argsort(self.ids, kind="stable")
        return order, np.cumsum(self.sizes) - self.sizes

    def aggregate(
        self, func: str, values: Optional[NDArray[Any]] = None
    ) -> NDArray[Any]:
        """``func`` over ``values`` (one per row), one result per group.

        ``func`` is one of ``count``, ``sum``, ``avg``, ``min``, ``max``;
        ``values`` is ignored for ``count``.  Sums keep the integer type
        numpy's ``sum`` would use, ``avg`` is float64.  The one group of
        an empty input has no value: every aggregate but ``count`` is
        ``None`` there (SQL's NULL).
        """
        if func == "count":
            return self.sizes
        if func != "avg" and func not in _SORTED_KERNELS:
            raise ValueError(f"unknown aggregate {func!r}")
        if values is None:
            raise ValueError(f"aggregate {func!r} requires values")
        if self.ids.shape[0] == 0:
            return np.full(self.n_groups, None, dtype=object)
        values = np.asarray(values)
        if func == "avg":
            sums = np.bincount(
                self.ids, weights=values.astype(np.float64), minlength=self.n_groups
            )
            return sums / self.sizes
        order, starts = self._sorted
        reduced: NDArray[Any] = _SORTED_KERNELS[func].reduceat(values[order], starts)
        return reduced


def group_rows(keys: Sequence[NDArray[Any]], n_rows: int) -> Grouping:
    """Group ``n_rows`` rows by the key arrays (one value per row each).

    Groups sort ascending by key, lexicographically over several keys;
    NaN keys form one group that sorts last (``np.unique``'s rule, and
    SQL's grouping of NULLs).  No keys is the one-group case: a single
    group holding every row, even when there are none.
    """
    if not keys:
        return Grouping(
            ids=np.zeros(n_rows, dtype=np.intp),
            first=np.zeros(min(n_rows, 1), dtype=np.intp),
            sizes=np.array([n_rows], dtype=np.intp),
        )
    _, first, ids = np.unique(keys[0], return_index=True, return_inverse=True)
    for key in keys[1:]:
        distinct, inverse = np.unique(key, return_inverse=True)
        # Dense ids stay below n_rows, so the pair code cannot overflow;
        # it orders lexicographically by (previous keys, this key).
        _, first, ids = np.unique(
            ids * distinct.shape[0] + inverse, return_index=True, return_inverse=True
        )
    sizes = np.bincount(ids, minlength=first.shape[0])
    return Grouping(ids=ids, first=first, sizes=sizes)
