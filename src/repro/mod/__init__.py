"""Moving-object database: the Trusted Server's location store.

Section 3 gives the TS "the usual functionalities of a location server
(i.e., a moving object database storing precise data for all of its users
and the capability to efficiently perform spatio-temporal queries)".  This
subpackage provides it:

* :class:`~repro.mod.store.TrajectoryStore` — all users' PHLs, with the
  queries Algorithm 1 needs: per-user closest point and k-nearest users
  around a spatio-temporal point;
* :class:`~repro.mod.columnar.ColumnarView` — the store's one
  cross-user index (the paper notes "optimizations may be inspired by
  the work on indexing moving objects"): every sample in numpy
  columns, decision-equivalent to scanning every PHL list (benchmark
  E9 measures the speed-up over the paper's brute-force O(k·n) bound);
* :mod:`repro.mod.interpolation` — linear position interpolation between
  samples;
* :mod:`repro.mod.queries` — spatio-temporal range queries over the store.
"""

from repro.mod.columnar import ColumnarView
from repro.mod.interpolation import position_at
from repro.mod.queries import count_users_in_box, users_in_box
from repro.mod.store import TrajectoryStore

__all__ = [
    "ColumnarView",
    "TrajectoryStore",
    "count_users_in_box",
    "position_at",
    "users_in_box",
]
