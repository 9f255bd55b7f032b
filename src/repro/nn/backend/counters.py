"""Process-wide operation counters for the fused execution paths.

The fusion work (conv -> folded-BN -> ReLU epilogues, grouped ensemble
GEMMs, traced eval plans) makes claims that are cheap to state and easy to
regress silently: "one batched GEMM per fused layer", "no per-member
Python loop".  These counters make those claims testable — the backend
kernels and the grouped executor record every fused call and every batched
GEMM they issue, and the call-count tests in ``tests/test_backend.py``
assert the totals.

Kept in a leaf module so the kernel modules (``im2col``/``reference``)
and the grouped executor can record without importing the backend
package (which imports them).
"""

from __future__ import annotations

import threading
from typing import Dict

#: fused_conv_calls — invocations of a fused conv+scale/shift+ReLU entry
#: point (single-model or grouped).
#: fused_conv_gemms — batched ``np.matmul`` calls issued by those entries;
#: one grouped call covers every ensemble member in the group.
_COUNTS: Dict[str, int] = {
    "fused_conv_calls": 0,
    "fused_conv_gemms": 0,
}
#: Threads that count at the same time (Algorithm 1's candidate lanes, a
#: plan's lane helper) update under this lock, so no increment is lost.
_LOCK = threading.Lock()


def record(key: str, n: int = 1) -> None:
    """Increment a counter (missing keys start at zero)."""
    with _LOCK:
        _COUNTS[key] = _COUNTS.get(key, 0) + n


def op_counts() -> Dict[str, int]:
    """Snapshot of all counters."""
    with _LOCK:
        return dict(_COUNTS)


def reset_op_counts() -> None:
    """Zero every counter (tests call this around a measured region)."""
    with _LOCK:
        for key in _COUNTS:
            _COUNTS[key] = 0
