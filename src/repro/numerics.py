"""Floating-point comparison in units in the last place (ulps).

The OBDD kernel is deterministic: evaluating the same lineage twice yields
bit-identical floats.  The one sanctioned source of drift is the
*incremental* MV-index extension, which appends freshly compiled components
to an existing index instead of rebuilding from scratch.  The root cause is
**summation/association order**: floating-point ``+`` and ``*`` are not
associative, so any reduction whose operand order depends on build history
(rather than on the data) can round differently.  Two places matter:

* the **product over components** in ``probability_not_w`` and the
  touched/untouched factor split — canonicalized since the non-blocking
  write path landed by folding components in ascending minimum-variable
  order (:meth:`~repro.mvindex.index.MVIndex._product_order`), which is
  intrinsic to the clause partition and therefore identical between a
  fresh build and any extend/append history;
* the **intra-component OBDD evaluation**, where an extended index's
  component was compiled in a *fresh* manager against a shorter variable
  order prefix than the from-scratch build uses.  The weighted sums at
  each node can therefore still round differently by a step — this is the
  residual drift the constant below bounds.

The observed divergence is a single ulp (see ``tests/test_numerics.py``,
which pins the bound in both directions and asserts that the *prepared*
extend path — snapshot-compile plus epoch swap — stays inside the same
budget as the legacy blocking extend).

Absolute tolerances such as the old ``1e-9`` are the wrong shape for this:
for probabilities near 1.0 they allow ~4.5 million ulps of drift, while for
the huge MLN-style weights ``bench/measure.py``'s checks compare (magnitude
~1e22, where one ulp is ~8e6) they demand more than bit-identity and only pass
because the values happen to be exactly equal.  Comparing in ulps is
scale-free: it bounds the number of *representable doubles* between the two
values, which is the honest measure of "how different two deterministic
computations came out".
"""

from __future__ import annotations

import math
import struct

__all__ = [
    "GATE_PROBABILITY_ULPS",
    "INCREMENTAL_REBUILD_ULPS",
    "ulps_between",
    "within_ulps",
]

#: Maximum sanctioned divergence between an incrementally extended MV-index
#: and a from-scratch build of the same view set.  With the component
#: product canonicalized (min-variable fold order), the remaining drift is
#: the intra-component evaluation of delta-compiled OBDDs — at most one
#: rounding step, with one spare ulp of headroom for stacked mutations
#: (e.g. append-then-extend).  Anything beyond this is a correctness bug,
#: not noise.
INCREMENTAL_REBUILD_ULPS = 2

#: Tolerance of ``bench/measure.py``'s probability checks (every measured
#: answer against ``bench/checks.py``'s independent path).  Both sides
#: recompute from scratch with the deterministic kernel, so the budget is
#: deliberately tight — a handful of ulps merely leaves room for a
#: reassociated reduction, not for algorithmic drift.
GATE_PROBABILITY_ULPS = 4


def _ordered(value: float) -> int:
    """Map a finite float to an integer preserving numeric order.

    IEEE-754 doubles compare like sign-magnitude integers; flipping the
    negative range turns the bit pattern into a monotone (two's-complement
    style) ordering, so ulp distance becomes plain integer subtraction.
    """
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    if bits < 0:
        bits = -(bits & 0x7FFFFFFFFFFFFFFF)
    return bits


def ulps_between(a: float, b: float) -> int:
    """Number of representable doubles strictly between ``a`` and ``b``... +1.

    Formally: the number of ulp-steps needed to walk from ``a`` to ``b``
    (0 when they are bit-identical; also 0 for ``-0.0`` vs ``0.0``, which
    compare numerically equal).  Raises :class:`ValueError` on NaN — a NaN
    is never "close" to anything.
    """
    if math.isnan(a) or math.isnan(b):
        raise ValueError("ulps_between is undefined for NaN")
    if a == b:  # covers -0.0 == 0.0, and infinities equal to themselves
        return 0
    if math.isinf(a) or math.isinf(b):
        raise ValueError("ulps_between is undefined between finite values and infinity")
    return abs(_ordered(a) - _ordered(b))


def within_ulps(a: float, b: float, ulps: int) -> bool:
    """Whether ``a`` and ``b`` are at most ``ulps`` rounding steps apart."""
    try:
        return ulps_between(a, b) <= ulps
    except ValueError:
        return False
