"""Bounded-cost-growth arithmetic: G, L, R and the sub-optimality bounds.

Implements section 5 of the paper.  For a stored (previously optimized)
instance ``q_e`` and a new instance ``q_c`` with per-dimension
selectivity ratios ``alpha_i = s_i(q_c) / s_i(q_e)``:

* ``G = prod over alpha_i > 1 of alpha_i``   (net cost increment factor)
* ``L = prod over alpha_i < 1 of 1/alpha_i`` (net cost decrement factor)

Under the BCG assumption with bounding functions ``f_i(alpha) = alpha``:

* Cost Bounding Lemma:  ``C/L < Cost(P_e, q_c) < G * C``
* Sub-optimality bound: ``SubOpt(P_e, q_c) < G * L``
* with the exact recost ratio ``R = Cost(P_e, q_c) / C`` the bound
  tightens to ``R * L``.

For ``f_i(alpha) = alpha**n`` the bounds become ``(G*L)**n`` and
``R * L**n`` (section 5.3 notes the generalization for ``alpha**2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..query.instance import SelectivityVector, UncertainSelectivityVector


@dataclass(frozen=True)
class BoundingFunction:
    """The per-dimension cost-growth bound ``f_i(alpha) = alpha**degree``.

    ``degree=1`` is the paper's default, validated in section 5.4 for
    scans, nested-loops joins, hash joins, unions etc.  ``degree=2``
    covers super-linear (sorting-based) operators via the log inequality
    the paper cites.
    """

    degree: float = 1.0

    def __post_init__(self) -> None:
        if self.degree < 1.0:
            raise ValueError("bounding degree must be >= 1")

    def selectivity_bound(self, g: float, l: float) -> float:
        """Theorem 1 generalized: SubOpt < (G*L) ** degree."""
        return (g * l) ** self.degree

    def cost_bound(self, r: float, l: float) -> float:
        """Improved bound with exact recost ratio: R * L ** degree."""
        return r * (l ** self.degree)


LINEAR_BOUND = BoundingFunction(degree=1.0)
QUADRATIC_BOUND = BoundingFunction(degree=2.0)


def compute_g(stored: SelectivityVector, new: SelectivityVector) -> float:
    """Net cost increment factor ``G`` between a stored and a new instance."""
    g = 1.0
    for alpha in stored.ratios(new):
        if alpha > 1.0:
            g *= alpha
    return g


def compute_l(stored: SelectivityVector, new: SelectivityVector) -> float:
    """Net cost decrement factor ``L`` between a stored and a new instance."""
    l = 1.0
    for alpha in stored.ratios(new):
        if alpha < 1.0:
            l /= alpha
    return l


def compute_gl(stored: SelectivityVector, new: SelectivityVector) -> tuple[float, float]:
    """Both factors in one pass (the hot path of the selectivity check)."""
    g = 1.0
    l = 1.0
    for alpha in stored.ratios(new):
        if alpha > 1.0:
            g *= alpha
        elif alpha < 1.0:
            l /= alpha
    return g, l


def cost_bounds(
    stored_cost: float,
    stored: SelectivityVector,
    new: SelectivityVector,
    bound: BoundingFunction = LINEAR_BOUND,
) -> tuple[float, float]:
    """Cost Bounding Lemma: (lower, upper) bounds on ``Cost(P, q_c)``.

    ``stored_cost`` is ``Cost(P, q_e)``.  Bounds are
    ``stored_cost / L**n`` and ``stored_cost * G**n``.
    """
    g, l = compute_gl(stored, new)
    n = bound.degree
    return stored_cost / (l ** n), stored_cost * (g ** n)


def suboptimality_bound(
    stored: SelectivityVector,
    new: SelectivityVector,
    bound: BoundingFunction = LINEAR_BOUND,
) -> float:
    """Theorem 1: upper bound on ``SubOpt(P_e, q_c)`` from sVectors alone."""
    g, l = compute_gl(stored, new)
    return bound.selectivity_bound(g, l)


def recost_suboptimality_bound(
    recost_ratio: float,
    stored: SelectivityVector,
    new: SelectivityVector,
    bound: BoundingFunction = LINEAR_BOUND,
) -> float:
    """Improved bound ``R * L**n`` once the plan has been re-costed."""
    l = compute_l(stored, new)
    return bound.cost_bound(recost_ratio, l)


def gl_log_distance(stored: SelectivityVector, new: SelectivityVector) -> float:
    """``ln(G * L)`` — the candidate-ordering key of section 6.2."""
    return sum(abs(math.log(alpha)) for alpha in stored.ratios(new))


# -- adversarial corners (robust check mode; DESIGN.md §11) ------------------
#
# The robust checks must bound SubOpt for *every* sVector inside an
# uncertainty box, not just the point estimate.  Because G·L and R·L^n
# factor per dimension and each per-dimension factor is quasi-convex in
# the unknown selectivity, the box maximum is attained at a per-dimension
# interval *endpoint* — one extra vector op picks it, and the existing
# bound arithmetic then runs unchanged on the corner vector.


def corner_picks_hi(anchor_s: float, lo: float, hi: float) -> bool:
    """The per-dimension endpoint predicate of the adversarial corner.

    ``hi`` maximizes the G·L contribution iff it is at least as far from
    the anchor selectivity ``e`` in log space as ``lo`` is, i.e.
    ``ln(hi) − ln(e) ≥ ln(e) − ln(lo)``  ⇔  ``lo·hi ≥ e²`` (ties break
    to ``hi``; either endpoint attains the max then).  This is the exact
    predicate :func:`repro.core.columnar.corner_matrix` evaluates on the
    lo/hi row vectors against the anchor matrix, so the scalar and
    vectorized robust checks agree bit for bit.
    """
    return lo * hi >= anchor_s * anchor_s


def adversarial_corner(
    anchor: SelectivityVector, usv: UncertainSelectivityVector
) -> SelectivityVector:
    """The corner of ``usv``'s box maximizing ``G·L`` against ``anchor``.

    Per dimension, with anchor selectivity ``e`` and unknown ``x``, the
    G·L contribution is ``f(x) = max(x/e, e/x)`` — decreasing below
    ``e``, increasing above, hence quasi-convex — so its maximum over
    ``[lo, hi]`` sits at whichever endpoint is farther from ``e`` in
    log space: ``hi`` iff ``ln(hi) - ln(e) >= ln(e) - ln(lo)``, i.e.
    ``lo * hi >= e * e`` (ties break to ``hi``; either endpoint attains
    the max then).  The returned vector therefore satisfies
    ``(G·L)(anchor → corner) >= (G·L)(anchor → x)`` for every ``x`` in
    the box, and for a zero-width box it *is* the point estimate, making
    the robust check bit-for-bit identical to the point check there.
    """
    return SelectivityVector.from_sequence(
        [hi if corner_picks_hi(e, lo, hi) else lo
         for e, lo, hi in zip(anchor, usv.lo, usv.hi)]
    )
