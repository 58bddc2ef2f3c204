"""Deterministic numeric sampling of expressions on the chart domain."""
from __future__ import annotations

import math
import random
from fractions import Fraction

from .symcore import DomainError, Expr, eval_rational

DEFAULT_SEED = 42
DEFAULT_POINTS = 8
DEFAULT_TOL = 1e-9


class Sampler:
    """Draws admissible points and evaluates residuals.

    Values are rational, from [-3,-1] u [1,3] with three decimal digits,
    so exact-zero residuals evaluate to exactly zero.
    """

    def __init__(self, spec, seed=DEFAULT_SEED, points=DEFAULT_POINTS,
                 tol=DEFAULT_TOL):
        self.spec = spec
        self.seed = seed
        self.count = points
        self.tol = tol
        self._points = None

    def _draw_value(self, rng) -> Fraction:
        mag = Fraction(rng.randrange(1000, 3001), 1000)
        return mag if rng.random() < 0.5 else -mag

    def points(self):
        if self._points is not None:
            return self._points
        rng = random.Random(self.seed)
        excluded = {}
        for c in self.spec.coords.constraints:
            excluded.setdefault(c.coord, set()).add(c.excluded)
        out = []
        for _ in range(self.count):
            bindings = {}
            for name in self.spec.coords.names:
                val = self._draw_value(rng)
                bad = excluded.get(name, ())
                while val in bad:
                    val = self._draw_value(rng)
                bindings[name] = val
            for name in self.spec.params:
                bindings[name] = self._draw_value(rng)
            out.append(bindings)
        self._points = out
        return out

    def max_abs(self, exprs) -> float | None:
        """Largest |value| over all expressions and sample points; poles at
        individual points are skipped.  None when some expression that is
        not identically zero has a pole at every sample point."""
        worst = 0.0
        for e in exprs:
            if isinstance(e, Expr) and e.is_zero:
                continue
            values = self._abs_values(e)
            if not values:
                return None
            worst = max(worst, *values)
        return worst

    def min_abs(self, e) -> float | None:
        """Smallest |value| over sample points (for nonvanishing checks);
        None when every sample point is a pole."""
        return min(self._abs_values(e), default=None)

    def _abs_values(self, e) -> list:
        out = []
        for bindings in self.points():
            try:
                value = eval_rational(e, bindings)
            except DomainError:
                continue
            try:
                out.append(abs(float(value)))
            except OverflowError:  # beyond the float range
                out.append(math.inf)
        return out
