"""Bounded Brent search and Nelder-Mead simplex, without scipy.

Both follow scipy 1.17.1 (`scipy.optimize._optimize`) operation for
operation: `minimize_scalar` is `_minimize_scalar_bounded` and `minimize`
is `_minimize_neldermead` without bounds or adaptive coefficients. They
use the same arithmetic and sorts, defaults and stopping rules, so a
fit gives the same floats, iteration counts and flags as
`scipy.optimize.minimize_scalar(method="bounded")` and
`scipy.optimize.minimize(method="Nelder-Mead")`, bit for bit. Importing
scipy.optimize costs the CLI most of its start-up; these two are all the
CLI needs of it.

Both run on Python floats, which round as numpy's float64 scalars do and
cost a fraction of them per operation. The simplex is a list of vertex
lists, and fun gets a fresh list for each vertex. Each iteration ranks
the vertices by value, as scipy's `np.argsort` does: with n + 1 distinct
values and no NaN every sort gives the one order, and `sorted` finds it;
on ties or NaN only numpy's own `np.argsort` gives scipy's order, so that
path keeps it. Most iterations replace the worst vertex alone. When the
other n were ranked with distinct values, `bisect` places the new one
among them, which is the one order again; a tie or NaN in its value, a
shrink, an evaluation cap or a ranking that held a tie falls back to the
full sort. The convergence test checks the spread to the worst value
first, which alone fails on most iterations. The centroid adds the
vertices row by row from the first, as numpy's reduce over axis 0 does.
Builtin `sum` is not used for it: from CPython 3.12 it compensates float
sums, which rounds differently.

References: R. P. Brent, *Algorithms for Minimization without
Derivatives* (1973), ch. 5; J. A. Nelder and R. Mead, *Comput. J.* 7:308
(1965).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass(frozen=True)
class Solution:
    x: np.ndarray | np.float64     # the best point; a scalar from minimize_scalar
    fun: np.float64
    nit: int
    nfev: int
    success: bool


class _EvaluationCap(Exception):
    pass


def minimize_scalar(fun, bounds, *, xatol=1e-5, maxiter=500) -> Solution:
    """Minimize fun over the closed interval bounds by Brent's bounded search.

    Each iteration is one evaluation; success is False at the cap and when
    the best point, its value or the last value is NaN.
    """
    a, b = bounds
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")
    flag = 0
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = fun(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (-1.0 if xm < xf else 1.0)
            else:
                golden = 1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        # scipy's np.sign(rat) + (rat == 0) and np.maximum: the bounds are
        # finite and the loop runs only while tol1 is a number, so neither
        # rat nor tol1 is NaN here, nor xm - xf above.
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            flag = 1
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        flag = 2
    value = np.asarray(fx)[()]
    return Solution(np.reshape(xf, value.shape)[()], value, num, num, flag == 0)


def _by_value(sim: list, fsim: list):
    """sim and fsim reordered by value, as np.argsort orders fsim, and
    whether the values are distinct (no tie and no NaN)."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    ranked = [fsim[i] for i in order]
    distinct = all(map(operator.lt, ranked, ranked[1:]))
    if not distinct:
        order = np.argsort(fsim).tolist()
        ranked = [fsim[i] for i in order]
    return [sim[i] for i in order], ranked, distinct


def _rank_last(sim: list, fsim: list) -> bool:
    """Move the last vertex to its rank among the others, which are ranked
    and distinct; False, with nothing moved, when its value is NaN or ties
    one of theirs."""
    n = len(fsim) - 1
    value = fsim[n]
    k = bisect_left(fsim, value, 0, n)
    if value != value or (k < n and fsim[k] == value):
        return False
    sim.insert(k, sim.pop())
    fsim.insert(k, fsim.pop())
    return True


def minimize(fun, x0, *, maxiter=None, maxfev=None, xatol=1e-4, fatol=1e-4) -> Solution:
    """Minimize fun from x0 by the Nelder-Mead simplex, without bounds.

    With neither cap given both are 200 per variable; with one given the
    other is unlimited. fun gets each vertex as a fresh list of floats.
    success is False when a cap stops the search before both tolerances
    are met.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).flatten().tolist()
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    if maxiter is None and maxfev is None:
        maxiter = maxfev = n * 200
    elif maxiter is None:
        maxiter = n * 200 if maxfev == np.inf else np.inf
    elif maxfev is None:
        maxfev = n * 200 if maxiter == np.inf else np.inf

    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _EvaluationCap
        calls += 1
        return fun(x.copy())

    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _EvaluationCap:
        pass
    # Sorted twice, as scipy does: argsort need not be stable on ties.
    for _ in range(2):
        sim, fsim, distinct = _by_value(sim, fsim)

    iterations = 1
    while calls < maxfev and iterations < maxiter:
        resort = False  # after a shrink or at a cap, every vertex is ranked anew
        try:
            best, worst = sim[0], sim[-1]
            if (abs(fsim[0] - fsim[-1]) <= fatol
                    and all(abs(fsim[0] - v) <= fatol for v in fsim[1:])
                    and all(abs(v - w) <= xatol for x in sim[1:] for v, w in zip(x, best))):
                break
            xbar = [reduce(operator.add, column) / n for column in zip(*sim[:-1])]
            xr = [2 * c - w for c, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    resort = True
                    for j in range(1, n + 1):
                        sim[j] = [v + 0.5 * (w - v) for v, w in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
            iterations += 1
        except _EvaluationCap:
            resort = True
        if resort or not distinct or not _rank_last(sim, fsim):
            sim, fsim, distinct = _by_value(sim, fsim)

    success = calls < maxfev and iterations < maxiter
    return Solution(np.array(sim[0]), np.min(fsim), iterations, calls, success)
