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

References: R. P. Brent, *Algorithms for Minimization without
Derivatives* (1973), ch. 5; J. A. Nelder and R. Mead, *Comput. J.* 7:308
(1965).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")
    flag = 0
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = fun(xf)
    num = 1
    fu = np.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        if np.abs(e) > tol1:  # try a parabola through the three best points
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = 1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
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
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            flag = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        flag = 2
    value = np.asarray(fx)[()]
    return Solution(np.reshape(xf, value.shape)[()], value, num, num, flag == 0)


def minimize(fun, x0, *, maxiter=None, maxfev=None, xatol=1e-4, fatol=1e-4) -> Solution:
    """Minimize fun from x0 by the Nelder-Mead simplex, without bounds.

    With neither cap given both are 200 per variable; with one given the
    other is unlimited. fun gets a copy of each vertex. success is False
    when a cap stops the search before both tolerances are met.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
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

    fsim = np.full((n + 1,), np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _EvaluationCap:
        pass
    # Sorted twice, as scipy does: argsort need not be stable on ties.
    for _ in range(2):
        ind = fsim.argsort()
        sim = sim[ind]
        fsim = fsim[ind]

    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = 0.5 * xbar + 0.5 * sim[-1]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _EvaluationCap:
            pass
        ind = fsim.argsort()
        sim = sim[ind]
        fsim = fsim[ind]

    success = calls < maxfev and iterations < maxiter
    return Solution(sim[0], np.min(fsim), iterations, calls, success)
