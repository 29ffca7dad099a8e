"""Pure-Python numerical routines behind ``cavity``, imported on first use.

:func:`qagp` integrates with break points.  Its first pass is QUADPACK's
``dqagpe`` with the 21-point Gauss–Kronrod rule ``dqk21`` (Piessens,
de Doncker-Kapenga, Überhuber and Kahaner, *QUADPACK*, Springer 1983),
their floating-point operations in their order, or, where a comment says
so, operations with provably the same result: a call that stops there, as
every overlap at the scenarios' default and golden configs does, returns
``scipy.integrate.quad``'s bits.  Beyond it, it bisects the interval of
largest error without QUADPACK's extrapolation.  The integrand, the
Gaussian pulse spectrum over the shifted Lorentzian,

    norm * exp(-x * x / two_var) / (1 + ((x - delta) / half_gamma) ** 2),

is written out inside :func:`_qk21`, so no function is called per point.

:func:`bounded_minimum` is Brent's bounded minimizer, step for step and
bit for bit as ``scipy.optimize.minimize_scalar(method="bounded")``.
"""

from __future__ import annotations

import warnings
from heapq import heapify, heappush, heapreplace
from math import exp, fsum, sqrt

_EPMACH = 2.220446049250313e-16      # d1mach(4), the spacing of doubles at 1
_UFLOW = 2.2250738585072014e-308     # d1mach(1), the smallest normal double

# dqk21's Kronrod abscissae and weights, 1-based as in QUADPACK: the even
# points are the 10-point Gauss rule's, with weights WG2 ... WG10.
(XGK1, XGK2, XGK3, XGK4, XGK5, XGK6, XGK7, XGK8, XGK9, XGK10) = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
(WGK1, WGK2, WGK3, WGK4, WGK5, WGK6, WGK7, WGK8, WGK9, WGK10, WGK11) = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067966850, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
(WG2, WG4, WG6, WG8, WG10) = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
# The abscissae in dqk21's order of evaluation: Gauss points, then the others.
_ABSCISSAE = (XGK2, XGK4, XGK6, XGK8, XGK10, XGK1, XGK3, XGK5, XGK7, XGK9)

_IER_MESSAGES = {
    1: "the maximum number of subdivisions was reached",
    2: "roundoff error prevents the requested tolerance",
}


def _qk21(a, b, norm, two_var, delta, half_gamma):
    """dqk21: (result, abserr, resasc) of the 21-point rule on [a, b], a <= b.

    The sums are written out in dqk21's order of additions.  The integrand
    is never negative and a <= b, so dqk21's rule for |f| over |b - a| is
    ``result`` bit for bit, and is neither computed nor returned.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = norm * exp(-centr * centr / two_var) / (1.0 + ((centr - delta) / half_gamma) ** 2)
    fv = []
    for xgk in _ABSCISSAE:
        absc = hlgth * xgk
        x = centr - absc
        fv.append(norm * exp(-x * x / two_var) / (1.0 + ((x - delta) / half_gamma) ** 2))
        x = centr + absc
        fv.append(norm * exp(-x * x / two_var) / (1.0 + ((x - delta) / half_gamma) ** 2))
    f2, g2, f4, g4, f6, g6, f8, g8, f10, g10, f1, g1, f3, g3, f5, g5, f7, g7, f9, g9 = fv
    s2 = f2 + g2
    s4 = f4 + g4
    s6 = f6 + g6
    s8 = f8 + g8
    s10 = f10 + g10
    resg = WG2 * s2 + WG4 * s4 + WG6 * s6 + WG8 * s8 + WG10 * s10
    resk = (WGK11 * fc + WGK2 * s2 + WGK4 * s4 + WGK6 * s6 + WGK8 * s8 + WGK10 * s10
            + WGK1 * (f1 + g1) + WGK3 * (f3 + g3) + WGK5 * (f5 + g5) + WGK7 * (f7 + g7)
            + WGK9 * (f9 + g9))
    h = resk * 0.5
    resasc = (WGK11 * abs(fc - h) + WGK1 * (abs(f1 - h) + abs(g1 - h))
              + WGK2 * (abs(f2 - h) + abs(g2 - h)) + WGK3 * (abs(f3 - h) + abs(g3 - h))
              + WGK4 * (abs(f4 - h) + abs(g4 - h)) + WGK5 * (abs(f5 - h) + abs(g5 - h))
              + WGK6 * (abs(f6 - h) + abs(g6 - h)) + WGK7 * (abs(f7 - h) + abs(g7 - h))
              + WGK8 * (abs(f8 - h) + abs(g8 - h)) + WGK9 * (abs(f9 - h) + abs(g9 - h))
              + WGK10 * (abs(f10 - h) + abs(g10 - h)))
    result = resk * hlgth
    resasc = resasc * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if result > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * result, abserr)
    return result, abserr, resasc


def qagp(coef, a, b, points, epsabs, epsrel, limit):
    """Integral of the overlap integrand over [a, b], with break points.

    ``coef`` is (norm, two_var, delta, half_gamma).  ``points`` must be
    sorted, unique and strictly inside (a, b), with a < b and
    len(points) + 2 <= limit, as ``scipy.integrate.quad`` leaves them; they
    are not checked.  ``norm`` must be positive, so the integrand and every
    area are never negative.  Give the line's centre ``delta`` and
    ``delta ± 2 * half_gamma`` among ``points``, as ``effective_enhancement``
    does: a line narrower than the node spacing that falls between the 21
    nodes of every interval goes unseen, and the sum converges on a wrong
    value without a warning.

    The first pass is dqagpe's, bit for bit: the 21-point rule on each
    break-point interval, the sums, and the stops (converged, or roundoff).
    Beyond it, the interval of largest error is bisected until the summed
    error is at most max(epsabs, epsrel * area), and the correctly rounded
    sum of the areas is returned.  If instead the summed error falls to
    100 eps * area or an interval is too short to split (roundoff), or
    ``limit`` intervals are reached, that estimate comes with a
    ``UserWarning`` naming the condition.
    """
    norm, two_var, delta, half_gamma = coef
    pts = [a, *points, b]
    result = 0.0
    abserr = 0.0
    first = []
    for a1, b1 in zip(pts, pts[1:]):
        area1, error1, resa = _qk21(a1, b1, norm, two_var, delta, half_gamma)
        abserr = abserr + error1
        result = result + area1
        first.append((a1, b1, area1, error1, error1 == resa and error1 != 0.0))
    errbnd = max(epsabs, epsrel * result)
    if abserr <= errbnd:
        return result
    if abserr <= 100.0 * _EPMACH * result:
        return _warned(result, 2)

    # dqagpe puts forward the bisection of an interval whose error estimate
    # is saturated at resasc by charging it with the whole first-pass error.
    # Heap entries are (-error, a, b, area).
    heap = [(-abserr if flat else -error1, a1, b1, area1)
            for a1, b1, area1, error1, flat in first]
    heapify(heap)
    errsum = -fsum(entry[0] for entry in heap)
    area = result
    while len(heap) < limit:
        negerr, a1, b2, old = heap[0]
        b1 = 0.5 * (a1 + b2)
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(b1) + 1000.0 * _UFLOW):
            break  # too short to split
        area1, error1, _ = _qk21(a1, b1, norm, two_var, delta, half_gamma)
        area2, error2, _ = _qk21(b1, b2, norm, two_var, delta, half_gamma)
        heapreplace(heap, (-error1, a1, b1, area1))
        heappush(heap, (-error2, b1, b2, area2))
        errsum = errsum + negerr + (error1 + error2)
        area = area + (area1 + area2) - old
        if errsum <= max(epsabs, epsrel * area):
            return fsum(entry[3] for entry in heap)
        if errsum <= 100.0 * _EPMACH * area:
            break
    else:  # limit intervals
        return _warned(fsum(entry[3] for entry in heap), 1)
    return _warned(fsum(entry[3] for entry in heap), 2)


def _warned(result, ier):
    warnings.warn(f"pulse-overlap quadrature: {_IER_MESSAGES[ier]} "
                  f"(QUADPACK ier = {ier}); returning the estimate",
                  UserWarning, stacklevel=3)
    return result


def bounded_minimum(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """(x, func(x)) at a local minimum of ``func`` on [lo, hi].

    Brent's golden-section search with parabolic steps (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5), step
    for step as scipy's ``_minimize_scalar_bounded``.  Stops when x is
    known to within ``xatol`` plus a relative sqrt(2.2e-16), or after 500
    evaluations, scipy's default.
    """
    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            # Try a parabola through the three best points.
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
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
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx
