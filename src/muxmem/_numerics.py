"""Pure-Python ports of the two numerical routines behind ``cavity``.

Each performs the published algorithm's floating-point operations in
their order, or, where a comment says so, operations with provably the
same result, so it returns the same bits as the scipy routine it replaces;
the tests compare them with ``==``.  ``cavity`` imports this module on
first use, so ``import muxmem`` does not pay for it.

:func:`qagp` is QUADPACK's adaptive integrator with break points,
``dqagpe``, with its 21-point Gauss–Kronrod rule ``dqk21``, the error-list
sort ``dqpsrt`` and the epsilon-algorithm extrapolation ``dqelg``
(Piessens, de Doncker-Kapenga, Überhuber and Kahaner, *QUADPACK*, Springer
1983), as run by ``scipy.integrate.quad``.  Its lists keep QUADPACK's
1-based indices; slot 0 is unused.  The integrand, the Gaussian pulse
spectrum over the shifted Lorentzian,

    norm * exp(-x * x / two_var) / (1 + ((x - delta) / half_gamma) ** 2),

is written out inside :func:`_qk21`, so no function is called per point.

:func:`bounded_minimum` is Brent's bounded minimizer, as run by
``scipy.optimize.minimize_scalar(method="bounded")``.
"""

from __future__ import annotations

import warnings
from math import exp, sqrt

_EPMACH = 2.220446049250313e-16      # d1mach(4), the spacing of doubles at 1
_UFLOW = 2.2250738585072014e-308     # d1mach(1), the smallest normal double
_OFLOW = 1.7976931348623157e308      # d1mach(2), the largest double

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
    3: "the integrand behaves extremely badly at some points of the interval",
    4: "the extrapolation does not converge because of roundoff",
    5: "the integral is probably divergent or slowly convergent",
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


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep ``iord`` in descending error order; return (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one epsilon-algorithm step on epstab[1..n]; return (n, nres, result, abserr)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy.
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))
    return n, nres, result, abserr


def qagp(coef, a, b, points, epsabs, epsrel, limit):
    """dqagpe: integral of the overlap integrand over [a, b], with break points.

    ``coef`` is (norm, two_var, delta, half_gamma).  ``points`` must be
    sorted, unique and strictly inside (a, b), with a < b and
    len(points) + 2 <= limit, as ``scipy.integrate.quad`` leaves them; they
    are not checked.  ``norm`` must be positive, so the integrand is never
    negative: dqagpe's integral of |f| is then the integral of f bit for
    bit, and its divergence test for an integrand of changing sign never
    applies, so neither is computed.  Returns the estimate.  When
    QUADPACK's error code is 1 to 5 the estimate is returned with a
    ``UserWarning`` naming the condition, as ``quad`` does.
    """
    norm, two_var, delta, half_gamma = coef
    npts = len(points)
    npts2 = npts + 2
    nint = npts + 1
    pts = [0.0, a, *points, b]
    # Interval lists, grown by one slot per bisection: slot ``last`` is
    # appended where dqagpe first writes it.
    alist = [0.0]
    blist = [0.0]
    rlist = [0.0]
    elist = [0.0]
    iord = [0]
    level = [0] * (nint + 1)
    ier = 0

    # First integral and error approximations, one per break-point interval.
    result = 0.0
    abserr = 0.0
    flat = []
    a1 = pts[1]
    for i in range(1, nint + 1):
        b1 = pts[i + 1]
        area1, error1, resa = _qk21(a1, b1, norm, two_var, delta, half_gamma)
        abserr = abserr + error1
        result = result + area1
        flat.append(error1 == resa and error1 != 0.0)
        elist.append(error1)
        alist.append(a1)
        blist.append(b1)
        rlist.append(area1)
        iord.append(i)
        a1 = b1
    errsum = 0.0
    for i in range(1, nint + 1):
        if flat[i - 1]:
            elist[i] = abserr
        errsum = errsum + elist[i]

    last = nint
    errbnd = max(epsabs, epsrel * result)
    if abserr <= 100.0 * _EPMACH * result and abserr > errbnd:
        ier = 2
    if nint != 1:
        for i in range(1, npts + 1):
            ind1 = iord[i]
            k = i
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if elist[ind1] > elist[ind2]:
                    continue
                ind1 = ind2
                k = j
            if ind1 != iord[i]:
                iord[k] = iord[i]
                iord[i] = ind1
        if limit < npts2:
            ier = 1
    if ier != 0 or abserr <= errbnd:
        return _finish(result, ier)

    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    maxerr = iord[1]
    errmax = elist[maxerr]
    area = result
    nrmax = 1
    nres = 0
    numrl2 = 1
    ktmin = 0
    extrap = False
    noext = False
    erlarg = errsum
    ertest = errbnd
    levmax = 1
    iroff1 = iroff2 = iroff3 = 0
    ierro = 0
    correc = 0.0
    abserr = _OFLOW

    # Main loop: bisect the interval with the nrmax-th largest error.
    for last in range(npts2, limit + 1):
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, defab1 = _qk21(a1, b1, norm, two_var, delta, half_gamma)
        area2, error2, defab2 = _qk21(a2, b2, norm, two_var, delta, half_gamma)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if (abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12)
                    and erro12 >= 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        level[maxerr] = levcur
        level.append(levcur)
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _finish(_sum_areas(rlist), ier)
        if ier != 0:
            break
        if noext:
            continue
        erlarg = erlarg - erlast
        if levcur + 1 <= levmax:
            erlarg = erlarg + erro12
        if not extrap:
            # Is the interval to be bisected next the smallest one?
            if level[maxerr] + 1 <= levmax:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # The smallest interval has the largest error: bisect the
            # larger intervals first, so erlarg falls before extrapolating.
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if level[maxerr] + 1 <= levmax:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        if numrl2 > 2:
            numrl2, nres, reseps, abseps = _qelg(numrl2, rlist2, res3la, nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr < ertest:
                    break
            if numrl2 == 1:
                noext = True
            if ier >= 5:
                break
        # Prepare to bisect the smallest interval.
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        levmax += 1
        erlarg = errsum

    # Set the final result: the extrapolated one, unless the plain sum of
    # the areas has the smaller relative error.
    if abserr == _OFLOW:
        return _finish(_sum_areas(rlist), ier)
    if ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _finish(_sum_areas(rlist), ier)
        elif abserr > errsum:
            return _finish(_sum_areas(rlist), ier)
        elif area == 0.0:
            return _finish(result, ier)
    # Test on divergence.
    if 0.01 > result / area or result / area > 100.0 or errsum > abs(area):
        ier = 6
    return _finish(result, ier)


def _sum_areas(rlist):
    # One by one, as dqagpe adds them (``sum`` compensates from Python 3.12).
    result = 0.0
    for area in rlist[1:]:
        result = result + area
    return result


def _finish(result, ier):
    if ier > 2:
        ier -= 1
    if ier:
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
