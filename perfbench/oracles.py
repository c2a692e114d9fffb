"""Independent references for the benchmark's exact output checks.

Cycles are plain `{exponent tuple: Fraction}` maps read straight from the
JSON, and every expected value is computed here by a route of its own: the
Todd class factor by factor from `td(P^n) = (h / (1 - e^-h))^(n+1)`, the
diagonal from its closed form, and composition as a product of the action
matrices on monomials.  A change to the engine therefore cannot certify its
own output.
"""

import itertools
import math
from fractions import Fraction


def cycle_terms(data) -> tuple[tuple[int, ...], dict]:
    """(factors, terms) of a cycle JSON object."""
    factors = tuple(data["variety"]["factors"])
    return factors, {tuple(t["exps"]): Fraction(t["coeff"]) for t in data["terms"]}


def monomials(factors):
    return itertools.product(*(range(n + 1) for n in factors))


def product(a: dict, b: dict, bounds) -> dict:
    """Truncated polynomial product of two term maps."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if all(x <= n for x, n in zip(e, bounds)):
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# -- univariate series, coefficient lists truncated at `order` ----------------


def _mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def _todd_generator(order):
    """x / (1 - e^-x), by inverting (1 - e^-x) / x = sum (-1)^j x^j / (j+1)!."""
    s = [Fraction((-1) ** j, math.factorial(j + 1)) for j in range(order + 1)]
    out = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        out[k] = -sum(s[i] * out[k - i] for i in range(1, k + 1))
    return out


def _power(series, exponent: Fraction, order):
    """series ** exponent for series[0] == 1, by the binomial series in
    u = series - 1 (finite, since u has no constant term)."""
    u = [Fraction(0)] + list(series[1: order + 1])
    out = [Fraction(1)] + [Fraction(0)] * order
    u_power = list(out)
    binom = Fraction(1)
    for m in range(1, order + 1):
        u_power = _mul(u_power, u, order)
        binom = binom * (exponent - m + 1) / m
        out = [o + binom * p for o, p in zip(out, u_power)]
    return out


def _factorwise(factors, exponent_of) -> dict:
    """prod_i f_i(h_i) where f_i = (x / (1 - e^-x)) ** exponent_of(n_i)."""
    per_factor = [_power(_todd_generator(n), exponent_of(n), n) for n in factors]
    terms = {}
    for exps in monomials(factors):
        c = Fraction(1)
        for series, e in zip(per_factor, exps):
            c *= series[e]
        if c:
            terms[exps] = c
    return terms


def todd(factors) -> dict:
    return _factorwise(factors, lambda n: Fraction(n + 1))


def sqrt_todd(factors) -> dict:
    return _factorwise(factors, lambda n: Fraction(n + 1, 2))


def diagonal(factors) -> dict:
    """Class of the diagonal in X x X: prod_i sum_a h_i^a h_i'^(n_i - a)."""
    return {
        tuple(exps) + tuple(n - a for n, a in zip(factors, exps)): Fraction(1)
        for exps in monomials(factors)
    }


def is_identity_kernel(kernel) -> bool:
    """ch(E) * sqrt(td(X x X)) is the diagonal exactly when E is the identity
    kernel, because sqrt(td) is invertible."""
    factors = tuple(kernel["source"]["factors"])
    square, ch = cycle_terms(kernel["ch"])
    return product(ch, sqrt_todd(square), square) == diagonal(factors)


# -- correspondences as matrices acting on monomials --------------------------


def action(corr) -> dict:
    """c_*(h^a) = p2_*(p1^* h^a . c) = sum_y c[(top - a, y)] h^y, as
    {a: {y: coeff}}."""
    top = tuple(corr["source"]["factors"])
    k = len(top)
    _, terms = cycle_terms(corr["cycle"])
    matrix: dict = {}
    for exps, c in terms.items():
        a = tuple(n - e for n, e in zip(top, exps[:k]))
        matrix.setdefault(a, {})[exps[k:]] = c
    return matrix


def then(mf: dict, mg: dict, source) -> dict:
    """Action of f first, then g, on every monomial of the source."""
    out = {}
    for a in monomials(source):
        acc: dict = {}
        for y, c in mf.get(a, {}).items():
            for z, d in mg.get(y, {}).items():
                acc[z] = acc.get(z, 0) + c * d
        acc = {z: v for z, v in acc.items() if v}
        if acc:
            out[a] = acc
    return out


def identity_action(factors) -> dict:
    return {a: {a: Fraction(1)} for a in monomials(factors)}
