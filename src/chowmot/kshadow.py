"""Rational K-theory classes represented by their Chern characters.

The Chern character identifies K_0(X) tensor Q with the rational
intersection ring, so a K-class is stored faithfully as a cycle.  Kernel
composition and the identity kernel follow from Grothendieck-Riemann-Roch.
A kernel maps to its Mukai vector ch(E) * sqrt(td), a graded correspondence;
that this respects composition is Mukai's theorem, which
`motives.compatibility_check` tests.

`KKernel(...)`, which `KKernel.from_json` calls, checks that the class lives
on source x target; the kernels and correspondences computed here from
checked ones are made by their classes' `_built` without that check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chern import _todd_factor_series, mul_todd_power
from .corr import GradedCorrespondence, compose_graded, diagonal_pushforward
from .errors import DomainMismatchError, InvalidInputError
from .ring import Cycle, Variety, _from_json, _require_instance, _to_json, _Value

# The powers of td(X x Y) in a Mukai vector and of td(X) in the identity kernel.
_MUKAI_POWER = Fraction(1, 2)
_IDENTITY_POWER = Fraction(-1)


class KKernel(_Value):
    """A K-class on X x Y, recorded by its Chern character `ch`, regarded as
    a kernel from X to Y (the K-theoretic shadow of a Fourier-Mukai kernel).
    Any cycle on X x Y is legal; the rank is its constant term."""

    source: Variety
    target: Variety
    ch: Cycle

    _noun = "kernel"
    to_json = _to_json
    from_json = classmethod(_from_json)

    def __post_init__(self) -> None:
        self._require_types(source=Variety, target=Variety, ch=Cycle)
        if self.ch.variety != self.source * self.target:
            raise InvalidInputError(
                f"kernel class lives on {self.ch.variety}, expected {self.source * self.target}"
            )

    @classmethod
    def from_ch(cls, source: Variety, target: Variety, ch: Cycle) -> "KKernel":
        """The kernel with Chern character `ch`: the checked constructor
        under a second name, kept for callers outside the package."""
        return cls(source, target, ch)


def euler_characteristic(ch: Cycle) -> Fraction:
    """chi(X, E) of the K-class with Chern character `ch` by Riemann-Roch:
    the degree of ch(E) * td(X), read as the pairing
    sum_e ch[e] * prod_i td(P^{n_i})[n_i - e_i] with no product built."""
    factors = _require_instance(ch, Cycle).variety.factors
    per_factor = [_todd_factor_series(n, 1) for n in factors]
    fields = [(shift, mask, n, t)
              for (shift, mask), n, (_, t) in zip(ch.variety._layout.fields, factors, per_factor)]
    total = sum(v * math.prod(t[n - ((key >> shift) & mask)] for shift, mask, n, t in fields)
                for key, v in ch._num.items())
    return Fraction(total, ch._den * math.prod(den for den, _ in per_factor))


def chow_image(kernel: KKernel) -> GradedCorrespondence:
    """The graded correspondence attached to a kernel: its Mukai vector
    ch(E) * sqrt(td) on the product."""
    return GradedCorrespondence._built(_require_instance(kernel, KKernel).source, kernel.target,
                                       mul_todd_power(kernel.ch, _MUKAI_POWER))


def k_compose(e: KKernel, f: KKernel) -> KKernel:
    """Composite kernel (e first, then f) by Grothendieck-Riemann-Roch for
    the projection p13 of X x Y x Z:
    ch(E o F) = p13_*(p12^* ch E . p23^* ch F . p2^* td Y)."""
    if _require_instance(e, KKernel).target != _require_instance(f, KKernel).source:
        raise DomainMismatchError(f"middle variety mismatch: {e.target} vs {f.source}")
    twisted = mul_todd_power(f.ch, 1, range(f.source.num_factors))
    composed = compose_graded(
        GradedCorrespondence._built(e.source, e.target, e.ch),
        GradedCorrespondence._built(f.source, f.target, twisted),
    )
    return KKernel._built(e.source, f.target, composed.cycle)


def identity_kernel(variety: Variety) -> KKernel:
    """The kernel of the identity functor, the class of the diagonal's
    structure sheaf: by GRR for the diagonal and the projection formula
    (the diagonal pulls td(X x X) back to td(X)^2), ch = diagonal_*(td(X)^-1)."""
    ch = diagonal_pushforward(variety, mul_todd_power(Cycle.one(variety), _IDENTITY_POWER))
    return KKernel._built(variety, variety, ch)

