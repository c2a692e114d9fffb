"""Intersection rings of products of projective spaces, with exact arithmetic.

For X = P^{n_1} x ... x P^{n_k} the ring is Q[h_1, ..., h_k]/(h_i^{n_i+1}):
a cycle class is a sparse rational combination of monomials whose exponents
stay below the per-variable nilpotency bounds.  The grading by total exponent
is the codimension grading.  Arithmetic is exact; no floating point appears
anywhere in the engine.

Representation.  A cycle is integer numerators over one denominator, keyed
by packed monomials (integer coefficients over a common denominator, as in
FLINT's fmpq_poly; packed exponent vectors after Monagan and Pearce):

- Key layout (`_Layout`): factor i owns a bit field of width
  w_i = max(1, n_i.bit_length()) + 1, factor 0 in the most significant
  field, so sorting keys sorts exponent tuples lexicographically.  X x Y
  puts X's fields above Y's: a key of X x Y splits with one shift and one
  mask, and on a key whose exponents stay within the bounds, top - key is
  the complementary monomial, field by field.
- Guard and bias: the top bit of each field is a guard bit, always 0 in a
  stored key.  A product of monomials k1 * k2 is the key k1 + k2, and it
  survives truncation exactly when (k1 + k2 + bias) & guard == 0, where
  bias holds 2^(w_i - 1) - 1 - n_i in field i; no field carries into the
  next.
- Common denominator: `_den` is a positive int and `_num` maps keys to
  nonzero ints, the coefficient of a key being `_num[key] / _den`.
- Canonical form: gcd(_den, *_num.values()) == 1, and the zero cycle is
  (1, {}).  Equal classes therefore have equal fields, and equality and
  hashing compare (variety, _den, _num).  `Cycle.terms`, the public view
  keyed by exponent tuples with Fraction values, is built on first access.

Every value has two ways in.  Outside input goes through a checked
constructor, the one place a field rule lives: `Cycle(...)` and `from_json`
check every term, `Variety(...)` every factor, each constructor its fields.
The other `from_json` only parse, most through one codec (`_from_json`).
Results the engine computes are correct by construction and skip the checks:
cycles are built from integer numerators by `_cycle` (already canonical),
`_reduced` (drops cancelled terms and the common factor; both keep the
caller's fresh dict when they can) or `_total` (sums cycles), truncated
products of numerator maps are added up by `_add_product` (for `intersect`
and the series of `chern`), and every value of the `_Value` base (varieties
here, correspondences, kernels and motives in the layers above) is built by
`_built`.

Varieties are shared: `make_variety`, `Variety.from_json` and the engine's
products, selection targets and permutations return the one variety of a
factor tuple from a bounded table (`_variety`).  The checked routes check
the factors before the lookup, since (True,) and (1.0,) are keys equal to
(1,).  A variety stores its key layout and hash on first use, and `==`
tests identity first; sharing is only that fast path, so a variety made
any other way (`Variety(...)`, a copy, an unpickled one) compares and
hashes alike.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod
from operator import attrgetter
from types import MappingProxyType

from .errors import DomainMismatchError, InvalidInputError

Exponents = tuple[int, ...]

_SCALARS = (int, Fraction)

# Work budget of one operation, checked before it builds a dense class: the
# monomials of its working ring (X for a class on X, X x X for a kernel or a
# diagonal, X x Y for a correspondence) and the order of its series.  The
# series are exact rational arithmetic, O(order^2) operations on numbers
# that grow with the order: a cold `sqrt-todd` on P^n, nearly all of it the
# factor series, takes 0.07-0.09 s at n = 128, 0.21 s at 256 and (in process,
# budget lifted) 1.8-2.0 s at 512 on a 2-vCPU machine, so the order stops
# where the series of one call stay within 2 s.
MAX_MONOMIALS = 1 << 18
MAX_SERIES_ORDER = 256

# Entries of each cache of values computed once per process (README,
# "Computed once per process"): above the 11 diagonals, 9 Todd series and 26
# Todd plans of `verify`; within the budget an entry takes at most 85 KiB,
# a plan 48 KiB of its own.
CACHE_ENTRIES = 64

# Entries of the table of shared varieties (`_variety`): above the 94
# distinct varieties `verify` makes; an entry takes about 1 KiB.
VARIETY_ENTRIES = 128


class _Value:
    """Base of the engine's immutable values.  A subclass lists its fields
    as annotations, every one required: values of one class compare and
    hash by the tuple of their fields.  Construction runs `__post_init__`."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)  # a bare value, not a tuple, for one field
        if len(cls._fields) == 1 and "__hash__" not in cls.__dict__:
            cls.__hash__ = lambda self: hash((self._key(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # keywords, checked
            if len(args) + len(kwargs) != len(fields) or not kwargs.keys() <= set(fields[len(args):]):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
            args = (*args, *(kwargs[name] for name in fields[len(args):]))
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _require_types(self, **types) -> None:
        """Refuse a value whose field `name` is not a `types[name]`."""
        for name, cls in types.items():
            if not isinstance(field := getattr(self, name), cls):
                raise InvalidInputError(f"{type(self).__name__} {name} must be a {cls.__name__}, got {field!r}")

    def _require_tuple(self, name: str, cls: type) -> None:
        """Store the field `name`, an iterable of `cls`, as a tuple; refuse anything else."""
        field = getattr(self, name)
        items = tuple(field) if hasattr(field, "__iter__") else None
        if items is None or not all(isinstance(item, cls) for item in items):
            raise InvalidInputError(f"{type(self).__name__} {name} must be a tuple of {cls.__name__}, got {field!r}")
        object.__setattr__(self, name, items)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    __delattr__ = __setattr__


class Variety(_Value):
    """A finite product of projective spaces, recorded as the tuple of factor
    dimensions.  The empty tuple is the point Spec K; factor order matters
    (``X * Y`` and ``Y * X`` are different presentations related by
    transposition).  Its key layout and hash are computed on first use and
    then stored on it."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", make_variety(self.factors).factors)

    @functools.cached_property
    def _layout(self) -> "_Layout":
        return _Layout(self.factors)

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.factors,))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return sum(self.factors)

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def __mul__(self, other: "Variety") -> "Variety":
        if not isinstance(other, Variety):
            return NotImplemented
        return _variety(self.factors + other.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "Spec(K)"
        return " x ".join(f"P^{n}" for n in self.factors)

    def to_json(self) -> dict:
        return {"factors": list(self.factors)}

    @classmethod
    def from_json(cls, data: object) -> "Variety":
        factors = _json_object("variety", data, cls._fields)["factors"]
        if not isinstance(factors, list):
            raise InvalidInputError(f"'factors' must be a list, got {factors!r}")
        return make_variety(factors)


def _built(cls, *values):
    """An instance of a `_Value` class from field values the engine
    computed, correct by construction, made without running its checks.
    The values follow the field order of `cls._fields`."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls._fields, values))
    return obj


def _json_object(noun: str, data: object, keys) -> dict:
    """`data`, refused unless it is a JSON object holding every key."""
    if not isinstance(data, dict) or not set(keys) <= data.keys():
        raise InvalidInputError(f"{noun} must be an object with {', '.join(map(repr, keys))}, got {data!r}")
    return data


def _to_json(self) -> dict:
    """The JSON object of a value: each field by name, a variety or cycle by
    its own `to_json`."""
    values = (getattr(self, name) for name in self._fields)
    return {name: v.to_json() if isinstance(v, Variety | Cycle) else v for name, v in zip(self._fields, values)}


def _from_json(cls, data: object):
    """The value of `cls` (`cls._noun` in messages) from its JSON object:
    each field in field order, read by `from_json` of its annotated class,
    looked up at the call, or as it is, passed to the checked constructor."""
    data = _json_object(cls._noun, data, cls._fields)
    readers = ({"Variety": Variety, "Cycle": Cycle}.get(cls.__annotations__[name]) for name in cls._fields)
    return cls(*(data[n] if r is None else r.from_json(data[n]) for n, r in zip(cls._fields, readers)))


class _Layout:
    """Where each exponent of a monomial sits in its packed integer key (see
    the module docstring): the (shift, mask) field of each factor, factor 0
    first, and the guard, bias and top keys of the variety."""

    __slots__ = ("fields", "shifts", "bits", "guard", "bias", "top")

    def __init__(self, bounds: tuple[int, ...]):
        fields = []
        shift = guard = bias = top = 0
        for n in reversed(bounds):
            width = max(1, n.bit_length()) + 1
            fields.append((shift, (1 << width) - 1))
            guard |= 1 << (shift + width - 1)
            bias |= ((1 << (width - 1)) - 1 - n) << shift
            top |= n << shift
            shift += width
        self.fields = tuple(reversed(fields))
        self.shifts = tuple(shift for shift, _ in self.fields)
        self.bits = shift
        self.guard = guard
        self.bias = bias
        self.top = top  # key of the point class h_1^{n_1} ... h_k^{n_k}

    def unpack(self, keys: list[int]) -> list[Exponents]:
        """The exponent tuples of the keys."""
        if not self.fields:
            return [()] * len(keys)
        return list(zip(*([(k >> shift) & mask for k in keys] for shift, mask in self.fields)))

    def codim(self, key: int) -> int:
        return sum((key >> shift) & mask for shift, mask in self.fields)


@functools.lru_cache(maxsize=VARIETY_ENTRIES)
def _variety(factors: tuple[int, ...]) -> Variety:
    """The shared variety of a tuple of plain nonnegative ints, which the
    engine computed or a checked route validated."""
    return _built(Variety, factors)


def require_budget(variety: Variety, order: int = 0) -> None:
    """Refuse, before any work, an operation whose working ring `variety` has
    more than MAX_MONOMIALS monomials or whose series order is over
    MAX_SERIES_ORDER."""
    monomials = prod(n + 1 for n in variety.factors)
    if monomials > MAX_MONOMIALS or order > MAX_SERIES_ORDER:
        try:
            count = f"{monomials} monomials"
        except ValueError:  # str(int) past sys.get_int_max_str_digits()
            count = f"more than 10^{sys.get_int_max_str_digits()} monomials"
        raise InvalidInputError(f"{variety} ({count}) with series order {order} is over "
                                f"the budget of {MAX_MONOMIALS} monomials and series order {MAX_SERIES_ORDER}")


def make_variety(dims: list[int] | tuple[int, ...]) -> Variety:
    """Product of projective spaces of the given dimensions; [] is Spec K.
    Equal dimensions give one shared variety."""
    factors = _as_tuple(dims, "factor dimensions")
    for n in factors:  # before the lookup: (True,) and (1.0,) are keys equal to (1,)
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InvalidInputError(f"factor dimensions must be nonnegative integers, got {n!r}")
    return _variety(factors)


def _as_fraction(value: object) -> Fraction | int:
    """An exact rational from outside the ring; an int is returned as it is,
    since it has a numerator and a denominator like a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        # an exponent is expanded, so one past Python's digit limit is refused
        limit = sys.get_int_max_str_digits()
        try:
            exponent = value.lower().partition("e")[2]
            if exponent and 0 < limit < abs(int(exponent)):
                raise ValueError(f"exponent {exponent.strip()} exceeds {limit}")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad rational literal {value!r}: {exc}") from exc
    raise InvalidInputError(f"coefficients must be exact rationals, got {value!r}")


def _as_text(value: Fraction | int, den: int = 1) -> str:
    """The coefficient value / den as text, in lowest terms as `Fraction`
    prints it, with one gcd for an int over den > 1; one whose numerator or
    denominator is longer than Python's digit limit cannot be printed and
    is refused."""
    try:
        if den == 1:
            return str(value)
        g = gcd(value, den)
        return str(value // g) if g == den else f"{value // g}/{den // g}"
    except ValueError as exc:  # str(int) past sys.get_int_max_str_digits()
        raise InvalidInputError(
            f"result coefficient exceeds the {sys.get_int_max_str_digits()}-digit limit for printing"
        ) from exc


def _checked(variety: Variety, items):
    """Validate (exponents, coefficient) pairs from outside the ring, drop
    monomials at or above a nilpotency bound, and yield the others as
    (packed key, coefficient)."""
    bounds = variety.factors
    shifts = variety._layout.shifts
    for exps, coeff in items:
        exps = _as_tuple(exps, "exponent vector")
        if len(exps) != len(bounds):
            raise InvalidInputError(f"exponent vector {exps} has wrong length for {variety}")
        key = 0
        for e, n, shift in zip(exps, bounds, shifts):
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise InvalidInputError(f"exponents must be nonnegative integers, got {e!r}")
            if key >= 0:
                key = key | e << shift if e <= n else -1  # h_i^{n_i+1} = 0
        coeff = _as_fraction(coeff)
        if key >= 0:
            yield key, coeff


class Cycle:
    """An element of the rational intersection ring of a `Variety`, stored
    as `_num / _den` in the canonical form of the module docstring.
    Monomials at or above a nilpotency bound are dropped on construction.
    Instances are immutable and hashable: `terms`, the read-only Fraction
    view, is built on first access, and every operation returns a new
    cycle.
    """

    __slots__ = ("variety", "_den", "_num", "_terms")

    def __init__(self, variety: Variety, terms: Mapping | None = None):
        _require_instance(variety, Variety)
        if not isinstance(terms, Mapping | None):
            raise InvalidInputError(f"terms must be a mapping of exponents to coefficients, got {terms!r}")
        den, num = _over_common_denominator(_checked(variety, (terms or {}).items()))
        _set_variety(self, variety)
        _set_den(self, den)
        _set_num(self, num)

    def __setattr__(self, name, value):
        raise AttributeError("Cycle instances are immutable")

    @property
    def terms(self) -> MappingProxyType:
        """Read-only map from exponent tuples to nonzero Fractions."""
        try:
            return self._terms
        except AttributeError:
            den = self._den
            exps = self.variety._layout.unpack(list(self._num))
            view = MappingProxyType({e: Fraction(v, den) for e, v in zip(exps, self._num.values())})
            object.__setattr__(self, "_terms", view)
            return view

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variety: Variety) -> "Cycle":
        return _cycle(_require_instance(variety, Variety), 1, {})

    @classmethod
    def one(cls, variety: Variety) -> "Cycle":
        return _cycle(_require_instance(variety, Variety), 1, {0: 1})  # key 0 is the constant monomial

    @classmethod
    def monomial(cls, variety: Variety, exps, coeff=1) -> "Cycle":
        return cls(variety, {_as_tuple(exps, "exponent vector"): coeff})

    @classmethod
    def hyperplane(cls, variety: Variety, index: int) -> "Cycle":
        """The hyperplane class h_{index} pulled back from the given factor."""
        k = _require_instance(variety, Variety).num_factors
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < k:
            raise InvalidInputError(f"no factor {index!r} on {variety}")
        exps = tuple(1 if i == index else 0 for i in range(k))
        return cls(variety, {exps: 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, exps) -> Fraction:
        exps = _as_tuple(exps, "exponent vector")
        for e in exps:
            _require_int(e, "exponent")
        return self.terms.get(exps, Fraction(0))

    def codimensions(self) -> list[int]:
        """Sorted list of codimensions in which the cycle has a nonzero term."""
        codim = self.variety._layout.codim
        return sorted({codim(k) for k in self._num})

    def is_homogeneous(self, k: int) -> bool:
        """True when every stored term has codimension exactly k (the zero
        cycle is homogeneous of every codimension)."""
        _require_int(k, "codimension")
        codim = self.variety._layout.codim
        return all(codim(key) == k for key in self._num)

    def graded_component(self, k: int) -> "Cycle":
        _require_int(k, "codimension")
        codim = self.variety._layout.codim
        return _reduced(self.variety, self._den,
                        {key: v for key, v in self._num.items() if codim(key) == k})

    def degree(self) -> Fraction:
        """Coefficient of the top monomial: the pushforward to Spec K of the
        top graded piece.  Lower-codimension components contribute 0."""
        return Fraction(self._num.get(self.variety._layout.top, 0), self._den)

    # -- arithmetic --------------------------------------------------------

    def _require_same_variety(self, other: "Cycle") -> None:
        if self.variety != other.variety:
            raise DomainMismatchError(
                f"cycles live on different varieties: {self.variety} vs {other.variety}"
            )

    def __add__(self, other: "Cycle") -> "Cycle":
        if not isinstance(other, Cycle):
            return NotImplemented
        self._require_same_variety(other)
        return _total(self.variety, (self, other))

    def __neg__(self) -> "Cycle":
        return _cycle(self.variety, self._den, {k: -v for k, v in self._num.items()})

    def __sub__(self, other: "Cycle") -> "Cycle":
        if not isinstance(other, Cycle):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Cycle):
            return self.intersect(other)
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar) -> "Cycle":
        scalar = _as_fraction(scalar)
        p, q = scalar.numerator, scalar.denominator
        if not p:
            return _cycle(self.variety, 1, {})
        return _reduced(self.variety, self._den * q, {k: v * p for k, v in self._num.items()})

    def intersect(self, other: "Cycle") -> "Cycle":
        """Truncated polynomial product; codimensions add, and any monomial
        crossing a nilpotency bound is discarded by the guard-bit test."""
        self._require_same_variety(other)
        product = _add_product({}, self.variety, self._num, other._num.items())
        return _reduced(self.variety, self._den * other._den, product)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cycle)
            and self.variety == other.variety
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.variety, self._den, frozenset(self._num.items())))

    def __str__(self) -> str:
        if not self._num:
            return "0"
        num, den = self._num, self._den
        keys = sorted(num)  # the order of the exponent tuples
        parts = []
        for key, exps in zip(keys, self.variety._layout.unpack(keys)):
            v = num[key]
            monomial = "*".join(f"h{i + 1}" if e == 1 else f"h{i + 1}^{e}" for i, e in enumerate(exps) if e)
            if not monomial:
                parts.append(_as_text(v, den))
            elif v == den:
                parts.append(monomial)
            elif v == -den:
                parts.append("-" + monomial)
            else:
                parts.append(f"{_as_text(v, den)}*{monomial}")
        return parts[0] + "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in parts[1:])

    def __repr__(self) -> str:
        return f"<Cycle {self} on {self.variety}>"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        num, den = self._num, self._den
        keys = sorted(num)
        return {
            "variety": self.variety.to_json(),
            "terms": [
                {"exps": list(e), "coeff": _as_text(num[k], den)}
                for k, e in zip(keys, self.variety._layout.unpack(keys))
            ],
        }

    @classmethod
    def from_json(cls, data: object) -> "Cycle":
        data = _json_object("cycle", data, ("variety", "terms"))
        variety = Variety.from_json(data["variety"])
        raw = data["terms"]
        if not isinstance(raw, list):
            raise InvalidInputError(f"'terms' must be a list, got {raw!r}")
        pairs = []
        for item in raw:
            if not isinstance(item, dict) or "exps" not in item or "coeff" not in item:
                raise InvalidInputError(f"each term needs 'exps' and 'coeff', got {item!r}")
            exps = item["exps"]
            if not isinstance(exps, list) or any(type(e) is not int for e in exps):
                raise InvalidInputError(f"'exps' must be a list of integers, got {exps!r}")
            pairs.append((exps, _as_fraction(item["coeff"])))
        return _cycle(variety, *_over_common_denominator(_checked(variety, pairs)))


def _over_common_denominator(pairs) -> tuple[int, dict]:
    """(den, num) of the sum of (packed key, Fraction or int) pairs, without
    the cancelled terms, den the lcm of the summed coefficients'
    denominators.  That is already lowest terms: for each prime p dividing
    den, the coefficient with the most factors p in its denominator keeps a
    numerator prime to p."""
    acc: dict[int, Fraction | int] = {}
    for k, c in pairs:
        acc[k] = acc[k] + c if k in acc else c
    if all(type(c) is int for c in acc.values()):  # no Fraction: den is 1, no lcm
        return 1, {k: c for k, c in acc.items() if c}
    den = lcm(*[c.denominator for c in acc.values()])  # a zero sum has denominator 1
    return den, {k: c.numerator * (den // c.denominator) for k, c in acc.items() if c}


def _require_instance(value, cls: type):
    """The argument, checked to be a `cls`."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"expected a {cls.__name__}, got {value!r}")
    return value


def _as_tuple(value, what: str) -> tuple:
    """The argument `what`, an iterable, as a tuple."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be a sequence of integers, got {value!r}") from None


def _require_int(value, what: str) -> int:
    """The argument `what`, checked to be an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return value


_set_variety, _set_den, _set_num = (Cycle.__dict__[name].__set__ for name in ("variety", "_den", "_num"))


def _cycle(variety: Variety, den: int, num: dict) -> Cycle:
    """The cycle num / den, already canonical (no zero numerator, gcd 1);
    unchecked.  `num` becomes the cycle's own map."""
    c = object.__new__(Cycle)
    _set_variety(c, variety)
    _set_den(c, den)
    _set_num(c, num)
    return c


def _reduced(variety: Variety, den: int, acc: dict) -> Cycle:
    """The cycle acc / den of accumulated numerators, without the cancelled
    terms, in lowest terms.  With nothing to drop or divide, `acc` becomes
    the cycle's own map: every caller passes a fresh dict it never changes again."""
    if 0 in acc.values():
        acc = {k: v for k, v in acc.items() if v}
    if den != 1 and (g := gcd(den, *acc.values())) != 1:
        den //= g
        acc = {k: v // g for k, v in acc.items()}
    return _cycle(variety, den, acc)


def _add_product(acc: dict, variety: Variety, left: dict, right) -> dict:
    """Add left * right, the truncated product on `variety` of a numerator
    map and the (key, numerator) pairs `right` (a map's items, or a list
    the caller has scaled), into `acc` and return it; a monomial crossing a
    nilpotency bound is discarded by the guard-bit test, and cancelled terms
    stay as zeros."""
    layout = variety._layout
    guard, bias = layout.guard, layout.bias
    get = acc.get
    for k1, v1 in left.items():
        kb = k1 + bias
        for k2, v2 in right:
            if not (kb + k2) & guard:
                k = k1 + k2
                acc[k] = get(k, 0) + v1 * v2
    return acc


def _total(variety: Variety, cycles) -> Cycle:
    """The sum of cycles on one variety, over the lcm of their denominators."""
    den = lcm(*(c._den for c in cycles))
    acc: dict[int, int] = {}
    get = acc.get
    for c in cycles:
        m = den // c._den
        for k, v in c._num.items():
            acc[k] = get(k, 0) + v * m
    return _reduced(variety, den, acc)
