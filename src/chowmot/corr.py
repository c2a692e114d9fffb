"""Correspondence calculus on products of projective spaces.

Pullback and pushforward along factor projections, diagonal classes, the
external product of correspondences (`external_product`, the tensor product
of motives and of their morphisms, and from the point the cartesian product
of cycles), and composition of correspondences.  Composition matches
middle exponents: a term of the first cycle pairs with the terms of the
second whose exponents on the middle factor complete it to the top
monomial, which equals the pullback-intersect-pushforward pipeline through
the triple product; a test holds the two routes together.  The diagonal
pushforward spreads each term directly by the projection formula, and the
diagonal class is the pushforward of 1; `GradedCorrespondence.identity`
computes it once per variety and shares it.

Composition contracts f(x, y) against g(top - y, z) in one of two loops
with the same numerators, over one map of g's rows by middle key.  The dict
loop looks up each term's partner row first, so a term of f with none (most
terms of sparse operands) costs one lookup, and then makes one interpreted
dict update per product of terms.  The packed loop (Kronecker substitution)
packs each row of g, its terms sharing one middle key, into an integer with
a slot per Z key, so a term of f costs one big-integer multiply-add.  It
runs when g has at least PACKED_MIN_PARTNERS terms per row on average and a
slot fits in PACKED_MAX_BITS bits: on [4,4] it is 2.7x as fast at 8
partners and 6.5x at 25, but 0.7x at one partner and 0.24x with 300-digit
coefficients.

`GradedCorrespondence(...)`, which `from_json` calls, checks that the cycle
lives on source x target; every correspondence built here from checked ones
(identities, zeros, degree parts, transposes, sums, scalings, external
products, composites) is made by `GradedCorrespondence._built` without that check.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import DomainMismatchError, InvalidInputError
from .ring import (CACHE_ENTRIES, MAX_MONOMIALS, Cycle, Variety, _cycle, _from_json, _reduced,
                   _require_instance, _require_int, _to_json, _Value, _variety, require_budget)


class FactorSelection(_Value):
    """A projection of a product onto a sub-product of its factors, given by
    the strictly increasing list of retained factor indices."""

    source: Variety
    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        self._require_types(source=Variety)
        self._require_tuple("selected", int)
        k = self.source.num_factors
        prev = -1
        for i in self.selected:
            if isinstance(i, bool) or not 0 <= i < k:
                raise InvalidInputError(f"factor index {i!r} out of range for {self.source}")
            if i <= prev:
                raise InvalidInputError("selected indices must be strictly increasing")
            prev = i

    @cached_property
    def target(self) -> Variety:
        return _variety(tuple(self.source.factors[i] for i in self.selected))

    @property
    def unselected(self) -> tuple[int, ...]:
        chosen = set(self.selected)
        return tuple(i for i in range(self.source.num_factors) if i not in chosen)

    def pullback(self, a: Cycle) -> Cycle:
        """Inverse image: re-index exponents from the target's variables into
        the source's, leaving the projected-away variables at exponent 0.
        A degree-zero ring homomorphism."""
        if _require_instance(a, Cycle).variety != self.target:
            raise DomainMismatchError(
                f"cycle on {a.variety} cannot be pulled back along projection onto {self.target}"
            )
        moves = _field_moves(self.target, self.source, enumerate(self.selected))
        return _cycle(self.source, a._den, {_moved(k, moves): v for k, v in a._num.items()})

    def pushforward(self, a: Cycle) -> Cycle:
        """Direct image (integration over the projected-away factors): a term
        survives exactly when every unselected factor carries its top
        exponent, and then loses those entries.  Lowers codimension by the
        dimension of the fibers."""
        if _require_instance(a, Cycle).variety != self.source:
            raise DomainMismatchError(
                f"cycle on {a.variety} cannot be pushed forward from {self.source}"
            )
        fields = self.source._layout.fields
        dropped = sum(fields[i][1] << fields[i][0] for i in self.unselected)
        top = self.source._layout.top & dropped
        moves = _field_moves(self.source, self.target, ((i, j) for j, i in enumerate(self.selected)))
        return _reduced(self.target, a._den, {
            _moved(k, moves): v for k, v in a._num.items() if k & dropped == top
        })


def _field_moves(old: Variety, new: Variety, pairs) -> list[tuple[int, int, int]]:
    """(shift, mask, new shift) for each (old factor, new factor) pair: how
    one exponent field of a key on `old` moves into a key on `new`."""
    old_fields, new_fields = old._layout.fields, new._layout.fields
    return [(*old_fields[i], new_fields[j][0]) for i, j in pairs]


def _moved(key: int, moves) -> int:
    """The key with its fields moved; fields no move fills are 0."""
    return sum(((key >> shift) & mask) << to for shift, mask, to in moves)


def permute_factors(a: Cycle, order: tuple[int, ...]) -> Cycle:
    """Relabel the factors of a product: position j of the result carries the
    old factor order[j].  `order` must be a tuple or list of plain ints that
    permutes the factor indices."""
    k = _require_instance(a, Cycle).variety.num_factors
    if (not isinstance(order, tuple | list) or any(type(i) is not int for i in order)
            or sorted(order) != list(range(k))):
        raise InvalidInputError(f"{order!r} is not a permutation of 0..{k - 1}")
    new_variety = _variety(tuple(a.variety.factors[i] for i in order))
    moves = _field_moves(a.variety, new_variety, ((i, j) for j, i in enumerate(order)))
    return _cycle(new_variety, a._den, {_moved(k, moves): v for k, v in a._num.items()})


def diagonal_pushforward(variety: Variety, g: Cycle) -> Cycle:
    """Direct image of a class along the diagonal embedding of X in X x X.
    By the projection formula it is p1^* g times the diagonal class, so a
    monomial h^e goes to prod_i sum_{a=e_i}^{n_i} h_i^a h_i'^{n_i+e_i-a};
    each term of g is spread directly.  Terms of g spread to disjoint sets
    of keys, since a_i + (n_i + e_i - a_i) recovers e_i.  Raises
    codimension by dim X."""
    if _require_instance(g, Cycle).variety != _require_instance(variety, Variety):
        raise DomainMismatchError(f"cycle on {g.variety} is not a class on {variety}")
    require_budget(variety * variety)
    layout = variety._layout
    bits = layout.bits
    fields = [(shift, mask, n) for (shift, mask), n in zip(layout.fields, variety.factors)]

    def spread(key):
        keys = [0]
        for shift, mask, n in fields:
            e = (key >> shift) & mask
            parts = [((a << bits) | (n + e - a)) << shift for a in range(e, n + 1)]
            keys = [k + part for k in keys for part in parts]
        return keys

    return _cycle(variety * variety, g._den, {
        k: v for key, v in g._num.items() for k in spread(key)
    })


def diagonal_class(variety: Variety) -> Cycle:
    """Class of the diagonal of X in X x X, the direct image of 1; for a
    single P^n factor it is sum_{i} h1^i h2^{n-i}."""
    return diagonal_pushforward(variety, Cycle.one(variety))


class GradedCorrespondence(_Value):
    """A cycle on X x Y regarded as a morphism from X to Y; its degree-d part
    is the codimension (dim X + d) graded component of the cycle."""

    source: Variety
    target: Variety
    cycle: Cycle

    _noun = "correspondence"
    to_json = _to_json
    from_json = classmethod(_from_json)

    def __post_init__(self) -> None:
        self._require_types(source=Variety, target=Variety, cycle=Cycle)
        if self.cycle.variety != self.source * self.target:
            raise DomainMismatchError(
                f"cycle lives on {self.cycle.variety}, expected {self.source * self.target}"
            )

    @staticmethod
    def identity(variety: Variety) -> "GradedCorrespondence":
        """The diagonal class, the identity morphism of `variety`: computed
        once per variety and shared; callers never mutate it."""
        return _identity(_require_instance(variety, Variety))

    @staticmethod
    def zero(source: Variety, target: Variety) -> "GradedCorrespondence":
        product = _require_instance(source, Variety) * _require_instance(target, Variety)
        return GradedCorrespondence._built(source, target, Cycle.zero(product))

    @property
    def is_zero(self) -> bool:
        return self.cycle.is_zero

    def degrees(self) -> list[int]:
        base = self.source.dim
        return [k - base for k in self.cycle.codimensions()]

    def degree_component(self, d: int) -> "GradedCorrespondence":
        part = self.cycle.graded_component(self.source.dim + _require_int(d, "degree"))
        return GradedCorrespondence._built(self.source, self.target, part)

    def is_pure_degree(self, d: int) -> bool:
        return self.cycle.is_homogeneous(self.source.dim + _require_int(d, "degree"))

    def transpose(self) -> "GradedCorrespondence":
        """Swap the two factor blocks; involutive.  A key (x, y) of X x Y
        becomes (y, x) on Y x X by one shift and mask each way, as in
        `external_product`; `permute_factors` gives the same cycle, field
        by field."""
        x_bits, y_bits = self.source._layout.bits, self.target._layout.bits
        y_mask = (1 << y_bits) - 1
        cycle = _cycle(self.target * self.source, self.cycle._den,
                       {(k & y_mask) << x_bits | k >> y_bits: v for k, v in self.cycle._num.items()})
        return GradedCorrespondence._built(self.target, self.source, cycle)

    # correspondences between fixed varieties form a Q-module
    def __add__(self, other: "GradedCorrespondence") -> "GradedCorrespondence":
        if not isinstance(other, GradedCorrespondence):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            raise DomainMismatchError("correspondences have different source or target")
        return GradedCorrespondence._built(self.source, self.target, self.cycle + other.cycle)

    def __sub__(self, other: "GradedCorrespondence") -> "GradedCorrespondence":
        return self + -other if isinstance(other, GradedCorrespondence) else NotImplemented

    def __neg__(self) -> "GradedCorrespondence":
        return GradedCorrespondence._built(self.source, self.target, -self.cycle)

    def scale(self, scalar) -> "GradedCorrespondence":
        return GradedCorrespondence._built(self.source, self.target, self.cycle.scale(scalar))


@lru_cache(maxsize=CACHE_ENTRIES)
def _identity(variety: Variety) -> GradedCorrespondence:
    return GradedCorrespondence._built(variety, variety, diagonal_class(variety))


def external_product(f: GradedCorrespondence, g: GradedCorrespondence) -> GradedCorrespondence:
    """The exterior product of f: X -> X' and g: Y -> Y', the correspondence
    X x Y -> X' x Y' whose terms join one term of f with one of g: the kernel
    of the tensor product of the two functors.  A key of f splits into
    (x, x') and one of g into (y, y'), and their product's key is the block
    shuffle (x, y, x', y'), formed by shifts and masks.  Bilinear and
    associative."""
    for c in (f, g):
        _require_instance(c, GradedCorrespondence)
    x2_bits, y_bits, y2_bits = f.target._layout.bits, g.source._layout.bits, g.target._layout.bits
    x2_mask, y2_mask = (1 << x2_bits) - 1, (1 << y2_bits) - 1
    left = [((k >> x2_bits) << (y_bits + x2_bits + y2_bits) | (k & x2_mask) << y2_bits, a)
            for k, a in f.cycle._num.items()]
    right = [((k >> y2_bits) << (x2_bits + y2_bits) | k & y2_mask, b) for k, b in g.cycle._num.items()]
    source, target = f.source * g.source, f.target * g.target
    cycle = _reduced(source * target, f.cycle._den * g.cycle._den,
                     {k1 | k2: a * b for k1, a in left for k2, b in right})
    return GradedCorrespondence._built(source, target, cycle)


# The packed contraction runs when g has on average at least this many
# terms per middle row.  Crossover on [4,4] x [4,4] x [4,4], one-digit
# coefficients (BENCH_packed_compose.json): with f dense the packed loop
# runs at 0.70x the dict loop's speed at 1 partner, 1.0x at 2, 2.7x at 8
# and 6.5x at 25; with 6 of f's 25 terms per X row, 0.64x at 4, 1.0x at 8
# and 2.4x at 25.
PACKED_MIN_PARTNERS = 8

# ... and when a slot, as wide as a product, fits in one machine word.  At
# 8 partners the packed loop runs at 2.0x (f dense) and 1.1x (f at 6 of 25)
# with 140-bit slots, 1.2x and 0.84x at 264 bits, and 0.24x and 0.41x with
# 300-digit numerators (2,006-bit slots).
PACKED_MAX_BITS = 64


def compose_graded(f: GradedCorrespondence, g: GradedCorrespondence) -> GradedCorrespondence:
    """Composite of graded correspondences (f first, then g).

    This is p_XZ*(p_XY* f . p_YZ* g), computed without building X x Y x Z:
    pushing forward along Y keeps a product of terms (e_X, e_Y) . (e_Y', e_Z)
    exactly when e_Y + e_Y' is the top exponent of Y, so each term of f is
    contracted against the row of g with the complementary Y-exponent, its
    partner row, and a term with no partner row contributes nothing.
    The composite is bilinear, so its degree-k part collects all
    compositions of a degree-i part of f with a degree-j part of g with
    i + j = k.

    Two loops give the same numerators (see the module docstring):
    `_contract_packed` when g has at least PACKED_MIN_PARTNERS (8) terms
    per middle row on average and a slot fits in PACKED_MAX_BITS (64) bits,
    `_contract_dict` otherwise and on zero operands; the dict loop looks
    the partner row up before it touches a term's X key.  Both read the
    row map `_middle_rows` builds once per call.  On [4,4] the packed
    loop is 2.7x as fast at 8 partners and 6.5x at 25, level at 8 when f
    has a quarter of its cells, and 0.7x at one partner.  Operands with
    more than MAX_MONOMIALS term pairs are refused when the composite's
    ring is over the work budget.
    """
    if not (isinstance(f, GradedCorrespondence) and isinstance(g, GradedCorrespondence)):
        for c in (f, g):
            _require_instance(c, GradedCorrespondence)
    if f.target is not g.source and f.target != g.source:  # varieties are shared
        raise DomainMismatchError(
            f"middle variety mismatch: {f.target} vs {g.source}"
        )
    xz = _variety(f.source.factors + g.target.factors)  # f.source * g.target, without the type test
    if len(f.cycle._num) * len(g.cycle._num) > MAX_MONOMIALS:
        require_budget(xz)
    rows = _middle_rows(g)
    if (f.cycle._num and rows and len(g.cycle._num) >= PACKED_MIN_PARTNERS * len(rows)
            and (w := _slot_width(f, g)) <= PACKED_MAX_BITS):
        acc = _contract_packed(f, g, rows, w)
    else:
        acc = _contract_dict(f, g, rows)
    composite = _reduced(xz, f.cycle._den * g.cycle._den, acc)
    return GradedCorrespondence._built(f.source, g.target, composite)


def _middle_rows(g: GradedCorrespondence) -> dict[int, list[tuple[int, int]]]:
    """g's terms by middle key: Y key -> [(Z key, numerator), ...]."""
    z_bits = g.target._layout.bits
    z_mask = (1 << z_bits) - 1
    rows: dict[int, list] = {}
    for k, b in g.cycle._num.items():
        if (y := k >> z_bits) in rows:
            rows[y].append((k & z_mask, b))
        else:
            rows[y] = [(k & z_mask, b)]
    return rows


def _contract_dict(f: GradedCorrespondence, g: GradedCorrespondence, rows) -> dict[int, int]:
    """Numerators of the composite on X x Z keys, one dict update per
    product of a term of f and a term of its partner row; cancelled
    entries stay as 0.  The partner row is looked up first, so a term of f
    with none costs one lookup."""
    y_bits, z_bits = f.target._layout.bits, g.target._layout.bits
    y_mask, top = (1 << y_bits) - 1, f.target._layout.top
    acc: dict[int, int] = {}
    get, partners = acc.get, rows.get
    for k, a in f.cycle._num.items():
        if row := partners(top - (k & y_mask)):
            x_part = (k >> y_bits) << z_bits
            for kz, b in row:
                key = x_part | kz
                acc[key] = get(key, 0) + a * b
    return acc


def _slot_width(f: GradedCorrespondence, g: GradedCorrespondence) -> int:
    """Bits of a packed slot that holds every numerator of the composite:
    a slot sums at most len(f) products, so its magnitude is below
    2^(bits(max|f|) + bits(max|g|) + bits(len f)); one bit more holds the
    sign and one more is a margin."""
    return (max(map(abs, f.cycle._num.values())).bit_length()
            + max(map(abs, g.cycle._num.values())).bit_length()
            + len(f.cycle._num).bit_length() + 2)


def _contract_packed(f: GradedCorrespondence, g: GradedCorrespondence, rows, w: int) -> dict[int, int]:
    """The numerators of `_contract_dict` by Kronecker substitution, for
    nonzero f and g: the Z keys of g, sorted, get one w-bit slot each, a
    row of g becomes the integer sum of b << (w * slot), and each X key
    accumulates a * row over its terms.  Adding 2^(w-1) to every slot makes
    each slot nonnegative, so the slots are read off with a mask and a
    shift; zero slots are skipped.  Exact when w is at least `_slot_width`."""
    y_bits, z_bits = f.target._layout.bits, g.target._layout.bits
    y_mask, top = (1 << y_bits) - 1, f.target._layout.top
    z_keys = sorted({kz for row in rows.values() for kz, _ in row})
    offset = {kz: i * w for i, kz in enumerate(z_keys)}
    packed = {y: sum(b << offset[kz] for kz, b in row) for y, row in rows.items()}
    sums: dict[int, int] = {}
    get = sums.get
    for k, a in f.cycle._num.items():
        row = packed.get(top - (k & y_mask))
        if row is not None:
            x = k >> y_bits
            sums[x] = get(x, 0) + a * row
    mask, half = (1 << w) - 1, 1 << (w - 1)
    bias = sum(half << at for at in offset.values())
    acc: dict[int, int] = {}
    for x, r in sums.items():
        r += bias
        x_part = x << z_bits
        for kz in z_keys:
            v = (r & mask) - half
            r >>= w
            if v:
                acc[x_part | kz] = v
    return acc
