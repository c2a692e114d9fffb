"""The contract of the engine's immutable values, the classes on the `_Value`
base of `ring`: equality within one class by the fields, a hash equal to
that of their tuple, the repr of a frozen record, no assignment or
deletion, construction by position or keyword, an unchecked constructor
`_built` per class that gives what the checked one gives, and copies and
pickles that compare alike; and the JSON codec of the classes read and
written as objects of named fields."""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from chowmot.chern import BundleClass, line_bundle
from chowmot.corr import FactorSelection, GradedCorrespondence
from chowmot.errors import DomainMismatchError, InvalidInputError
from chowmot.kshadow import KKernel, identity_kernel
from chowmot.motives import (
    FormalSum,
    FormalSumMorphism,
    Motive,
    MotiveMorphism,
    OrbitMorphism,
    OrlovReport,
    motive_of,
    orlov_pipeline,
    tate_twist,
    unit_motive,
)
from chowmot.ring import Cycle, Variety, _Value
from chowmot.verify import CheckResult

P = "Variety(factors=())"
CYCLE_ONE = "<Cycle 1 on Spec(K)>"
DIAGONAL = f"GradedCorrespondence(source={P}, target={P}, cycle={CYCLE_ONE})"
UNIT = f"Motive(variety={P}, twist=0, idempotent={DIAGONAL})"
UNIT_ID = f"MotiveMorphism(source={UNIT}, target={UNIT}, corr={DIAGONAL})"
SUM = f"FormalSum(summands=({UNIT},))"


def samples():
    """One value of every class, its fields and its repr, all as they read
    when the classes were frozen dataclasses."""
    point = Variety(())
    unit = unit_motive()
    one = unit.identity_morphism()
    s = FormalSum((unit,))
    return [
        (Variety((1, 2)), ("factors",), "Variety(factors=(1, 2))"),
        (line_bundle(point, []), ("variety", "rank", "total_chern"),
         f"BundleClass(variety={P}, rank=1, total_chern={CYCLE_ONE})"),
        (FactorSelection(Variety((1, 2)), (1,)), ("source", "selected"),
         "FactorSelection(source=Variety(factors=(1, 2)), selected=(1,))"),
        (GradedCorrespondence.identity(point), ("source", "target", "cycle"), DIAGONAL),
        (identity_kernel(point), ("source", "target", "ch"),
         f"KKernel(source={P}, target={P}, ch={CYCLE_ONE})"),
        (unit, ("variety", "twist", "idempotent"), UNIT),
        (one, ("source", "target", "corr"), UNIT_ID),
        (s, ("summands",), SUM),
        (FormalSumMorphism(s, s, ((one,),)), ("source", "target", "matrix"),
         f"FormalSumMorphism(source={SUM}, target={SUM}, matrix=(({UNIT_ID},),))"),
        (OrbitMorphism.identity(unit), ("source", "target", "corr"),
         f"OrbitMorphism(source={UNIT}, target={UNIT}, corr={DIAGONAL})"),
        (orlov_pipeline(identity_kernel(point), identity_kernel(point)),
         ("verdict", "support_floors", "degree_zero_pair"),
         "OrlovReport(verdict='exact-isomorphism', support_floors=(0, 0), "
         f"degree_zero_pair=({UNIT_ID}, {UNIT_ID}))"),
        (CheckResult("hrr", True, "ok", 0.25), ("name", "passed", "detail", "seconds"),
         "CheckResult(name='hrr', passed=True, detail='ok', seconds=0.25)"),
    ]


def violations(value, compared, expected_repr) -> list[str]:
    """Every way in which `value` breaks the contract."""
    found = []
    fields = [getattr(value, name) for name in compared]
    if hash(value) != hash(tuple(getattr(value, name) for name in compared)):
        found.append("hash")
    if repr(value) != expected_repr:
        found.append("repr")
    twin = type(value)._built(*fields)
    if not (twin == value and hash(twin) == hash(value)) or twin != value:
        found.append("equality")
    if value.__eq__(object()) is not NotImplemented or value == object():
        found.append("equality with another class")
    for name in (*compared, "other"):
        for change in (lambda: setattr(value, name, None), lambda: delattr(value, name)):
            try:
                change()
                found.append(f"{name} is writable")
            except AttributeError:
                pass
    if [getattr(value, name) for name in compared] != fields:
        found.append("changed")
    return found


class TestValueContract:
    def test_every_value_class_has_a_sample(self):
        assert {type(value) for value, *_ in samples()} == set(_Value.__subclasses__())

    def test_every_value_keeps_the_contract(self):
        for value, compared, expected_repr in samples():
            assert violations(value, compared, expected_repr) == [], type(value).__name__

    @pytest.mark.parametrize("remake", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_every_value_survives_copies_and_pickles(self, remake):
        for value, _, expected_repr in samples():
            twin = remake(value)
            assert twin == value and hash(twin) == hash(value) and repr(twin) == expected_repr, type(value).__name__

    def test_hash_leaving_out_a_field_is_caught(self, monkeypatch):
        """Negative control: a base whose hash skips the last compared field
        fails the contract on every class."""
        for value, compared, expected_repr in samples():
            def partial_hash(self, names=compared[:-1]):
                return hash(tuple(getattr(self, name) for name in names))

            monkeypatch.setattr(type(value), "__hash__", partial_hash)
            assert "hash" in violations(value, compared, expected_repr), type(value).__name__

    def test_equal_fields_of_different_classes_are_unequal(self):
        point = Variety(())
        unit = unit_motive()
        pairs = [(GradedCorrespondence.identity(point), identity_kernel(point)),
                 (OrbitMorphism.identity(unit), unit.identity_morphism())]
        for a, b in pairs:
            assert a != b and not a == b and len({a, b}) == 2

    def test_selection_target_is_built_once(self):
        sel = FactorSelection(Variety((1, 2)), (1,))
        assert sel.target is sel.target and sel.target == Variety((2,))
        assert sel == FactorSelection(Variety((1, 2)), (1,))

    def test_construction_takes_positions_and_keywords(self):
        assert Variety(factors=[1, 2]) == Variety((1, 2)) == Variety([1, 2])
        assert CheckResult("hrr", True, detail="ok", seconds=1.0).seconds == 1.0
        for bad in (lambda: Variety(), lambda: Variety((1,), (2,)), lambda: Variety(shape=(1,)),
                    lambda: Variety((1,), factors=(1,)), lambda: CheckResult("hrr", True),
                    lambda: CheckResult("hrr", True, "ok")):
            with pytest.raises(TypeError):
                bad()


def value_classes() -> set[type]:
    """Every class on the `_Value` base, found recursively, so that a class
    added later is covered too."""
    found, todo = set(), [_Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls not in found:
                found.add(cls)
                todo.append(cls)
    return found


def constructor_fields() -> dict[type, tuple]:
    """The fields of one valid value of every class, the first two unequal
    where the class allows it, so that stores into the wrong field show."""
    x, y = Variety((1,)), Variety((2,))
    cycle = Cycle(x * y, {(1, 0): Fraction(1, 2), (0, 2): -3})
    mx, my = motive_of(x), motive_of(y)
    zero = MotiveMorphism.zero(mx, my)
    return {
        Variety: ((1, 2),),
        FactorSelection: (Variety((1, 2)), (1,)),
        GradedCorrespondence: (x, y, cycle),
        KKernel: (y, x, GradedCorrespondence(x, y, cycle).transpose().cycle),
        BundleClass: tuple(getattr(line_bundle(y, [3]), name) for name in BundleClass._fields),
        Motive: (x, 2, GradedCorrespondence.identity(x)),
        MotiveMorphism: (mx, my, zero.corr),
        FormalSum: ((mx, my),),
        FormalSumMorphism: (FormalSum((mx,)), FormalSum((mx, my)), ((mx.identity_morphism(),), (zero,))),
        OrbitMorphism: (mx, my, GradedCorrespondence(x, y, cycle)),
        OrlovReport: ("not-equivalent", (None, 1), None),
        CheckResult: ("hrr", True, "ok", 0.25),
    }


class TestUncheckedConstructor:
    def test_every_class_has_fields_and_every_field_count_is_covered(self):
        assert constructor_fields().keys() == value_classes()
        assert {len(cls._fields) for cls in value_classes()} == {1, 2, 3, 4}

    def test_each_class_makes_its_own(self):
        for cls in value_classes():
            assert "_built" in cls.__dict__, cls.__name__

    @pytest.mark.parametrize("cls", sorted(value_classes(), key=lambda c: c.__name__), ids=lambda c: c.__name__)
    def test_unchecked_and_checked_values_agree(self, cls):
        fields = constructor_fields()[cls]
        unchecked, checked = cls._built(*fields), cls(*fields)
        assert tuple(getattr(unchecked, name) for name in cls._fields) == fields
        assert vars(unchecked) == vars(checked)
        assert unchecked == checked and checked == unchecked and hash(unchecked) == hash(checked)
        assert repr(unchecked) == repr(checked)
        if hasattr(cls, "to_json"):
            assert unchecked.to_json() == checked.to_json()

    def test_the_unchecked_constructor_runs_no_check(self):
        x = Variety((1,))
        stray = GradedCorrespondence._built(x, x, Cycle.one(x))  # its cycle lives on x, not on x * x
        assert stray.cycle.variety == x
        with pytest.raises(DomainMismatchError):
            GradedCorrespondence(x, x, Cycle.one(x))


def json_samples():
    """A value of each class with a JSON object of named fields, and the
    start of the message that refuses an object without all its keys."""
    x, line = Variety((1, 2)), Variety((1,))
    cycle = Cycle(x * line, {(1, 0, 0): Fraction(1, 2), (0, 2, 1): -3})
    m = tate_twist(motive_of(line), -2)
    return [
        (line_bundle(x, [1, -1]), "bundle class must be an object with 'variety', 'rank', 'total_chern', got "),
        (GradedCorrespondence(x, line, cycle),
         "correspondence must be an object with 'source', 'target', 'cycle', got "),
        (identity_kernel(line), "kernel must be an object with 'source', 'target', 'ch', got "),
        (m, "motive must be an object with 'variety', 'twist', 'idempotent', got "),
        (OrbitMorphism.identity(m),
         "orbit morphism must be an object with 'source', 'target', 'components', got "),
        (x, "variety must be an object with 'factors', got "),
        (cycle, "cycle must be an object with 'variety', 'terms', got "),
    ]


def names_the_first(value, data: dict) -> bool:
    """Whether `from_json` of `data`, the JSON object of `value`, with its
    first two keys (a variety has one) both malformed, refuses it for the
    first."""
    first, *rest = data
    data = dict(data, **{first: {"first": 1}}, **{key: {"second": 2} for key in rest[:1]})
    with pytest.raises(InvalidInputError) as refused:
        type(value).from_json(data)
    return str(refused.value).endswith("got {'first': 1}")


class TestJsonCodec:
    def test_every_json_class_has_a_sample(self):
        assert [type(value) for value, _ in json_samples()] == [
            BundleClass, GradedCorrespondence, KKernel, Motive, OrbitMorphism, Variety, Cycle]

    def test_round_trip_gives_the_value_and_the_same_bytes(self):
        for value, _ in json_samples():
            text = json.dumps(value.to_json())
            again = type(value).from_json(json.loads(text))
            assert again == value and json.dumps(again.to_json()) == text, type(value).__name__

    def test_a_missing_key_gives_the_exact_message(self):
        for value, message in json_samples():
            data = value.to_json()
            for key in data:
                partial = {k: v for k, v in data.items() if k != key}
                with pytest.raises(InvalidInputError) as refused:
                    type(value).from_json(partial)
                assert str(refused.value) == message + repr(partial)

    def test_the_first_malformed_field_is_named(self):
        for value, _ in json_samples():
            assert names_the_first(value, value.to_json()), type(value).__name__

    def test_reading_fields_out_of_order_is_caught(self, monkeypatch):
        """Negative control: a codec that reads the fields last first names
        the second malformed field where both are read by a reader (not so
        for a bundle class, whose rank only the constructor checks)."""
        for value, _ in json_samples()[1:3]:
            data = value.to_json()
            monkeypatch.setattr(type(value), "_fields", type(value)._fields[::-1])
            assert not names_the_first(value, data), type(value).__name__

    def test_each_class_binds_its_own_codec(self):
        """The tracer of perfbench wraps `to_json` and `from_json` where
        they sit, in each class's own namespace."""
        for value, _ in json_samples():
            assert {"to_json", "from_json"} <= vars(type(value)).keys(), type(value).__name__
