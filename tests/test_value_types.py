"""The value-type contract: PadicValuation, CharPoly and FiniteSpectrumData
are immutable, compare by value and never equal a bare value of another
type, print their fields, and run __post_init__ exactly once per
construction (bench/tracing.py counts constructions there)."""

import math
import re

import pytest

from iwaspectra.iwalg import CharPoly
from iwaspectra.padic import INFINITE, PadicValuation
from iwaspectra.spectra import FiniteSpectrumData, dual, strip_torsion, suspend, wedge

VALUES = [
    (lambda: PadicValuation(3), ("value",)),
    (lambda: CharPoly(5, ((2, 1),)), ("p", "factors")),
    (lambda: FiniteSpectrumData(3, {0: 1}, {1: "a"}), ("p", "betti", "torsion")),
]


@pytest.mark.parametrize("make, fields", VALUES)
def test_fields_cannot_be_assigned_or_deleted(make, fields):
    value = make()
    for name in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
        getattr(value, name)  # still there


def test_equal_values_compare_and_hash_equal():
    assert PadicValuation(3) == PadicValuation(3) and PadicValuation(3) != PadicValuation(4)
    assert hash(PadicValuation(3)) == hash(PadicValuation(3))
    assert PadicValuation(math.inf) == INFINITE and hash(PadicValuation(math.inf)) == hash(INFINITE)
    # construction normalizes the factors, so unsorted and split input agree
    f, g = CharPoly(5, ((2, 1), (0, 1))), CharPoly(5, ((0, 1), (2, 1)))
    assert f == g and hash(f) == hash(g)
    assert CharPoly(5, ((0, 2),)) == CharPoly(5, ((0, 1), (0, 1)))
    assert CharPoly(5) != CharPoly(7) and CharPoly(5) != CharPoly(5, ((0, 1),))
    X = FiniteSpectrumData(3, {2: 1, 0: 1}, {1: "a"})
    assert X == FiniteSpectrumData(3, {0: 1, 2: 1}, {1: "a"})
    assert X != FiniteSpectrumData(3, {0: 1, 2: 1}) and X != FiniteSpectrumData(5, X.betti, X.torsion)


def test_never_equal_to_a_bare_value():
    assert PadicValuation(3) != 3 and 3 != PadicValuation(3)
    assert PadicValuation(0) != 0 and INFINITE != math.inf
    assert PadicValuation(3) != (3,) and PadicValuation(5) != CharPoly(5)
    assert CharPoly(5) != (5, ()) and CharPoly(5, ((2, 1),)) != ((2, 1),)
    assert FiniteSpectrumData(3, {0: 1}) != (3, {0: 1}, {})


def test_spectrum_data_is_unhashable():
    with pytest.raises(TypeError):
        hash(FiniteSpectrumData(3, {0: 1}))


def test_repr_names_every_field():
    assert repr(PadicValuation(3)) == "PadicValuation(value=3)"
    assert repr(INFINITE) == "PadicValuation(value=inf)"
    assert repr(CharPoly(5, ((2, 1),))) == "CharPoly(p=5, factors=((2, 1),))"
    assert repr(CharPoly(3)) == "CharPoly(p=3, factors=())"
    assert repr(FiniteSpectrumData(3, {0: 1})) == (
        "FiniteSpectrumData(p=3, betti=mappingproxy({0: 1}), torsion=mappingproxy({}))")
    assert repr(FiniteSpectrumData(3, {2: 1, -1: 2}, {1: "a"})) == (
        "FiniteSpectrumData(p=3, betti=mappingproxy({-1: 2, 2: 1}), "
        "torsion=mappingproxy({1: 'a'}))")


@pytest.fixture
def post_inits(monkeypatch):
    """Each type's __post_init__ wrapped with a counter, the way the
    benchmark's tracer counts allocations."""
    counts = {}
    for cls in (PadicValuation, CharPoly, FiniteSpectrumData):
        original = cls.__dict__["__post_init__"]
        counts[cls.__name__] = 0

        def counted(obj, original=original, name=cls.__name__):
            counts[name] += 1
            original(obj)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


X = FiniteSpectrumData(3, {0: 1, 3: 2}, {1: "a"})


@pytest.mark.parametrize("make, cls", [
    (lambda: PadicValuation(3), "PadicValuation"),
    (lambda: PadicValuation(math.inf), "PadicValuation"),
    (lambda: CharPoly(5, ((2, 1),)), "CharPoly"),
    (lambda: CharPoly(5), "CharPoly"),                        # default factors
    (lambda: FiniteSpectrumData(3, {0: 1}, {1: "a"}), "FiniteSpectrumData"),
    (lambda: FiniteSpectrumData(3, {0: 1}), "FiniteSpectrumData"),  # default torsion
    (lambda: dual(X), "FiniteSpectrumData"),
    (lambda: wedge(X, X), "FiniteSpectrumData"),
    (lambda: strip_torsion(X), "FiniteSpectrumData"),
    (lambda: suspend(X, 2), "FiniteSpectrumData"),
], ids=["valuation", "infinite", "charpoly", "default-factors", "spectrum",
        "default-torsion", "dual", "wedge", "strip_torsion", "suspend"])
def test_each_construction_runs_post_init_once(post_inits, make, cls):
    make()
    assert post_inits == {name: int(name == cls) for name in post_inits}


def test_post_init_still_validates(post_inits):
    with pytest.raises(ValueError):
        PadicValuation(-1)
    with pytest.raises(ValueError):
        CharPoly(5, ((0, 0),))
    with pytest.raises(ValueError):
        FiniteSpectrumData(3, {0: 0})
    assert post_inits == {"PadicValuation": 1, "CharPoly": 1, "FiniteSpectrumData": 1}


def test_keyword_construction():
    assert PadicValuation(value=3) == PadicValuation(3)
    assert CharPoly(p=5, factors=((2, 1),)) == CharPoly(5, ((2, 1),))
    assert CharPoly(p=5) == CharPoly(5, ())
    assert FiniteSpectrumData(p=3, betti={0: 1}, torsion={1: "a"}) == (
        FiniteSpectrumData(3, {0: 1}, {1: "a"}))
    assert FiniteSpectrumData(betti={0: 1}, p=3) == FiniteSpectrumData(3, {0: 1}, {})


@pytest.mark.parametrize("make", [
    lambda: PadicValuation(),
    lambda: PadicValuation(1, 2),
    lambda: PadicValuation(valuation=1),
    lambda: CharPoly(),
    lambda: CharPoly(5, (), ()),
    lambda: FiniteSpectrumData(3),
    lambda: FiniteSpectrumData(3, {0: 1}, {}, {}),
    lambda: FiniteSpectrumData(3, {0: 1}, p=3),
])
def test_wrong_arguments_are_a_type_error(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make, fields", VALUES)
def test_fields_are_what_repr_prints(make, fields):
    value = make()
    assert value._fields == fields
    printed = re.findall(r"(?:^\w+\(|, )(\w+)=", repr(value))
    assert tuple(printed) == fields
