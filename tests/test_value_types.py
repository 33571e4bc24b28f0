"""The value-type contract: PadicValuation, CharPoly and FiniteSpectrumData
are immutable, compare by value and never equal a bare value of another
type, print their fields, and run __post_init__ exactly once per
construction (bench/tracing.py counts constructions there).  The library
builds no PadicValuation: every valuation it returns is a plain int >= 0,
or math.inf.  And the argument rule of the whole library: an int argument
that is not an int, or is a bool, is a TypeError, and an int below its
bound a ValueError, both raised by the one helper padic._int; a container
or spectrum argument of the wrong shape is a TypeError too."""

import math
import pathlib
import re

import pytest

from iwaspectra.asymptotics import graded_average, growth_ratio, ladder
from iwaspectra.imc import verify_weak_imc
from iwaspectra.iwalg import CharPoly, coefficients_mod, evaluate_valuation
from iwaspectra.k1 import k1_order_of_dual_replacement, sphere_order, wedge_order
from iwaspectra.padic import PadicValuation, one_plus_p_pow_minus_one_valuation
from iwaspectra.spectra import (
    FiniteSpectrumData, dual, eigenspace_charpoly, strip_torsion, suspend, total_lambda, wedge,
)

from oracles import random_spectrum

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "iwaspectra"

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
    infinite = PadicValuation(math.inf)
    assert PadicValuation(math.inf) == infinite and hash(PadicValuation(math.inf)) == hash(infinite)
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
    assert PadicValuation(0) != 0 and PadicValuation(math.inf) != math.inf
    assert PadicValuation(3) != (3,) and PadicValuation(5) != CharPoly(5)
    assert CharPoly(5) != (5, ()) and CharPoly(5, ((2, 1),)) != ((2, 1),)
    assert FiniteSpectrumData(3, {0: 1}) != (3, {0: 1}, {})


def test_spectrum_data_is_unhashable():
    with pytest.raises(TypeError):
        hash(FiniteSpectrumData(3, {0: 1}))


def test_repr_names_every_field():
    assert repr(PadicValuation(3)) == "PadicValuation(value=3)"
    assert repr(PadicValuation(math.inf)) == "PadicValuation(value=inf)"
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


S0 = FiniteSpectrumData(3, {0: 1})
F = CharPoly(3, ((1, 1),))

# every int argument of the public functions and constructors: its name, a
# call with the argument set to v, and its least allowed value (None for
# none).  A prime p is not here: any p that is not an odd prime, an int or
# not, is NotAnOddPrime
INT_ARGUMENTS = [
    ("PadicValuation.value", lambda v: PadicValuation(v), 0),
    ("one_plus_p_pow_minus_one_valuation.n", lambda v: one_plus_p_pow_minus_one_valuation(3, v),
     None),
    ("CharPoly.factor_index", lambda v: CharPoly(3, ((v, 1),)), None),
    ("CharPoly.factor_multiplicity", lambda v: CharPoly(3, ((0, v),)), 1),
    ("evaluate_valuation.s", lambda v: evaluate_valuation(F, v), None),
    ("coefficients_mod.precision", lambda v: coefficients_mod(F, v), 1),
    ("FiniteSpectrumData.betti_degree", lambda v: FiniteSpectrumData(3, {v: 1}), None),
    ("FiniteSpectrumData.betti_rank", lambda v: FiniteSpectrumData(3, {0: v}), 1),
    ("FiniteSpectrumData.torsion_degree", lambda v: FiniteSpectrumData(3, {}, {v: "a"}), None),
    ("suspend.k", lambda v: suspend(S0, v), None),
    ("eigenspace_charpoly.degree", lambda v: eigenspace_charpoly(S0, (v, 0)), None),
    ("eigenspace_charpoly.j", lambda v: eigenspace_charpoly(S0, (0, v)), None),
    ("sphere_order.t", lambda v: sphere_order(3, v), None),
    ("wedge_order.t", lambda v: wedge_order(S0, v), None),
    ("k1_order_of_dual_replacement.degrees", lambda v: k1_order_of_dual_replacement(S0, [5, v]),
     None),
    ("graded_average.skip", lambda v: graded_average(S0, v, 4), None),
    ("graded_average.length", lambda v: graded_average(S0, 0, v), 1),
    ("ladder.rungs", lambda v: ladder(3, v), 0),
    ("growth_ratio.lam", lambda v: growth_ratio(graded_average(S0, 0, 4), v, 3), None),
    ("verify_weak_imc.m", lambda v: verify_weak_imc(S0, [0, v]), None),
]


def _int_cases():
    for name, call, low in INT_ARGUMENTS:
        yield pytest.param(call, True, TypeError, ", got bool", id=f"{name}-bool")
        yield pytest.param(call, 1.0, TypeError, ", got float", id=f"{name}-float")
        if low is not None:
            yield pytest.param(call, low - 1, ValueError, f" >= {low}, got {low - 1}",
                               id=f"{name}-below")


@pytest.mark.parametrize("call, value, error, text", _int_cases())
def test_int_arguments(call, value, error, text):
    with pytest.raises(error, match=re.escape(f"must be an int{text}") + "$") as exc:
        call(value)
    assert exc.type is error


@pytest.mark.parametrize("call, text", [
    (lambda: CharPoly(3, ((0,),)), "factor must be a pair, got (0,)"),
    (lambda: CharPoly(3, ((0, 1, 2),)), "factor must be a pair, got (0, 1, 2)"),
    (lambda: eigenspace_charpoly(S0, (0, 1, 2)), "eigenspace key must be a pair, got (0, 1, 2)"),
    (lambda: eigenspace_charpoly(S0, (0,)), "eigenspace key must be a pair, got (0,)"),
    (lambda: growth_ratio((0, 4, -2), 1, 3), "average must be a GradedAverage, got tuple"),
    (lambda: FiniteSpectrumData(3, [(0, 1)]), "betti must be a Mapping, got list"),
    (lambda: FiniteSpectrumData(3, {0: 1}, [1]), "torsion must be a Mapping, got list"),
    (lambda: wedge_order({0: 1}, 3), "X must be a FiniteSpectrumData, got dict"),
    (lambda: graded_average((3, {0: 1}), 0, 4), "X must be a FiniteSpectrumData, got tuple"),
    (lambda: total_lambda(None), "X must be a FiniteSpectrumData, got NoneType"),
], ids=["factor-single", "factor-triple", "key-triple", "key-single", "average-tuple",
        "betti-list", "torsion-list", "wedge_order-dict", "graded_average-tuple",
        "total_lambda-none"])
def test_argument_shapes(call, text):
    with pytest.raises(TypeError, match=re.escape(text) + "$") as exc:
        call()
    assert exc.type is TypeError


def test_bool_is_refused_in_one_place():
    # the int rule is written once, in padic._int; is_odd_prime is a
    # predicate, and the spectrum file's p is refused before any prime check
    found = {path.name: re.findall(r"isinstance\((\w+), bool\)", path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: args for name, args in found.items() if args} == {
        "cli.py": ["p"], "padic.py": ["n", "value"]}


def _plain(v) -> bool:
    """A valuation as the library returns it: an int >= 0, or math.inf."""
    return type(v) is int and v >= 0 or v == math.inf


def test_every_valuation_is_a_plain_int_or_inf(rng):
    finite = infinite = 0
    for p in (3, 5, 7, 11):
        # past 2(p-1)p^2 - 1, the first degree of exponent 3, both ways
        degrees = range(-2 * (p - 1) * p ** 2 - 2, 2 * (p - 1) * p ** 2 + 2)
        values = [sphere_order(p, t) for t in degrees]
        for _ in range(25):
            X = random_spectrum(rng, p)
            bare = strip_torsion(X)
            values += [wedge_order(bare, rng.randint(-300, 300)) for _ in range(20)]
            values += [evaluate_valuation(f, s)
                       for f in X.eigenspaces.values() for s in range(-3 * p, 3 * p)]
            columns = verify_weak_imc(X, range(-p * p, p * p)).columns
            values += columns.lhs_valuation + columns.rhs_valuation
        assert [v for v in values if not _plain(v)] == [], p
        finite += sum(v != math.inf and v > 1 for v in values)
        infinite += values.count(math.inf)
    assert finite and infinite  # the draws reach both kinds
