"""The library's records: validated named tuples that print, compare,
hash and pickle as their fields do, and a library import that loads
neither dataclasses nor inspect."""

import os
import pickle
import subprocess
import sys

import pytest

from zilber.chains import AbelianGroupInvariants
from zilber.delta import (MonotoneMap, PosetPoint, Shuffle,
                          StrictMonotoneIntoProduct)
from zilber.doldkan import NormalizationResult, normalize
from zilber.promonoidal import OperatorMorphism
from zilber.simplicial import free_abelian, standard_simplex


def _chain(*points):
    return StrictMonotoneIntoProduct((1, 1), tuple(map(PosetPoint, points)))


# a fresh record of each kind but NormalizationResult, whose fields are
# not hashable, with the repr a dataclass of the same fields prints
RECORDS = {
    "MonotoneMap": (
        lambda: MonotoneMap(1, 2, tuple([0, 2])),
        "MonotoneMap(domain_top=1, codomain_top=2, values=(0, 2))"),
    "PosetPoint": (
        lambda: PosetPoint(tuple([0, 1])),
        "PosetPoint(factors=(0, 1))"),
    "StrictMonotoneIntoProduct": (
        lambda: _chain((0, 0), (1, 1)),
        "StrictMonotoneIntoProduct(bounds=(1, 1), points=(PosetPoint("
        "factors=(0, 0)), PosetPoint(factors=(1, 1))))"),
    "Shuffle": (
        lambda: Shuffle(p=2, q=1, interleaving=(1, 3), sign=-1),
        "Shuffle(p=2, q=1, interleaving=(1, 3), sign=-1)"),
    "AbelianGroupInvariants": (
        lambda: AbelianGroupInvariants(1, tuple([2, 4])),
        "AbelianGroupInvariants(free_rank=1, torsion=(2, 4))"),
    "OperatorMorphism": (
        lambda: OperatorMorphism((0,), (0,), (1,), ((),)),
        "OperatorMorphism(source=(0,), target=(0,), alpha=(1,), "
        "mults=((),))"),
}


def normalization():
    return normalize(free_abelian(standard_simplex(1, 2)))


@pytest.mark.parametrize("kind", RECORDS)
def test_a_record_prints_as_the_dataclass_did(kind):
    make, text = RECORDS[kind]
    assert repr(make()) == text


def test_a_normalization_result_prints_its_fields_by_name():
    res = normalization()
    assert repr(res) == (f"NormalizationResult(normalized={res.normalized!r}"
                         f", projection={res.projection!r}"
                         f", section={res.section!r})")


@pytest.mark.parametrize("kind", RECORDS)
def test_a_record_is_the_tuple_of_its_fields_and_hashes_like_it(kind):
    make, _ = RECORDS[kind]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    fields = tuple(getattr(a, name) for name in a._fields)
    assert a == fields and hash(a) == hash(fields)


@pytest.mark.parametrize("kind", RECORDS)
def test_a_record_pickles_to_an_equal_record(kind):
    make, _ = RECORDS[kind]
    a = make()
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is type(a) and back == a and hash(back) == hash(a)


def test_a_normalization_result_pickles_to_equal_maps():
    res = normalization()
    back = pickle.loads(pickle.dumps(res))
    assert type(back) is NormalizationResult
    assert back.normalized == res.normalized
    for f, g in ((back.projection, res.projection),
                 (back.section, res.section)):
        assert f.mats == g.mats
    with pytest.raises(TypeError):  # a ChainComplex is unhashable
        hash(res)


@pytest.mark.parametrize("kind", [*RECORDS, "NormalizationResult"])
def test_a_record_refuses_assignment(kind):
    a = normalization() if kind == "NormalizationResult" else RECORDS[kind][0]()
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
    with pytest.raises(AttributeError):
        a.extra = 0


@pytest.mark.parametrize("build, message", [
    (lambda: MonotoneMap(1, 2, (0,)), "wrong number of values"),
    (lambda: MonotoneMap(1, 2, (0, 3)), "value out of range"),
    (lambda: MonotoneMap(1, 2, (-1, 0)), "value out of range"),
    (lambda: MonotoneMap(1, 2, (2, 1)), "values must be nondecreasing"),
    (lambda: _chain((0,)), "point arity mismatch"),
    (lambda: _chain((0, 2)), "point out of range"),
    (lambda: _chain((0, 0), (0, 0)), "chain is not strictly increasing"),
    (lambda: _chain((0, 1), (1, 0)), "chain is not strictly increasing"),
    (lambda: Shuffle(2, 1, (1,), 1), "interleaving must have p elements"),
    (lambda: Shuffle(2, 1, (1, 4), 1), "interleaving index out of range"),
    (lambda: Shuffle(2, 1, (0, 1), 1), "interleaving index out of range"),
    (lambda: Shuffle(1, 1, (1,), 0), "sign must be ±1"),
    (lambda: AbelianGroupInvariants(0, (2, 3)),
     "torsion coefficients must form a divisibility chain"),
    (lambda: AbelianGroupInvariants(0, (1,)),
     "torsion coefficients must be >= 2"),
])
def test_a_record_rejects_invalid_fields_with_its_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_importing_the_library_loads_neither_dataclasses_nor_inspect():
    # zilber.cli imports every library module; dataclasses would bring in
    # inspect, ast, dis and tokenize
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, zilber.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.stdout == "[]\n"
