"""The record types: the six identity types are immutable ``__slots__``
classes on the one base ``dynkin.Frozen``, checked at their constructors;
every other result is a ``typing.NamedTuple``, and importing the cli loads
no ``dataclasses``."""
import copy
import os
import pickle
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import preproj
from preproj import (dynkin, fixtures, intersection, knitting, pathalg, singularity, typea,
                     weights)
from preproj.dynkin import (Arrow, DynkinType, ExtDynkinType, Frozen, LabelledDoubleQuiver,
                            build_extended)
from preproj.errors import DomainError
from preproj.pathalg import Path, parse_path
from preproj.weights import FieldElem, Weight, WeightClass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_cli_imports_no_dataclass_machinery():
    # -S keeps the site hooks of the interpreter out, so only the package's
    # own imports are seen
    code = ("import preproj.cli, sys; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH="src")).stdout
    assert out == "[]\n"


def test_all_is_the_package_public_bindings():
    # a name bound in preproj/__init__.py but missing from __all__, or named
    # in __all__ but gone, fails here; submodules are not part of the list
    public = {name for name, value in vars(preproj).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(preproj.__all__) == public and len(preproj.__all__) == len(public)


def identity_objects():
    q = build_extended(ExtDynkinType("D", 5))
    return [DynkinType("D", 5), ExtDynkinType("D", 5), q.arrow("~a2"), q,
            Weight.of([1, "1/2", "-i", 0, 0, "2+3i"]), FieldElem(Fraction(-1, 2), 3),
            parse_path(q, "a0.~a1.a1")]


@pytest.mark.parametrize("obj", identity_objects(), ids=lambda o: type(o).__name__)
def test_identity_types_are_immutable_picklable_classes(obj):
    assert not isinstance(obj, tuple)
    slots = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
    assert slots
    for attr in slots + ["other"]:
        with pytest.raises(AttributeError):
            setattr(obj, attr, 5)
    for attr in slots:
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    for z in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert z == obj and hash(z) == hash(obj) and z is not obj


def test_identity_types_share_the_one_immutable_base():
    # the immutability and pickling protocol is written once, in Frozen, so a
    # class that writes its own copy of it fails here
    assert all(isinstance(obj, Frozen) for obj in identity_objects())
    modules = (dynkin, fixtures, intersection, knitting, pathalg, singularity, typea, weights)
    classes = {c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__}
    own = [c.__name__ for c in classes
           if c is not Frozen and {"__setattr__", "__delattr__", "__reduce__"} & set(vars(c))]
    assert own == []


def test_reprs_name_the_constructor_fields():
    assert repr(DynkinType("E", 6)) == "DynkinType(family='E', n=6)"
    assert repr(ExtDynkinType("A", 2)) == "ExtDynkinType(family='A', n=2)"
    assert repr(Arrow(3, True, 4, 2)) == "Arrow(index=3, reverse=True, tail=4, head=2)"
    assert repr(Weight.of([1, 0])) == "Weight(entries=(FieldElem('1'), FieldElem('0')))"
    assert repr(Path(4, ())) == "Path(source=4, arrows=())"
    q = build_extended(ExtDynkinType("A", 2))
    assert repr(q) == (f"LabelledDoubleQuiver(vertices=(0, 1, 2), arrows={q.arrows!r}, "
                       "type=ExtDynkinType(family='A', n=2))")


def test_dynkin_types_never_equal_extended_types():
    assert DynkinType("D", 5) != ExtDynkinType("D", 5)
    assert len({DynkinType("D", 5), ExtDynkinType("D", 5)}) == 2
    assert ExtDynkinType("D", 5) == ExtDynkinType("D", 5)


def test_arrows_hash_to_their_id_and_compare_by_endpoints():
    for family, n in (("A", 4), ("D", 6), ("E", 8)):
        for a in build_extended(ExtDynkinType(family, n)).arrows:
            assert hash(a) == a.id == a.index << 1 | a.reverse
            assert a == Arrow(a.index, a.reverse, a.tail, a.head)
    assert Arrow(0, False, 0, 1) != Arrow(0, False, 0, 2)


def test_weights_iterate_over_their_entries_and_check_them():
    w = Weight.of([1, "1/2", "-i"])
    assert list(w) == list(w.entries) and len(w) == 3 and w[2] == FieldElem(0, -1)
    assert Weight(w.entries) == w
    for bad in ([FieldElem(1)], (1, 2), (FieldElem(1), "2")):
        with pytest.raises(DomainError):
            Weight(bad)


def quiver_tables(q):
    return (q.vertices, q.arrows, q.ordinary_arrows, q.adjacency(),
            {v: q.arrows_from(v) for v in q.vertices}, {a.name: q.arrow(a.name) for a in q.arrows})


def test_full_subquiver_gives_back_equal_tables():
    for family, n in (("A", 5), ("D", 7), ("E", 7)):
        q = build_extended(ExtDynkinType(family, n))
        whole = q.full_subquiver(set(q.vertices))
        assert quiver_tables(whole) == quiver_tables(q) and whole.type is None
        assert whole != q and whole == LabelledDoubleQuiver(q.vertices, q.arrows)
        rebuilt = LabelledDoubleQuiver(q.vertices, q.arrows, q.type)
        assert rebuilt == q and hash(rebuilt) == hash(q)


RECORDS = (dynkin.CartanData, dynkin.VertexPermutation, fixtures.SequenceFixture,
           fixtures.MapFixture, intersection.ExtTriple,
           intersection.IntersectionMatrix, intersection.SmoothResolution, knitting.KnitResult,
           knitting.ExtractedMaps, pathalg.MembershipCertificate, pathalg.ZeroProductReport,
           singularity.QLambdaDecomposition, singularity.SingularityDescriptor,
           singularity.TranslationAction, typea.TypeAPresentation, typea.TypeASequence,
           WeightClass)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_are_named_tuples_whose_fields_shadow_nothing(record):
    # a field named count or index would hide the tuple method of that name
    assert issubclass(record, tuple) and record._fields
    assert not {"count", "index"} & set(record._fields)
    assert not [f for f in record._fields if f.startswith("_")]
