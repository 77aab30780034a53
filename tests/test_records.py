"""The value classes and result records: equality, hash, repr, immutability,
copying and pickling, and the derived properties of the records."""
import copy
import pickle

import pytest

from amplekit import compress, generate, peeling, repmap, shatter
from amplekit.core import ConceptClass, Cube
from amplekit.compress import CompressionScheme, Sample
from amplekit.errors import ContractError, DomainError


def values():
    """(value, name of its first field)"""
    return [(ConceptClass(2, (3, 0), (5, 7)), "n"), (Cube(1, 2), "tag"),
            (Sample(3, 1), "dom")]


def test_concept_class_equality_ignores_coord_labels():
    a = ConceptClass(2, (3, 0, 1), (5, 7))
    b = ConceptClass(2, (0, 1, 3))
    assert a == b and hash(a) == hash(b)
    assert a.coord_labels == (5, 7) and b.coord_labels == (1, 2)
    assert a != ConceptClass(2, (0, 1)) and a != ConceptClass(3, (0, 1, 3))
    assert a.concept_set == frozenset({0, 1, 3})
    # another class with equal fields is not equal
    assert a != (2, (0, 1, 3)) and Cube(1, 2) != Sample(1, 0) != Cube(1, 0)


def test_hash_is_the_hash_of_the_compared_fields():
    assert hash(ConceptClass(2, (3, 0))) == hash((2, (0, 3)))
    assert hash(Cube(1, 2)) == hash((1, 2))
    assert hash(Sample(3, 1)) == hash((3, 1))
    assert len({Cube(1, 2), Cube(1, 2), Cube(0, 2)}) == 2
    scheme = CompressionScheme(ConceptClass(1, (0, 1)), {0: 0, 1: 1})
    with pytest.raises(TypeError):
        hash(scheme)        # its map is a dict


def test_repr_text():
    assert repr(ConceptClass(2, (3, 0), (5, 7))) == "ConceptClass(n=2, concepts=(0, 3))"
    assert repr(Cube(1, 2)) == "Cube(tag=1, support=2)"
    assert repr(Sample(3, 1)) == "Sample(dom=3, bits=1)"
    assert str(Sample(3, 1)) == "x1=1,x2=0"
    scheme = CompressionScheme(ConceptClass(1, (0, 1)), {0: 0, 1: 1})
    assert repr(scheme) == ("CompressionScheme(C=ConceptClass(n=1, concepts=(0, 1)), "
                            "r={0: 0, 1: 1})")
    assert repr(repmap.Check(True)) == "Check(ok=True, witness=None)"
    assert repr(generate.GeneratorSpec("cube", 3)) == (
        "GeneratorSpec(kind='cube', n=3, d=0, size=0, seed=0, facets=(), factors=())")


@pytest.mark.parametrize("value, name", values() + [
    (CompressionScheme(ConceptClass(1, (0, 1)), {0: 0, 1: 1}), "C")])
def test_assignment_and_deletion_are_refused(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) == before


@pytest.mark.parametrize("value, name", values())
def test_copies_and_pickles_are_equal_and_frozen(value, name):
    for other in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert other == value and hash(other) == hash(value)
        assert type(other) is type(value) and repr(other) == repr(value)
        with pytest.raises(AttributeError):
            setattr(other, name, 0)


def test_copied_class_keeps_labels_and_members():
    C = ConceptClass(2, (3, 0), (5, 7))
    for D in (copy.deepcopy(C), pickle.loads(pickle.dumps(C))):
        assert D.coord_labels == (5, 7)
        assert D.concept_set == C.concept_set and 3 in D and 1 not in D


def test_copied_scheme_keeps_its_inverse():
    C = generate.hamming_ball(4, 1)
    scheme = CompressionScheme(C, repmap.build_maximum_repmap(C))
    for other in (copy.deepcopy(scheme), pickle.loads(pickle.dumps(scheme))):
        assert other == scheme and other.inv == scheme.inv
        assert all(other.decompress(other.compress(s)) == scheme.decompress(scheme.compress(s))
                   for s in compress.realizable_samples(C, C.domain_mask))


def test_constructors_still_validate():
    with pytest.raises(DomainError):
        Cube(1, 1)
    with pytest.raises(ContractError):
        Sample(1, 2)
    with pytest.raises(DomainError):
        ConceptClass(2, (4,))
    with pytest.raises(DomainError):
        ConceptClass(2, (0,), (1,))
    with pytest.raises(ContractError):
        CompressionScheme(ConceptClass(1, (0, 1)), {0: 0})
    # keyword construction, as the call sites use it
    assert Cube(tag=1, support=2) == Cube(1, 2)
    assert ConceptClass(n=1, concepts=(1,)) == ConceptClass(1, (1,))


def test_records_keep_their_properties_and_equality():
    ok, bad = repmap.Check(True), repmap.Check(False, 3)
    assert repmap.RepMapReport(*[ok] * 7).valid
    assert not repmap.RepMapReport(*[ok] * 6, bad).valid
    assert repmap.UsoReport(True, ok, ok).ok and not repmap.UsoReport(True, ok, bad).ok
    assert not repmap.UsoReport(False, ok, ok).ok
    assert peeling.PeelingResult((1, 0), True, 2).peelable
    assert not peeling.PeelingResult(None, False, 2).peelable
    assert peeling.OrderingReport(True, True, True, True).all_equal
    assert peeling.OrderingReport(False, False, False, False).all_equal
    assert not peeling.OrderingReport(True, True, False, True).all_equal
    assert compress.SchemeReport(True, 1, 5).sampled is False
    assert compress.SchemeReport(True, 1, 5) == compress.SchemeReport(True, 1, 5, None, "", False)
    assert repmap.Check(True, (1, 2)) == repmap.Check(True, (1, 2)) != repmap.Check(True, (2, 1))
    assert generate.GeneratorSpec("cube", 3) == generate.GeneratorSpec(kind="cube", n=3)
    sf = shatter.SetFamily(2, frozenset({0, 1}))
    assert len(sf) == sf.size == 2 and 1 in sf and 2 not in sf and sf.dim() == 1
    C = generate.hamming_ball(4, 2)
    s = shatter.summary(C)
    assert s == shatter.summary(ConceptClass(4, C.concepts[::-1]))
    assert s.printed() == {"n": 4, "size": 11, "vc_dim": 2, "shattered": 11,
                           "strongly_shattered": 11, "ample": 1, "maximum": 1}


@pytest.mark.parametrize("record", [
    repmap.Check(False, Cube(0, 1)),
    peeling.PeelingResult((1, 0), True, 2),
    compress.SchemeReport(False, 1, 3, Sample(1, 1), "no reconstruction", True),
    generate.GeneratorSpec("product", factors=(generate.GeneratorSpec("cube", 2),) * 2),
])
def test_records_copy_and_pickle(record):
    for other in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert other == record and type(other) is type(record)
        with pytest.raises(AttributeError):
            other.extra = 1
