"""The public value types: frozen records with dataclass semantics.

Each type is compared with a frozen dataclass holding the same fields,
made here as the oracle, so equality, hashing and repr stay what the
package's dataclasses gave before the records replaced them."""

import dataclasses
import pickle

import pytest

from mfmckit.clutters import MinorSpec, NonMinor, enumerate_clutters
from mfmckit.cones import rees_cone
from mfmckit.decisions import (
    Verdict,
    conjecture_scan,
    integrality_equivalences,
    ntf_check,
)
from mfmckit.errors import Record
from mfmckit.hilbert import smith_invariants
from mfmckit.ideals import symbolic_power
from mfmckit.reporting import analyze, parse_input

# dataclasses.fields order of each type before the records
FIELDS = {
    "ExponentMatrix": ("columns",),
    "Clutter": ("matrix", "labels"),
    "MinorSpec": ("zeros", "ones"),
    "NonMinor": ("reason",),
    "RationalCone": ("dim", "generators", "facets"),
    "ReesCone": ("base", "cone", "coordinate_facet_indices"),
    "FacetClassification": ("dim", "coordinate_indices", "vertex_normals"),
    "QAPolyhedron": ("matrix", "vertices"),
    "Verdict": ("mfmc", "normal", "integral", "koenig", "packing", "torsion_free", "ntf",
                "witnesses", "i_max_checked"),
    "NtfResult": ("ok", "failed_i", "witness"),
    "TdiCounterexample": ("alpha", "rational_value", "integral_value"),
    "TdiReport": ("bound", "checked", "counterexample"),
    "EquivalenceReport": ("a_integral", "b_cover_facets", "c_closure_symbolic", "i_max"),
    "ScanReport": ("total", "packing_true", "reduced_confirmed", "reduced_counterexamples",
                   "uniform_tested", "torsion_free_confirmed", "torsion_counterexamples"),
    "SmithInvariants": ("factors", "rank", "torsion_free"),
    "MonomialIdealGens": ("gens",),
    "InputDocument": ("matrix", "labels", "mode", "source_format", "source_rows"),
    "PowerRow": ("i", "ordinary", "symbolic", "closure", "ordinary_eq_symbolic",
                 "closure_eq_symbolic", "ordinary_eq_closure"),
    "Report": ("document", "verdict", "hilbert_basis", "facets", "vertices", "powers", "tdi"),
}
UNCOMPARED = {"InputDocument": {"source_rows"}}  # also left out of repr


def _samples():
    """One instance of every record type, nearly all built by the library."""
    # the triangle with its rows out of sorted order: not MFMC, a TDI gap
    report = analyze(parse_input("3\n3\n1 0 1\n1 1 0\n0 1 1\n3\n"), 2, 2)
    c = report.document.clutter()
    rc = rees_cone(c.matrix)
    found = [report, report.document, report.verdict, report.facets, report.vertices,
             report.powers[0], report.tdi, report.tdi.counterexample, c, c.matrix,
             rc, rc.cone, MinorSpec((2, 0), (1,)), NonMinor("unit"), ntf_check(c, 2),
             integrality_equivalences(c, 2), conjecture_scan(enumerate_clutters(3, 2)),
             smith_invariants(c.matrix), symbolic_power(c, 2)]
    return {type(r).__name__: r for r in found}


SAMPLES = _samples()


def _values(r):
    return {n: getattr(r, n) for n in FIELDS[type(r).__name__]}


def _raw(cls, values):
    """An instance holding the given field values, built without __init__."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def _oracle(r):
    """A frozen dataclass of the same name holding r's field values."""
    name = type(r).__name__
    hidden = UNCOMPARED.get(name, set())
    cls = dataclasses.make_dataclass(
        name, [(n, object, dataclasses.field(compare=n not in hidden, repr=n not in hidden))
               for n in FIELDS[name]], frozen=True)
    return cls(**_values(r))


def test_every_record_type_has_a_sample():
    assert set(SAMPLES) == set(FIELDS) == {cls.__name__ for cls in Record.__subclasses__()}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_order_is_the_dataclass_order(name):
    assert type(SAMPLES[name])._fields == FIELDS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equality_holds_exactly_when_the_compared_fields_agree(name):
    r = SAMPLES[name]
    cls, values = type(r), _values(r)
    assert cls(**values) == r == cls(*values.values()) == _raw(cls, values)
    assert not r != _raw(cls, values)
    for field in FIELDS[name]:
        other = _raw(cls, dict(values, **{field: object()}))
        assert (r == other) is (field in UNCOMPARED.get(name, ())), field
        assert (r != other) is not (r == other)
    compared = tuple(v for n, v in values.items() if n not in UNCOMPARED.get(name, ()))
    assert r != compared and r != _oracle(r)  # another class is never equal


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_hash_is_the_hash_of_the_compared_fields(name):
    r = SAMPLES[name]
    compared = tuple(v for n, v in _values(r).items() if n not in UNCOMPARED.get(name, ()))
    try:
        expected = hash(compared)
    except TypeError:  # a Verdict holds a dict, and a Report holds a Verdict
        for obj in (r, _oracle(r)):
            with pytest.raises(TypeError):
                hash(obj)
        return
    assert hash(r) == expected == hash(_oracle(r))
    assert {r: 1}[_raw(type(r), _values(r))] == 1


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr_is_the_dataclass_repr(name):
    assert repr(SAMPLES[name]) == repr(_oracle(SAMPLES[name]))


def test_repr_examples():
    assert repr(NonMinor("unit")) == "NonMinor(reason='unit')"
    assert repr(MinorSpec((2, 0, 2), (1,))) == "MinorSpec(zeros=(0, 2), ones=(1,))"
    doc = SAMPLES["InputDocument"]
    assert doc.source_rows and repr(doc) == (
        "InputDocument(matrix=ExponentMatrix(columns=((0, 1, 1), (1, 0, 1), (1, 1, 0))), "
        "labels=('x1', 'x2', 'x3'), mode='rees', source_format='normaliz')")


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    r = SAMPLES[name]
    before = _values(r)
    for field in (*FIELDS[name], "not_a_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(r, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(r, field)
    assert _values(r) == before


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_pickle_round_trip_gives_an_equal_record(name):
    r = SAMPLES[name]
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is type(r) and back == r and _values(back) == _values(r)


def test_verdicts_get_fresh_witness_dicts():
    a, b = (Verdict(True, True, True, True, True, True, True) for _ in range(2))
    assert a.witnesses == b.witnesses == {} and a.witnesses is not b.witnesses
    assert a.i_max_checked == 3
    assert Verdict(*[False] * 7, {"normal": (1,)}).witnesses == {"normal": (1,)}


def test_verdict_witnesses_are_read_only():
    # a frozen Verdict holds a read-only view of a copy of its witnesses:
    # neither the view nor the caller's dict changes it
    given = {"normal": (1,)}
    v = Verdict(*[False] * 7, given)
    with pytest.raises(TypeError):
        v.witnesses["koenig"] = (2, 1)
    with pytest.raises(TypeError):
        del v.witnesses["normal"]
    given["koenig"] = (2, 1)
    assert v.witnesses == {"normal": (1,)}
    assert v == Verdict(*[False] * 7, {"normal": (1,)})
