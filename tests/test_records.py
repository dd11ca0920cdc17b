"""The package's record types: built without dataclasses, read-only where
they are values, equal by value, and the arithmetic types are no tuples."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from logfol import bundles, foliations, leafcomplex, logcalc, monoids, semistability
from logfol.jets import ContextMismatchError, GermContext, Jet, jet_from_string

from reference import abelian_algebra, adjoint_module

SRC = Path(__file__).resolve().parents[1] / "src"
CTX = GermContext(2, 2, 4)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, logfol.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _field():
    return logcalc.derivation_from_string(CTX, "x1*dx1 - x2*dx2")


def _foliation():
    return foliations.FoliationGerm(CTX, (_field(),), rank=1)


def _glue():
    return foliations.SNCGlueData(("A", "B", "C"), ((0, 1, 2), (1, 2, 3), (2, 0, "1/6")),
                                  ((0, 1, 2),))


def _lie():
    return leafcomplex.FinLieData(abelian_algebra(2), ((1, 0),), ((0, 1),), (((0, 0),),))


SURFACE = GermContext(2, 0, 4)

# (type, a constructor called twice, a field to assign to)
VALUES = [
    (GermContext, lambda: GermContext(2, 2, 4), "order"),
    (Jet, lambda: jet_from_string(CTX, "1 + x1 - 3/2*x2^2"), "terms"),
    (logcalc.LogDerivation, _field, "b"),
    (logcalc.LogOneForm, lambda: logcalc.LogOneForm.make(
        CTX, (jet_from_string(CTX, "2"), jet_from_string(CTX, "x2")), ()), "dlog"),
    (foliations.FoliationGerm, _foliation, "rank"),
    (foliations.InvolutivityResult, lambda: foliations.involutivity_check(_foliation()), "ok"),
    (foliations.SNCGlueData, _glue, "triples"),
    (foliations.GluingCheck, lambda: foliations.check_gluing_cocycle(_glue()), "ok"),
    (foliations.PushoutResult, lambda: foliations.PushoutResult(False, 4, 0), "ok"),
    (foliations.SurfaceOneForm,
     lambda: foliations.SurfaceOneForm(jet_from_string(SURFACE, "1 + x2"),
                                       jet_from_string(SURFACE, "x1*x2")), "A"),
    (semistability.FlatUnitResult, lambda: semistability.find_flat_unit(_foliation()), "unit"),
    (semistability.HolonomyData, lambda: semistability.HolonomyData((2, "1/2")), "values"),
    (monoids.FGMonoid, lambda: monoids.FGMonoid(2, [(1, 0), (1, 2)]), "generators"),
    (bundles.GradedBundleP1, lambda: bundles.GradedBundleP1((0, -1)), "degrees"),
    (bundles.SNCCurveBundle, lambda: bundles.SNCCurveBundle.with_identity_glue((0, 1), (1, 0)),
     "glue"),
    (leafcomplex.LieAlgebra, lambda: abelian_algebra(2), "structure"),
    (leafcomplex.LieModuleData, lambda: adjoint_module(abelian_algebra(2)), "action"),
    (leafcomplex.FinLieData, _lie, "mu"),
    (leafcomplex.LieObstruction, lambda: leafcomplex.lie_subalgebra_obstruction(_lie()),
     "vanishes"),
    (leafcomplex.CechLeafData, lambda: leafcomplex.constant_cover([[[1, 1]], [[0]]], 3), "ce"),
    (leafcomplex.ObstructionReport,
     lambda: leafcomplex.verify_obstruction_cocycle(
         leafcomplex.constant_cover([[[1]], [[0]]], 3), [[0]], [[0]] * 3, [[0]] * 3),
     "corrector"),
]


@pytest.mark.parametrize("kind, build, field", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_values_are_read_only_and_equal_by_value(kind, build, field):
    a, b = build(), build()
    assert type(a) is kind
    assert a == b and not a != b
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


def test_read_only_classes_are_unhashable_and_equal_only_within_their_class():
    kinds = (Jet, logcalc.LogDerivation, logcalc.LogOneForm, leafcomplex.CechLeafData)
    for kind, build, _ in VALUES:
        if kind in kinds:
            with pytest.raises(TypeError):
                hash(build())
    v = _field()
    form = logcalc.LogOneForm(CTX, v.b, v.a)
    assert (form.ctx, form.dlog, form.reg) == (v.ctx, v.b, v.a)
    assert not v == form and v != form
    assert not form == v and form != v


def test_contexts_and_monoids_stay_hashable():
    assert hash(GermContext(3, 1, 6)) == hash(GermContext(3, 1, Fraction(6)))
    assert len({GermContext(3, 1, 6), GermContext(3, 1, Fraction(6)), GermContext(3, 1, 7)}) == 2
    m = monoids.FGMonoid(2, [(1, 0), [1, 2]])
    assert {m: 1}[monoids.FGMonoid(2, ((1, 0), (1, 2)))] == 1


def test_arithmetic_types_are_not_tuples():
    jet = jet_from_string(CTX, "1 + x1")
    v = _field()
    form = logcalc.LogOneForm.make(CTX, (jet, jet), ())
    for value in (jet, v, form):
        assert not isinstance(value, tuple)
        with pytest.raises(TypeError):
            len(value)
    with pytest.raises(TypeError):
        2 * v
    with pytest.raises(TypeError):
        v * 2
    assert (2 * jet).terms == (jet + jet).terms


def test_mixed_contexts_are_named_in_the_error():
    with pytest.raises(ContextMismatchError) as info:
        Jet.one(GermContext(2, 2, 4)) + Jet.one(GermContext(3, 1, 5))
    assert str(info.value) == ("jets live in different contexts: GermContext(n=2, r=2, order=4) "
                               "vs GermContext(n=3, r=1, order=5)")
