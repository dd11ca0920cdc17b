"""Scene files: JSON descriptions of the objects the command line works on.

A scene is one JSON object.  Rational numbers are written as integers or as
strings like "3/2"; floating point literals are rejected.  Jets and vector
fields are expression strings in the germ's variable names, parsed exactly.
Which keys a scene needs depends on the subcommand reading it; accessors
raise SceneError naming the key that is missing or malformed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import bundles, foliations, jets, leafcomplex, logcalc, monoids, semistability
from .exprs import ExprError


class SceneError(Exception):
    def __init__(self, message, where=None):
        self.where = where
        if where:
            message = "%s: %s" % (where, message)
        super().__init__(message)


def scene_fraction(value, where):
    if isinstance(value, bool):
        raise SceneError("expected a rational, got a boolean", where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SceneError('floating point is not allowed; write rationals as "p/q"', where)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise SceneError("cannot read %r as a rational" % (value,), where)
    raise SceneError("expected a rational, got %s" % type(value).__name__, where)


def _expect(value, kind, where):
    if not isinstance(value, kind):
        raise SceneError("expected %s" % kind.__name__, where)
    return value


def _int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneError("expected an integer", where)
    return value


def _fraction_matrix(rows, where):
    rows = _expect(rows, list, where)
    return [
        [scene_fraction(x, "%s[%d][%d]" % (where, i, j)) for j, x in enumerate(_expect(row, list, "%s[%d]" % (where, i)))]
        for i, row in enumerate(rows)
    ]


def _fraction_table(rows, where):
    """rows[i][j] a vector of rationals, as Lie structure constants and mu
    are given; a bad entry is reported at its vector, where[i][j]."""
    table = []
    for i, row in enumerate(_expect(rows, list, where)):
        vectors = []
        for j, v in enumerate(_expect(row, list, "%s[%d]" % (where, i))):
            at = "%s[%d][%d]" % (where, i, j)
            vectors.append(tuple(scene_fraction(x, at) for x in _expect(v, list, at)))
        table.append(tuple(vectors))
    return tuple(table)


def _int_vectors(rows, where):
    rows = _expect(rows, list, where)
    return tuple(
        tuple(_int(x, "%s[%d][%d]" % (where, i, j)) for j, x in enumerate(_expect(row, list, "%s[%d]" % (where, i))))
        for i, row in enumerate(rows)
    )


@dataclass
class Scene:
    """A parsed scene plus the truncation order in force for it."""

    raw: dict
    order: int
    path: str = None

    # -- plumbing --

    def _get(self, key, default=None):
        return self.raw.get(key, default)

    def _require(self, key):
        if key not in self.raw:
            raise SceneError("scene lacks the key %r" % key)
        return self.raw[key]

    def has(self, key):
        return key in self.raw

    # -- germs, fields, foliations --

    def germ(self):
        """The ambient germ context and its variable names."""
        spec = _expect(self._require("germ"), dict, "germ")
        n = _int(spec.get("n"), "germ.n")
        r = _int(spec.get("r", 0), "germ.r")
        try:
            ctx = jets.GermContext(n, r, self.order)
        except ValueError as e:
            raise SceneError(str(e), "germ")
        names = spec.get("names")
        if names is None:
            names = ctx.default_names()
        else:
            names = _expect(names, list, "germ.names")
            if len(names) != n or not all(isinstance(s, str) for s in names):
                raise SceneError("need one name per variable", "germ.names")
        return ctx, tuple(names)

    def params(self):
        out = {}
        spec = _expect(self._get("params", {}), dict, "params")
        for name, value in spec.items():
            out[name] = scene_fraction(value, "params.%s" % name)
        return out

    def jet(self, key, ctx=None, names=None):
        if ctx is None:
            ctx, names = self.germ()
        text = _expect(self._require(key), str, key)
        try:
            return jets.jet_from_string(ctx, text, names=names, params=self.params())
        except ExprError as e:
            raise SceneError(str(e), key)

    def fields(self, ctx=None, names=None):
        """All named vector fields of the scene, parsed on the ambient germ."""
        if ctx is None:
            ctx, names = self.germ()
        spec = _expect(self._require("fields"), dict, "fields")
        params = self.params()
        out = {}
        for name, text in spec.items():
            where = "fields.%s" % name
            text = _expect(text, str, where)
            try:
                out[name] = logcalc.derivation_from_string(ctx, text, names=names, params=params)
            except (ExprError, logcalc.TangencyParseError) as e:
                raise SceneError(str(e), where)
        return out

    def foliation(self):
        ctx, names = self.germ()
        fields = self.fields(ctx, names)
        spec = _expect(self._require("foliation"), dict, "foliation")
        gen_names = _expect(spec.get("generators"), list, "foliation.generators")
        gens = []
        for i, g in enumerate(gen_names):
            if _expect(g, str, "foliation.generators[%d]" % i) not in fields:
                raise SceneError("unknown field %r" % g, "foliation.generators")
            gens.append(fields[g])
        rank = _int(spec.get("rank", 1), "foliation.rank")
        try:
            return foliations.FoliationGerm(ctx, tuple(gens), rank=rank)
        except ValueError as e:
            raise SceneError(str(e), "foliation")

    def unit(self):
        if not self.has("unit"):
            return None
        return self.jet("unit")

    # -- log one-forms and surface forms --

    def one_form(self):
        ctx, names = self.germ()
        spec = _expect(self._require("one_form"), dict, "one_form")
        dlog = _expect(spec.get("dlog"), list, "one_form.dlog")
        reg = _expect(spec.get("reg", []), list, "one_form.reg")
        if len(dlog) != ctx.r or len(reg) != ctx.n - ctx.r:
            raise SceneError(
                "need %d dlog and %d regular coefficients" % (ctx.r, ctx.n - ctx.r), "one_form"
            )
        params = self.params()

        def read(text, where):
            text = _expect(text, str, where)
            try:
                return jets.jet_from_string(ctx, text, names=names, params=params)
            except ExprError as e:
                raise SceneError(str(e), where)

        dlog_jets = [read(t, "one_form.dlog[%d]" % i) for i, t in enumerate(dlog)]
        reg_jets = [read(t, "one_form.reg[%d]" % i) for i, t in enumerate(reg)]
        try:
            return logcalc.LogOneForm.make(ctx, dlog_jets, reg_jets)
        except ValueError as e:
            raise SceneError(str(e), "one_form")

    def index_pair(self):
        if not self.has("index_pair"):
            return None
        pair = _expect(self._require("index_pair"), list, "index_pair")
        if len(pair) != 2:
            raise SceneError("need two 1-based crossing indices", "index_pair")
        return _int(pair[0], "index_pair[0]"), _int(pair[1], "index_pair[1]")

    def surface_form(self):
        """A one-form a dy + b dz on a smooth surface germ with curve y = 0."""
        spec = _expect(self._require("surface_form"), dict, "surface_form")
        ctx = jets.GermContext(2, 0, self.order)
        names = spec.get("names", ["y", "z"])
        names = _expect(names, list, "surface_form.names")
        if len(names) != 2 or not all(isinstance(s, str) for s in names):
            raise SceneError("need exactly two variable names", "surface_form.names")
        params = self.params()

        def read(key):
            text = _expect(spec.get(key), str, "surface_form.%s" % key)
            try:
                return jets.jet_from_string(ctx, text, names=tuple(names), params=params)
            except ExprError as e:
                raise SceneError(str(e), "surface_form.%s" % key)

        return foliations.SurfaceOneForm(read("a"), read("b"))

    # -- glued configurations --

    def component_names(self):
        spec = _expect(self._require("components"), list, "components")
        names = []
        for i, entry in enumerate(spec):
            if isinstance(entry, str):
                names.append(entry)
            elif isinstance(entry, dict):
                name = entry.get("name")
                if not isinstance(name, str):
                    raise SceneError("component needs a name", "components[%d]" % i)
                names.append(name)
            else:
                raise SceneError("expected a name or an object", "components[%d]" % i)
        if len(set(names)) != len(names):
            raise SceneError("duplicate component name", "components")
        return names

    def glue_data(self):
        names = self.component_names()
        index = {name: i for i, name in enumerate(names)}

        def resolve(name, where):
            if not isinstance(name, str):
                raise SceneError("expected a component name", where)
            if name not in index:
                raise SceneError("unknown component %r" % name, where)
            return index[name]

        doubles = []
        for i, entry in enumerate(_expect(self._get("double_strata", []), list, "double_strata")):
            where = "double_strata[%d]" % i
            entry = _expect(entry, dict, where)
            pair = _expect(entry.get("pair"), list, where + ".pair")
            if len(pair) != 2:
                raise SceneError("need two component names", where + ".pair")
            a = resolve(pair[0], where + ".pair")
            b = resolve(pair[1], where + ".pair")
            scalar = scene_fraction(entry.get("scalar"), where + ".scalar")
            doubles.append((a, b, scalar))
        triples = []
        for i, entry in enumerate(_expect(self._get("triple_strata", []), list, "triple_strata")):
            where = "triple_strata[%d]" % i
            entry = _expect(entry, list, where)
            if len(entry) != 3:
                raise SceneError("need three component names", where)
            triples.append(tuple(sorted(resolve(name, where) for name in entry)))
        try:
            glue = foliations.SNCGlueData(tuple(names), tuple(doubles), tuple(triples))
        except ValueError as e:
            raise SceneError(str(e), "double_strata")
        return glue

    def pushout_inputs(self):
        """Per-component candidate fields and foliations for a gluing germ.

        Components are matched to the crossing variables of the ambient germ
        in listed order; their fields are parsed on the component germs.
        """
        ctx, names = self.germ()
        spec = _expect(self._require("components"), list, "components")
        if len(spec) != ctx.r:
            raise SceneError("need one component per crossing variable", "components")
        params = self.params()
        comp_names = self.component_names()
        candidate_spec = self._require("candidate")
        ambient_candidate = None
        if isinstance(candidate_spec, str):
            if self.has("fields") and candidate_spec in _expect(self.raw["fields"], dict, "fields"):
                ambient_candidate = self.fields(ctx, names)[candidate_spec]
            else:
                try:
                    ambient_candidate = logcalc.derivation_from_string(
                        ctx, candidate_spec, names=names, params=params
                    )
                except (ExprError, logcalc.TangencyParseError) as e:
                    raise SceneError(str(e), "candidate")
        else:
            candidate_spec = _expect(candidate_spec, dict, "candidate")
        candidates = []
        comp_fols = []
        for i, entry in enumerate(spec):
            where = "components[%d]" % i
            entry = _expect(entry, dict, where)
            comp_ctx = ctx.component(i)
            comp_names_i = names[:i] + names[i + 1 :]
            local = {}
            for fname, text in _expect(entry.get("fields", {}), dict, where + ".fields").items():
                fwhere = "%s.fields.%s" % (where, fname)
                try:
                    local[fname] = logcalc.derivation_from_string(
                        comp_ctx, _expect(text, str, fwhere), names=comp_names_i, params=params
                    )
                except (ExprError, logcalc.TangencyParseError) as e:
                    raise SceneError(str(e), fwhere)
            gen_names = _expect(entry.get("foliation"), list, where + ".foliation")
            gens = []
            for j, g in enumerate(gen_names):
                if _expect(g, str, "%s.foliation[%d]" % (where, j)) not in local:
                    raise SceneError("unknown field %r" % g, where + ".foliation")
                gens.append(local[g])
            try:
                comp_fols.append(foliations.FoliationGerm(comp_ctx, tuple(gens)))
            except ValueError as e:
                raise SceneError(str(e), where + ".foliation")
            if ambient_candidate is not None:
                continue
            cname = comp_names[i]
            if cname not in candidate_spec:
                raise SceneError("no candidate entry for component %r" % cname, "candidate")
            cwhere = "candidate.%s" % cname
            try:
                candidates.append(
                    logcalc.derivation_from_string(
                        comp_ctx,
                        _expect(candidate_spec[cname], str, cwhere),
                        names=comp_names_i,
                        params=params,
                    )
                )
            except (ExprError, logcalc.TangencyParseError) as e:
                raise SceneError(str(e), cwhere)
        if ambient_candidate is not None:
            return ctx, ambient_candidate, tuple(comp_fols)
        return ctx, tuple(candidates), tuple(comp_fols)

    # -- holonomy and degrees --

    def holonomy(self):
        spec = _expect(self._require("holonomy"), dict, "holonomy")
        out = []
        for key in ("inner", "outer"):
            values = _expect(spec.get(key), list, "holonomy.%s" % key)
            parsed = [
                scene_fraction(v, "holonomy.%s[%d]" % (key, i)) for i, v in enumerate(values)
            ]
            try:
                out.append(semistability.HolonomyData(tuple(parsed)))
            except ValueError as e:
                raise SceneError(str(e), "holonomy.%s" % key)
        return out[0], out[1]

    def normal_degrees(self):
        if not self.has("normal_degrees"):
            return None
        pair = _expect(self._require("normal_degrees"), list, "normal_degrees")
        if len(pair) != 2:
            raise SceneError("need two integers", "normal_degrees")
        return _int(pair[0], "normal_degrees[0]"), _int(pair[1], "normal_degrees[1]")

    # -- bundles --

    def bundle(self):
        spec = _expect(self._require("bundle"), dict, "bundle")
        left = _expect(spec.get("left"), list, "bundle.left")
        right = _expect(spec.get("right"), list, "bundle.right")
        left_deg = tuple(_int(d, "bundle.left[%d]" % i) for i, d in enumerate(left))
        right_deg = tuple(_int(d, "bundle.right[%d]" % i) for i, d in enumerate(right))
        try:
            if "glue" in spec:
                glue = _fraction_matrix(spec["glue"], "bundle.glue")
                return bundles.SNCCurveBundle(
                    bundles.GradedBundleP1(left_deg),
                    bundles.GradedBundleP1(right_deg),
                    tuple(tuple(row) for row in glue),
                )
            return bundles.SNCCurveBundle.with_identity_glue(left_deg, right_deg)
        except ValueError as e:
            raise SceneError(str(e), "bundle")

    # -- monoids --

    def monoid(self):
        spec = _expect(self._require("monoid"), dict, "monoid")
        rank = _int(spec.get("ambient_rank"), "monoid.ambient_rank")
        gens = _int_vectors(spec.get("generators", []), "monoid.generators")
        try:
            return monoids.FGMonoid(rank, gens)
        except ValueError as e:
            raise SceneError(str(e), "monoid")

    def monoid_element(self):
        if not self.has("element"):
            return None
        vec = _expect(self._require("element"), list, "element")
        return tuple(_int(x, "element[%d]" % i) for i, x in enumerate(vec))

    # -- leaf complexes over covers --

    def leaf_data(self):
        spec = _expect(self._require("leaf_data"), dict, "leaf_data")
        builder = spec.get("builder", "explicit")
        try:
            if builder == "constant":
                mats = _expect(spec.get("ce"), list, "leaf_data.ce")
                ce = [_fraction_matrix(m, "leaf_data.ce[%d]" % i) for i, m in enumerate(mats)]
                n_opens = _int(spec.get("opens", 3), "leaf_data.opens")
                return leafcomplex.constant_cover(ce, n_opens=n_opens)
            if builder == "p1-windows":
                degrees = [
                    _int(d, "leaf_data.degrees[%d]" % i)
                    for i, d in enumerate(_expect(spec.get("degrees"), list, "leaf_data.degrees"))
                ]
                window = _int(spec.get("window", 3), "leaf_data.window")
                polys = _fraction_matrix(spec.get("polys", []), "leaf_data.polys")
                return leafcomplex.p1_window_cover(degrees, window, polys)
            if builder == "explicit":
                return self._explicit_leaf_data(spec)
        except ValueError as e:
            raise SceneError(str(e), "leaf_data")
        raise SceneError("unknown builder %r" % builder, "leaf_data.builder")

    def _explicit_leaf_data(self, spec):
        opens = _expect(spec.get("opens"), list, "leaf_data.opens")
        pairs = _int_vectors(spec.get("pairs", []), "leaf_data.pairs")
        triples = _int_vectors(spec.get("triples", []), "leaf_data.triples")
        name_of = {}
        for i, name in enumerate(opens):
            name_of[str(name)] = (i,)
        for p in pairs:
            name_of["|".join(str(opens[i]) for i in p)] = tuple(p)
        for t in triples:
            name_of["|".join(str(opens[i]) for i in t)] = tuple(t)

        def simplex(label, where):
            if label not in name_of:
                raise SceneError("unknown simplex label %r" % label, where)
            return name_of[label]

        dims = {}
        for label, value in _expect(spec.get("spaces"), dict, "leaf_data.spaces").items():
            where = "leaf_data.spaces.%s" % label
            dims[simplex(label, where)] = tuple(
                _int(d, where) for d in _expect(value, list, where)
            )
        restrictions = {}
        for label, mats in _expect(spec.get("restrictions"), dict, "leaf_data.restrictions").items():
            where = "leaf_data.restrictions.%s" % label
            if "->" not in label:
                raise SceneError('restriction labels look like "U0->U0|U1"', where)
            src, dst = label.split("->", 1)
            key = (simplex(src.strip(), where), simplex(dst.strip(), where))
            restrictions[key] = tuple(
                _fraction_matrix(m, "%s[%d]" % (where, q))
                for q, m in enumerate(_expect(mats, list, where))
            )
        ce = {}
        for label, mats in _expect(spec.get("ce"), dict, "leaf_data.ce").items():
            where = "leaf_data.ce.%s" % label
            ce[simplex(label, where)] = tuple(
                _fraction_matrix(m, "%s[%d]" % (where, q))
                for q, m in enumerate(_expect(mats, list, where))
            )
        return leafcomplex.CechLeafData(
            tuple(str(o) for o in opens), pairs, triples, dims, restrictions, ce
        )

    def cochains(self):
        spec = _expect(self._require("cochains"), dict, "cochains")
        return tuple(_fraction_matrix(spec.get(key, []), "cochains.%s" % key)
                     for key in ("theta", "gbar", "bbar"))

    # -- finite-dimensional Lie data --

    def lie_data(self):
        spec = _expect(self._require("lie"), dict, "lie")
        table = _fraction_table(spec.get("structure"), "lie.structure")
        try:
            algebra = leafcomplex.LieAlgebra(table)
        except ValueError as e:
            raise SceneError(str(e), "lie.structure")
        sub = _fraction_matrix(spec.get("sub_basis"), "lie.sub_basis")
        pert = _fraction_matrix(spec.get("perturbation"), "lie.perturbation")
        mu = _fraction_table(spec.get("mu"), "lie.mu")
        try:
            return leafcomplex.FinLieData(algebra, sub, pert, mu)
        except ValueError as e:
            raise SceneError(str(e), "lie")


def load_scene(path, order=None):
    """Read a scene file; order overrides the scene's own, default 6."""
    try:
        with open(path, "r") as handle:
            raw = json.load(handle)
    except OSError as e:
        raise SceneError(str(e))
    except json.JSONDecodeError as e:
        raise SceneError("line %d, column %d: %s" % (e.lineno, e.colno, e.msg), str(path))
    if not isinstance(raw, dict):
        raise SceneError("a scene must be a JSON object", str(path))
    if order is None:
        order = raw.get("order", 6)
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise SceneError("order must be a positive integer", "order")
    return Scene(raw=raw, order=order, path=str(path))
