"""Scene files: JSON descriptions of the objects the command line works on.

A scene is one JSON object.  Rational numbers are written as integers or as
strings like "3/2", read by linalg's rule (ints where integral); floating
point literals are rejected.  Integers are read by linalg's _integer.  Jets
and vector fields are expression strings in the germ's variable names,
parsed exactly.  Which keys a scene needs depends on the subcommand reading
it.

Four readers carry the work the accessors share: _items reads a JSON list
entry by entry, _numbers a list of numbers in one pass (it names the entry
at fault only when one fails), _parser reads an expression string on a
germ, and _foliation builds a foliation from named fields.  Every
SceneError an accessor raises names the key path at fault: "lie.mu[0][1]"
for a bad value, "components[1].fields.u" for an expression that does not
parse, the key itself when it is missing.  Each accessor checks its keys in
a fixed order, so an input with several faults always reports the same one
first.

The library refuses what it cannot build with a ValueError.  One boundary,
"with _at(where):", turns such an error into a SceneError at where, and is
the only place that does; a SceneError from a nested reader passes through
with its own, deeper key path.  So every input error leaves a reader as a
SceneError that names its key path.
"""

from __future__ import annotations

import json

from . import bundles, foliations, jets, leafcomplex, logcalc, monoids, semistability
from .linalg import _exact, _integer


class SceneError(Exception):
    def __init__(self, message, where=None):
        self.where = where
        if where:
            message = "%s: %s" % (where, message)
        super().__init__(message)


class _at:
    """with _at(where): a ValueError raised inside is raised again as
    SceneError(str(e), where); a SceneError passes unchanged."""

    __slots__ = ("where",)

    def __init__(self, where):
        self.where = where

    def __enter__(self):
        return self

    def __exit__(self, kind, e, tb):
        if isinstance(e, ValueError):
            raise SceneError(str(e), self.where)


def scene_fraction(value, where):
    """The rational value as linalg's reader reads it, its errors at where."""
    with _at(where):
        return _exact(value)


def _expect(value, kind, where):
    if not isinstance(value, kind):
        raise SceneError("expected %s" % kind.__name__, where)
    return value


def _int(value, where):
    with _at(where):
        return _integer(value)


def _items(values, where, read):
    """The JSON list values, read entry by entry: read(entry, "where[i]")."""
    return tuple(read(x, "%s[%d]" % (where, i)) for i, x in enumerate(_expect(values, list, where)))


def _numbers(values, where, read):
    """The JSON list values, each read by read (_exact or _integer) with no
    key path; only when one fails is the list read again, entry by entry,
    to report the first bad entry at where[i]."""
    values = _expect(values, list, where)
    try:
        return tuple(map(read, values))
    except ValueError:
        for i, x in enumerate(values):
            with _at("%s[%d]" % (where, i)):
                read(x)
        raise


def _fractions(values, where):
    return _numbers(values, where, _exact)


def _fraction_matrix(rows, where):
    return _items(rows, where, _fractions)


def _vector(values, where):
    """A vector of rationals whose bad entries are reported at the vector."""
    values = _expect(values, list, where)
    with _at(where):
        return tuple(map(_exact, values))


def _fraction_table(rows, where):
    """rows[i][j] a vector of rationals, as Lie structure constants and mu
    are given; a bad entry is reported at its vector, where[i][j]."""
    return _items(rows, where, lambda row, at: _items(row, at, _vector))


def _int_vectors(rows, where):
    return _items(rows, where, lambda row, at: _numbers(row, at, _integer))


def _parser(parse, ctx, table, params):
    """read(text, where): the expression string text parsed on ctx by parse
    (jets.jet_from_string or logcalc.derivation_from_string) through the
    finished name table, an error in the text raised as SceneError at
    where."""

    def read(text, where):
        text = _expect(text, str, where)
        with _at(where):
            return parse(ctx, text, table=table, params=params)

    return read


def _variable_names(ctx, names, where):
    """The list names as one string per variable of ctx; the caller's table
    of them, built at where, refuses clashes with each other and with the
    default names x1..xn."""
    names = _expect(names, list, where)
    if len(names) != ctx.n or not all(isinstance(s, str) for s in names):
        raise SceneError("need %d variable names, as strings" % ctx.n, where)
    return tuple(names)


def _foliation(ctx, fields, gen_names, where, at, rank=1):
    """The foliation generated by the fields named in the list gen_names.

    Names are checked at where, each in turn: a string, then a key of
    fields.  rank is read after them, at at.rank; an invalid foliation is
    reported at at.
    """
    gens = []
    for i, g in enumerate(_expect(gen_names, list, where)):
        if _expect(g, str, "%s[%d]" % (where, i)) not in fields:
            raise SceneError("unknown field %r" % g, where)
        gens.append(fields[g])
    rank = _int(rank, at + ".rank")
    with _at(at):
        return foliations.FoliationGerm(ctx, tuple(gens), rank=rank)


class Scene:
    """A parsed scene plus the truncation order in force for it."""

    __slots__ = ("raw", "order")

    def __init__(self, raw, order):
        self.raw = raw
        self.order = order

    # -- plumbing --

    def _get(self, key, default):
        return self.raw.get(key, default)

    def _require(self, key):
        if key not in self.raw:
            raise SceneError("scene lacks the key %r" % key)
        return self.raw[key]

    def has(self, key):
        return key in self.raw

    # -- germs, fields, foliations --

    def germ(self):
        """The ambient germ context, its variable names and their table with
        the derivation tokens "d" + name (logcalc.derivation_table), built
        once here for every field read on the germ."""
        spec = _expect(self._require("germ"), dict, "germ")
        n = _int(spec.get("n"), "germ.n")
        r = _int(spec.get("r", 0), "germ.r")
        with _at("germ"):
            ctx = jets.GermContext(n, r, self.order)
        names = spec.get("names")
        if names is None:
            names = ctx.default_names()
        else:
            names = _variable_names(ctx, names, "germ.names")
        with _at("germ.names"):
            return ctx, names, logcalc.derivation_table(ctx, names)

    def params(self, ctx, table):
        """The named rationals, none of them a name of the germ ctx, the one
        the expressions are read on, or the derivation token "d" + such a
        name: a parameter would replace it in every expression.  table is
        the germ's table, as jets.name_table or logcalc.derivation_table
        builds it; its variables are the entries below ctx.n.  A component
        germ reads a subset of those names."""
        spec = _expect(self._get("params", {}), dict, "params")
        n = ctx.n
        out = {}
        for name, value in spec.items():
            where = "params.%s" % name
            if table.get(name, n) < n:
                raise SceneError("%r names variable %d of the germ" % (name, table[name] + 1), where)
            if name[:1] == "d" and table.get(name[1:], n) < n:
                raise SceneError("%r is the derivation token of %r" % (name, name[1:]), where)
            out[name] = scene_fraction(value, where)
        return out

    def fields(self, germ):
        """All named vector fields of the scene, parsed on the ambient germ,
        given as germ() returns it."""
        ctx, _, table = germ
        spec = _expect(self._require("fields"), dict, "fields")
        read = _parser(logcalc.derivation_from_string, ctx, table, self.params(ctx, table))
        return {name: read(text, "fields.%s" % name) for name, text in spec.items()}

    def foliation(self, germ):
        """The foliation of the scene on the ambient germ, given as germ()
        returns it."""
        ctx, fields = germ[0], self.fields(germ)
        spec = _expect(self._require("foliation"), dict, "foliation")
        return _foliation(ctx, fields, spec.get("generators"), "foliation.generators",
                          "foliation", spec.get("rank", 1))

    # -- log one-forms and surface forms --

    def one_form(self):
        ctx, _, table = self.germ()
        spec = _expect(self._require("one_form"), dict, "one_form")
        dlog = _expect(spec.get("dlog"), list, "one_form.dlog")
        reg = _expect(spec.get("reg", []), list, "one_form.reg")
        if len(dlog) != ctx.r or len(reg) != ctx.n - ctx.r:
            raise SceneError(
                "need %d dlog and %d regular coefficients" % (ctx.r, ctx.n - ctx.r), "one_form"
            )
        variables = {name: i for name, i in table.items() if i < ctx.n}
        read = _parser(jets.jet_from_string, ctx, variables, self.params(ctx, table))
        dlog_jets = _items(dlog, "one_form.dlog", read)
        reg_jets = _items(reg, "one_form.reg", read)
        with _at("one_form"):
            return logcalc.LogOneForm.make(ctx, dlog_jets, reg_jets)

    def _int_pair(self, key, message):
        """The optional pair of integers at key; message if it is no pair."""
        if not self.has(key):
            return None
        if len(_expect(self.raw[key], list, key)) != 2:
            raise SceneError(message, key)
        return _numbers(self.raw[key], key, _integer)

    def index_pair(self, ctx):
        """The optional pair of 1-based indices of two crossing variables of ctx."""
        pair = self._int_pair("index_pair", "need two 1-based crossing indices")
        if pair is not None:
            with _at("index_pair"):
                semistability._crossing_pair(ctx, pair[0] - 1, pair[1] - 1)
        return pair

    def surface_form(self):
        """A one-form a dy + b dz on a smooth surface germ with curve y = 0."""
        spec = _expect(self._require("surface_form"), dict, "surface_form")
        ctx = jets.GermContext(2, 0, self.order)
        names = _variable_names(ctx, spec.get("names", ["y", "z"]), "surface_form.names")
        with _at("surface_form.names"):
            table = jets.name_table(ctx, names)
        read = _parser(jets.jet_from_string, ctx, table, self.params(ctx, table))
        return foliations.SurfaceOneForm(read(spec.get("a"), "surface_form.a"),
                                         read(spec.get("b"), "surface_form.b"))

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

        def double(entry, where):
            pair = _expect(_expect(entry, dict, where).get("pair"), list, where + ".pair")
            if len(pair) != 2:
                raise SceneError("need two component names", where + ".pair")
            a = resolve(pair[0], where + ".pair")
            b = resolve(pair[1], where + ".pair")
            return a, b, scene_fraction(entry.get("scalar"), where + ".scalar")

        def triple(entry, where):
            if len(_expect(entry, list, where)) != 3:
                raise SceneError("need three component names", where)
            return tuple(sorted(resolve(name, where) for name in entry))

        doubles = _items(self._get("double_strata", []), "double_strata", double)
        triples = _items(self._get("triple_strata", []), "triple_strata", triple)
        with _at("double_strata"):
            return foliations.SNCGlueData(tuple(names), doubles, triples)

    def pushout_inputs(self):
        """Per-component candidate fields and foliations for a gluing germ.

        Components are matched to the crossing variables of the ambient germ
        in listed order; their fields are parsed on the component germs, in
        the ambient names and tokens other than the component's own, x2 in
        {x1 = 0} still naming the ambient x2.  A candidate that names a
        field is that field, read alone at fields.<name>.  The component
        names come back last, in listed order.
        """
        ctx, _, table = self.germ()
        spec = _expect(self._require("components"), list, "components")
        if len(spec) != ctx.r:
            raise SceneError("need one component per crossing variable", "components")
        params = self.params(ctx, table)
        comp_names = self.component_names()
        candidate_spec = self._require("candidate")
        ambient_candidate = None
        if isinstance(candidate_spec, str):
            read = _parser(logcalc.derivation_from_string, ctx, table, params)
            fields = _expect(self._get("fields", {}), dict, "fields")
            if candidate_spec in fields:
                ambient_candidate = read(fields[candidate_spec], "fields.%s" % candidate_spec)
            else:
                ambient_candidate = read(candidate_spec, "candidate")
        else:
            candidate_spec = _expect(candidate_spec, dict, "candidate")
        n = ctx.n
        candidates = []
        comp_fols = []
        for i, entry in enumerate(spec):
            where = "components[%d]" % i
            entry = _expect(entry, dict, where)
            with _at(where):
                comp_ctx = ctx.component(i)
            # variables fill slots 0..n-1 and tokens n..2n-1; x_i's two go, later ones move down
            comp_table = {name: j // n * (n - 1) + j % n - (j % n > i)
                          for name, j in table.items() if j % n != i}
            read = _parser(logcalc.derivation_from_string, comp_ctx, comp_table, params)
            local = {fname: read(text, "%s.fields.%s" % (where, fname)) for fname, text
                     in _expect(entry.get("fields", {}), dict, where + ".fields").items()}
            fol_where = where + ".foliation"
            comp_fols.append(_foliation(comp_ctx, local, entry.get("foliation"), fol_where,
                                        fol_where))
            if ambient_candidate is not None:
                continue
            cname = comp_names[i]
            if cname not in candidate_spec:
                raise SceneError("no candidate entry for component %r" % cname, "candidate")
            candidates.append(read(candidate_spec[cname], "candidate.%s" % cname))
        if ambient_candidate is not None:
            return ctx, ambient_candidate, tuple(comp_fols), comp_names
        return ctx, tuple(candidates), tuple(comp_fols), comp_names

    # -- holonomy and degrees --

    def holonomy(self):
        spec = _expect(self._require("holonomy"), dict, "holonomy")
        out = []
        for key in ("inner", "outer"):
            values = _fractions(spec.get(key), "holonomy.%s" % key)
            with _at("holonomy.%s" % key):
                out.append(semistability.HolonomyData(values))
        if len(out[0].values) != len(out[1].values):
            raise SceneError("holonomy tuples have different lengths", "holonomy")
        return out[0], out[1]

    def normal_degrees(self):
        return self._int_pair("normal_degrees", "need two integers")

    # -- bundles --

    def bundle(self):
        spec = _expect(self._require("bundle"), dict, "bundle")
        left = _expect(spec.get("left"), list, "bundle.left")
        right = _expect(spec.get("right"), list, "bundle.right")
        left_deg = _numbers(left, "bundle.left", _integer)
        right_deg = _numbers(right, "bundle.right", _integer)
        with _at("bundle"):
            if "glue" in spec:
                return bundles.SNCCurveBundle(
                    bundles.GradedBundleP1(left_deg),
                    bundles.GradedBundleP1(right_deg),
                    _fraction_matrix(spec["glue"], "bundle.glue"),
                )
            return bundles.SNCCurveBundle.with_identity_glue(left_deg, right_deg)

    # -- monoids --

    def monoid(self):
        spec = _expect(self._require("monoid"), dict, "monoid")
        rank = _int(spec.get("ambient_rank"), "monoid.ambient_rank")
        gens = _int_vectors(spec.get("generators", []), "monoid.generators")
        with _at("monoid"):
            return monoids.FGMonoid(rank, gens)

    def monoid_element(self, m):
        """The optional element, a vector of m's ambient rank."""
        if not self.has("element"):
            return None
        element = _numbers(self.raw["element"], "element", _integer)
        with _at("element"):
            return monoids._as_vec(element, m.ambient_rank)

    # -- leaf complexes over covers --

    def leaf_data(self):
        spec = _expect(self._require("leaf_data"), dict, "leaf_data")
        builder = spec.get("builder", "explicit")
        with _at("leaf_data"):
            if builder == "constant":
                ce = _items(spec.get("ce"), "leaf_data.ce", _fraction_matrix)
                n_opens = _int(spec.get("opens", 3), "leaf_data.opens")
                return leafcomplex.constant_cover(ce, n_opens=n_opens)
            if builder == "p1-windows":
                degrees = _numbers(spec.get("degrees"), "leaf_data.degrees", _integer)
                window = _int(spec.get("window", 3), "leaf_data.window")
                polys = _fraction_matrix(spec.get("polys", []), "leaf_data.polys")
                return leafcomplex.p1_window_cover(degrees, window, polys)
            if builder == "explicit":
                return self._explicit_leaf_data(spec)
        raise SceneError("unknown builder %r" % builder, "leaf_data.builder")

    def _explicit_leaf_data(self, spec):
        opens = _expect(spec.get("opens"), list, "leaf_data.opens")
        pairs = _int_vectors(spec.get("pairs", []), "leaf_data.pairs")
        triples = _int_vectors(spec.get("triples", []), "leaf_data.triples")
        name_of = {}
        for i, name in enumerate(opens):
            where = "leaf_data.opens[%d]" % i
            text = str(name)
            if "|" in text or "->" in text:
                raise SceneError("open %r holds a label separator, | or ->" % text, where)
            if text in name_of:
                raise SceneError("open %r has the name of open %d" % (name, name_of[text][0]),
                                 where)
            name_of[text] = (i,)
        for key, simplices in (("pairs", pairs), ("triples", triples)):
            for k, s in enumerate(simplices):
                for i in s:
                    if not 0 <= i < len(opens):
                        raise SceneError("no open has index %d" % i, "leaf_data.%s[%d]" % (key, k))
                name_of["|".join(str(opens[i]) for i in s)] = s

        def simplex(label, where):
            if label not in name_of:
                raise SceneError("unknown simplex label %r" % label, where)
            return name_of[label]

        dims = {}
        for label, value in _expect(spec.get("spaces"), dict, "leaf_data.spaces").items():
            where = "leaf_data.spaces.%s" % label
            value = _expect(value, list, where)
            with _at(where):
                dims[simplex(label, where)] = tuple(map(_integer, value))
        restrictions = {}
        for label, mats in _expect(spec.get("restrictions"), dict, "leaf_data.restrictions").items():
            where = "leaf_data.restrictions.%s" % label
            if "->" not in label:
                raise SceneError('restriction labels look like "U0->U0|U1"', where)
            src, dst = label.split("->", 1)
            key = (simplex(src, where), simplex(dst, where))
            restrictions[key] = _items(mats, where, _fraction_matrix)
        ce = {}
        for label, mats in _expect(spec.get("ce"), dict, "leaf_data.ce").items():
            where = "leaf_data.ce.%s" % label
            ce[simplex(label, where)] = _items(mats, where, _fraction_matrix)
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
        with _at("lie.structure"):
            algebra = leafcomplex.LieAlgebra(table)
        sub = _fraction_matrix(spec.get("sub_basis"), "lie.sub_basis")
        pert = _fraction_matrix(spec.get("perturbation"), "lie.perturbation")
        mu = _fraction_table(spec.get("mu"), "lie.mu")
        with _at("lie"):
            return leafcomplex.FinLieData(algebra, sub, pert, mu)


def load_scene(path, order):
    """Read a scene file; order, unless None, overrides the scene's own,
    default 6."""
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
    return Scene(raw=raw, order=order)
