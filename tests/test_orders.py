"""Laws that tie a scene's reports at different orders together.

Every scene in scenes/ is run through `run` at each order of ORDERS, in one
process, and every pair of its reports, at a lower and a higher order, must
keep these laws (docs/scene_format.md, under "order"):

- a command that reads no jet coefficient above degree 0 (ORDER_FREE) gives
  the same report at every order, apart from "order";
- a `semistable check` "no" keeps its failing_degree at every higher order:
  a germ solution truncates to a jet solution;
- a `pushout member` "no" stays a "no" at every higher order that decides,
  on the same component or an earlier one: the inputs at an order are the
  truncations of those at a higher one, restriction commutes with
  truncation, so a member at the higher order is a member at the lower;
- a decided `cs surface` index stays the same at every higher order;
- an exit 3 may become decided as the order grows, never the reverse;
- two unique flat units agree below the lower of their orders, where both
  are determined.

Each law is also shown failing on a pair of reports built to break it.
"""

import itertools
import json
from pathlib import Path

import pytest

from logfol import cli
from logfol.jets import jet_from_string, name_table
from logfol.scene import load_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"
ORDERS = (1, 2, 3, 4, 6, 9, 12)
ORDER_FREE = {"monoid-saturate", "monoid-group", "monoid-check", "cs-log", "pushout-check",
              "cohomology-p1", "cohomology-snc-curve", "leaf-complex", "obstruction-verify",
              "obstruction-lie", "holonomy"}
DECIDED = ("yes", "no", "value")


def _without_order(report):
    return {k: v for k, v in report.items() if k != "order"}


def same_report_when_order_free(lo, hi, path):
    return lo["tool"] not in ORDER_FREE or _without_order(lo) == _without_order(hi)


def a_no_keeps_its_failing_degree(lo, hi, path):
    if lo["tool"] != "semistable-check" or lo["decision"] != "no":
        return True
    degree = lo["details"]["failing_degree"]
    return hi["decision"] == "no" and hi["details"]["failing_degree"] == degree


def a_member_no_stays_on_its_component_or_an_earlier_one(lo, hi, path):
    if lo["tool"] != "pushout-member" or lo["decision"] != "no" or hi["decision"] not in DECIDED:
        return True
    if hi["decision"] != "no":
        return False
    index = load_scene(path, None).component_names().index
    return index(hi["details"]["failing_component"]) <= index(lo["details"]["failing_component"])


def a_decided_index_stays(lo, hi, path):
    if lo["tool"] != "cs-surface" or lo["decision"] != "value":
        return True
    return (hi["decision"], hi["details"]) == (lo["decision"], lo["details"])


def decided_stays_decided(lo, hi, path):
    return lo["decision"] not in DECIDED or hi["decision"] != "inconclusive"


def unique_units_agree(lo, hi, path):
    if not all((r["tool"], r["decision"]) == ("semistable-check", "yes") and r["details"]["unique"]
               for r in (lo, hi)):
        return True
    ctx, names, _ = load_scene(path, hi["order"]).germ()
    table = name_table(ctx, names)
    low, high = (jet_from_string(ctx, r["details"]["unit"], table) for r in (lo, hi))
    return (low - high).truncate(lo["order"] - 1).is_zero()


LAWS = (same_report_when_order_free, a_no_keeps_its_failing_degree,
        a_member_no_stays_on_its_component_or_an_earlier_one, a_decided_index_stays,
        decided_stays_decided, unique_units_agree)


def corpus_reports(tmp_path):
    """{scene path: {order: report}} for every scene, run at every order."""
    paths = sorted(SCENES.glob("*.json"))
    out = tmp_path / "reports.json"
    reports = {path: {} for path in paths}
    for order in ORDERS:
        cli.main(["run", *map(str, paths), "--order", str(order), "--json", str(out)])
        for path, report in zip(paths, json.loads(out.read_text())):
            reports[path][order] = report
    return reports


def test_the_corpus_keeps_every_law_across_orders(tmp_path, capsys):
    reports = corpus_reports(tmp_path)
    capsys.readouterr()
    broken = [(path.stem, lo, hi, law.__name__)
              for path, by_order in reports.items()
              for lo, hi in itertools.combinations(ORDERS, 2)
              for law in LAWS if not law(by_order[lo], by_order[hi], path)]
    assert broken == []
    # no law holds for want of a case: semistable_degree_1_no is a "no" at
    # degree 1 from order 2 on (at order 1 no degree-1 row is built, and the
    # unit 1 solves the degree-0 rows), pushout_member_no_from_order_2 a "no"
    # from order 2 on (its x3^2*dx3 term vanishes at order 1), and
    # surface_quotient_order_guard is exit 3 until its quotient has the
    # coefficients it needs
    changed = {path.stem: [by_order[order]["decision"] for order in ORDERS]
               for path, by_order in reports.items()
               if len({r["decision"] for r in by_order.values()}) > 1}
    assert changed == {
        "pushout_member_no_from_order_2": ["yes"] + ["no"] * 6,
        "semistable_degree_1_no": ["yes"] + ["no"] * 6,
        "surface_quotient_order_guard": ["inconclusive"] * 5 + ["value"] * 2,
    }
    no = reports[SCENES / "semistable_degree_1_no.json"]
    assert no[1]["details"] == {"order": 1, "unique": True, "unit": "1"}
    assert no[2]["details"] == {"failing_degree": 1, "order": 2}
    # and a pushout member "no" that moves to an earlier component
    moved = reports[SCENES / "pushout_member_no_moves_earlier.json"]
    assert [moved[order]["details"]["failing_component"] for order in ORDERS] == ["B"] + ["A"] * 6
    assert {r["tool"] for by_order in reports.values() for r in by_order.values()} >= ORDER_FREE
    # and a unique unit that grows with the order: exp(x3) below the order
    unit = reports[SCENES / "semistable_unit_exponential.json"]
    assert [unit[order]["details"]["unit"] for order in (1, 2, 3)] == [
        "1", "1 + x3", "1 + x3 + 1/2*x3^2"]


def _report(tool, decision, order, **details):
    return {"decision": decision, "details": details, "lines": [], "order": order,
            "summary": "", "tool": tool}


BROKEN = [
    (same_report_when_order_free, _report("cohomology-p1", "value", 2, h0=3, h1=0),
     _report("cohomology-p1", "value", 4, h0=4, h1=0), None),
    (a_no_keeps_its_failing_degree, _report("semistable-check", "no", 2, failing_degree=1),
     _report("semistable-check", "no", 4, failing_degree=2), None),
    (a_no_keeps_its_failing_degree, _report("semistable-check", "no", 2, failing_degree=1),
     _report("semistable-check", "yes", 4, unique=True, unit="1"), None),
    (a_decided_index_stays, _report("cs-surface", "value", 9, index="-3"),
     _report("cs-surface", "value", 12, index="-2"), None),
    (decided_stays_decided, _report("cs-surface", "value", 9, index="-3"),
     _report("cs-surface", "inconclusive", 12), None),
    (unique_units_agree, _report("semistable-check", "yes", 2, unique=True, unit="1 + x1"),
     _report("semistable-check", "yes", 4, unique=True, unit="1"),
     SCENES / "node_balanced.json"),
    (a_member_no_stays_on_its_component_or_an_earlier_one,
     _report("pushout-member", "no", 2, failing_component="A"),
     _report("pushout-member", "yes", 4), SCENES / "pushout_member_no_from_order_2.json"),
    (a_member_no_stays_on_its_component_or_an_earlier_one,
     _report("pushout-member", "no", 2, failing_component="A"),
     _report("pushout-member", "no", 4, failing_component="B"),
     SCENES / "pushout_member_no_from_order_2.json"),
]


@pytest.mark.parametrize("law, lo, hi, path", BROKEN,
                         ids=["%s-%d" % (case[0].__name__, i) for i, case in enumerate(BROKEN)])
def test_each_law_fails_on_reports_built_to_break_it(law, lo, hi, path):
    assert not law(lo, hi, path)
    # and it holds again once the higher report is the lower one at the higher order
    assert law(lo, dict(lo, order=hi["order"]), path)


def _member_inputs(path, order):
    """The coefficient terms of each candidate field and each generator that
    pushout member reads from the scene at path at the order."""
    _, fields, fols, _ = load_scene(path, order).pushout_inputs()
    return [[jet.terms for jet in v.b + v.a]
            for v in fields + tuple(g for fol in fols for g in fol.generators)]


def test_pushout_member_inputs_at_an_order_are_truncations_of_a_higher_one():
    # what a_member_no_stays_on_its_component_or_an_earlier_one rests on:
    # every coefficient read at an order is the one read at the top order
    # with its terms past that order dropped
    checked = 0
    for path in sorted(SCENES.glob("*.json")):
        scene = json.loads(path.read_text())
        if scene["command"] != ["pushout", "member"] or scene["expect"]["decision"] not in DECIDED:
            continue
        top = _member_inputs(path, ORDERS[-1])
        for order in ORDERS[:-1]:
            assert _member_inputs(path, order) == [
                [{e: c for e, c in terms.items() if sum(e) <= order} for terms in field]
                for field in top], (path.stem, order)
        checked += 1
    assert checked
