"""The JSON writer against an independent arbiter.

The arbiter builds each payload field by field from the report and the
decomposition and serialises it with `json.dumps`.  The `scan` lines,
`finite --format json`, `group --format json`, `report_to_dict` and
`decomposition_to_dict` must all agree with it, key order included.
"""

import argparse
import json

import pytest

from polyadic.cli import _cmd_finite, _cmd_group, main
from polyadic.finite import finite_ring, report_to_dict, structure_report
from polyadic.groups import decompose, decomposition_to_dict
from polyadic.tables import grid_pairs


def report_dict(report):
    fr = report.ring
    d = fr.ring
    return {
        "a": d.a,
        "b": d.b,
        "m": d.m,
        "n": d.n,
        "I": d.i_shape,
        "J": d.j_shape,
        "q": fr.q,
        "q_star": report.q_star,
        "n_admissible": report.n_admissible,
        "zero": report.zero,
        "units": list(report.units),
        "kappa_e": report.kappa_e,
        "is_field": report.is_field,
        "chi_p": report.chi_p,
        "lambda_p": report.lambda_p,
        "zeroless": report.zeroless,
        "nonunital": report.nonunital,
        "element_orders": {str(k): o for k, o in enumerate(report.element_orders)},
    }


def group_dict(dec):
    return {
        "subgroups": [list(g) for g in dec.subgroups],
        "units": list(dec.unit_subgroup),
        "split": dec.unit_subgroup_split,
        "covers": dec.covers,
        "primitive": list(dec.primitive_elements),
        "reflections": {str(k): l for k, l in dec.reflections},
    }


def dump(obj):
    return json.dumps(obj, separators=(",", ":")) + "\n"


def check_ring(fr, finite_out, group_out):
    """Compare one ring's command outputs and dicts with the arbiter."""
    report = structure_report(fr)
    want = report_dict(report)
    got = report_to_dict(report)
    # json.dumps keeps key order and tells True from 1, so equal texts
    # mean equal dicts with the same keys in the same order.
    assert dump(got) == dump(want) and got == want, fr
    assert finite_out == dump(want), fr
    if not report.is_field:
        return want
    dec = decompose(report)
    want_group = group_dict(dec)
    got_group = decomposition_to_dict(dec)
    assert dump(got_group) == dump(want_group) and got_group == want_group, fr
    assert group_out == dump(want_group), fr
    return {**want, "group": want_group}


def command(handler, fr):
    d = fr.ring
    return handler(argparse.Namespace(a=d.a, b=d.b, q=fr.q, format="json"))


def test_every_ring_up_to_12_matches_the_arbiter(capsys):
    # Every ring with b, q <= 12, the binary limit and q = 1 included; the
    # scan covers those with b >= 2 and q >= 2, in (b, a, q) order.
    assert main(["scan", "--bmax", "12", "--qmax", "12"]) == 0
    scan_lines = iter(capsys.readouterr().out.splitlines(keepends=True))
    rings = [finite_ring(a, b, q) for a, b in [(0, 1), *grid_pairs(12)]
             for q in range(1, 13)]
    scanned = 0
    for fr in rings:
        is_field = structure_report(fr).is_field
        line = check_ring(fr, command(_cmd_finite, fr),
                          command(_cmd_group, fr) if is_field else None)
        if fr.ring.b >= 2 and fr.q >= 2:
            assert next(scan_lines) == dump(line), fr
            scanned += 1
    assert next(scan_lines, None) is None
    assert len(rings) == 696 and scanned == 627


@pytest.mark.parametrize("a, b", [(1, 2), (5, 6)])
@pytest.mark.parametrize("q", [64, 65, 100, 1001])
def test_large_orders_match_the_arbiter(capsys, a, b, q):
    fr = finite_ring(a, b, q)
    outs = []
    for cmd in ("finite", "group"):
        code = main([cmd, "--a", str(a), "--b", str(b), "--q", str(q), "--format", "json"])
        outs.append(capsys.readouterr().out)
        assert code == (0 if cmd == "finite" or structure_report(fr).is_field else 3)
    check_ring(fr, *outs)
