"""The variant table: one entry per variant drives parsing, solving and checking."""

import dataclasses

import numpy as np
import pytest

from tropiloc import (
    cli,
    emit_instance,
    parse_instance,
    random_instance,
    solve,
    solve_particular,
    solve_scaled,
    solve_strip,
    solve_tilted,
    variant_of,
)
from tropiloc import check_feasibility as check_any
from tropiloc.linear import Infeasible
from tropiloc.variants import TABLE, lookup

TYPED = {
    "chebyshev": solve_particular,
    "chebyshev_scaled": solve_scaled,
    "rectilinear_strip": solve_strip,
    "rectilinear_tilted": solve_tilted,
}


def _instances(variant):
    dims = (2,) if variant.rotate45 else (1, 2, 3)
    for n in dims:
        for seed in range(6):
            inst = random_instance(variant.name, n, 2 + seed, seed)
            yield inst
            # pinching every cap makes most of these infeasible
            yield dataclasses.replace(inst, caps=np.full(inst.m, 0.01))


def _same_result(a, b):
    if isinstance(a, Infeasible):
        return a == b
    return (
        a.theta == b.theta
        and np.array_equal(a.generator, b.generator)
        and np.array_equal(a.u_lo, b.u_lo)
        and np.array_equal(a.u_hi, b.u_hi)
        and (a.transform.scale, a.transform.rotate45) == (b.transform.scale, b.transform.rotate45)
    )


def test_table_order():
    # generate.VARIANTS and benchmarks/workloads.py pick variants by position.
    assert [v.name for v in TABLE] == list(TYPED)


@pytest.mark.parametrize("variant", TABLE, ids=lambda v: v.name)
def test_variant_roundtrip_solve_and_check(variant, tmp_path, capsys):
    infeasible = 0
    for idx, inst in enumerate(_instances(variant)):
        assert lookup(inst) is variant
        again = parse_instance(emit_instance(inst))
        assert type(again) is variant.instance
        assert variant_of(again) == variant.name

        result = solve(inst)
        assert _same_result(result, TYPED[variant.name](inst))
        infeasible += isinstance(result, Infeasible)

        path = tmp_path / f"{idx}.json"
        path.write_text(emit_instance(inst))
        code = cli.main(["check", str(path)])
        capsys.readouterr()
        assert code == (0 if check_any(inst).feasible else 2)
        assert check_any(inst).feasible == (not isinstance(result, Infeasible))
    assert infeasible > 0

