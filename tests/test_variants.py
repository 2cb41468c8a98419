"""The variant table: one entry per variant drives parsing, solving and checking."""

import dataclasses
import sys

import numpy as np
import pytest

from support import python_frames
from tropiloc import (
    ChebyshevInstance,
    cli,
    emit_instance,
    parse_instance,
    random_infeasible,
    random_instance,
    semiring,
    solve,
    solve_particular,
    solve_scaled,
    variant_of,
)
from tropiloc import check_feasibility as check_any
from tropiloc.chebyshev import _Instance
from tropiloc.errors import InstanceError
from tropiloc.linear import Infeasible
from tropiloc.rectilinear import solve_strip, solve_tilted
from tropiloc.semiring import BOTTOM
from tropiloc.solutions import objective_batch, sample
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


def test_solve_enters_no_numpy_python_wrappers():
    # A small solve is bound by fixed per-call costs, and numpy's Python-level
    # wrappers (ndarray.max/.any, np.max, np.argmax, np.diagonal, np.full,
    # np.vstack, ...) cost up to a few microseconds each.  The solve path and
    # the sampling of its answers call the ufunc reductions and C-level
    # methods those wrappers forward to, so no frame of the wrappers' modules
    # runs.  From n = 42 on a solve iterates on B, and a wrapper there runs
    # once per step: so also a feasible solve that never builds the closure,
    # a planted positive cycle, which the certificate's product finds among
    # the predecessors of its steps, a chain x_i >= 0.001 + x_{i+1}, whose
    # product needs more steps than the closure costs, so the solve buys it,
    # and a tight cycle of weight 0, round which a Newton step's walk finds
    # no origin, so it forms a column.
    modules = ("core._methods", "core.fromnumeric", "core.numeric", "core.shape_base")
    wrappers = {m.__file__ for name, m in list(sys.modules.items()) if name.startswith("numpy.") and name.endswith(modules)}
    assert len(wrappers) >= len(modules)  # numpy 2 may also hold the numpy.core shims
    cases = [random_instance(v.name, 2 if v.rotate45 else 3, 6, seed) for v in TABLE for seed in range(4)]
    cases += [random_infeasible(3, 6, 1, mode) for mode in ("caps", "cycle")]
    chain = np.full((60, 60), BOTTOM)
    chain[np.arange(59), np.arange(1, 60)] = 0.001
    zero = np.full((48, 48), BOTTOM)
    zero[5, 0], zero[0, 1], zero[1, 2], zero[2, 0] = 3.0, 1.0, 1.0, -2.0
    cases.append(ChebyshevInstance(points=[[0.0] * 48], weights=[1.0], addends=[0.0], box_lo=[-10.0] * 48, box_hi=[10.0] * 48, diff_bounds=zero))
    cases += [
        random_instance("chebyshev", 48, 6, 1),
        random_infeasible(60, 6, 1, mode="cycle"),
        dataclasses.replace(random_instance("chebyshev", 60, 6, 2), diff_bounds=chain),
    ]
    results = [solve(inst) for inst in cases]
    assert sum(isinstance(r, Infeasible) for r in results) == 3
    assert results[-3]._star.closure is None and results[-1]._star.closure is not None
    calls = [lambda inst=inst: solve(inst) for inst in cases]
    # sample and objective_batch replay the feasible answers, as `tropiloc solve` does
    calls += [
        lambda inst=inst, box=box: objective_batch(inst, sample(box, 5))
        for inst, box in zip(cases, results)
        if not isinstance(box, Infeasible)
    ]
    frames = python_frames(calls)
    entered = {function for file, function in frames}
    # the clamp, the certificates, theta and the sampling all ran, and so did
    # the iteration's products, its potential, its walks, its columns and its members
    assert {"_magnitude", "_bounds_gap", "_theta_kernel", "trace_and_closure", "_distances"} <= entered
    assert {"_fixed_point", "_proves_acyclic", "chain", "column", "_buy", "members"} <= entered
    assert sorted(f"{file}:{function}" for file, function in frames if file in wrappers) == []
    # the planted cycle is caught by a check, before any exact potential is tried
    cycle = {function for file, function in python_frames([lambda: solve(cases[-2])])}
    assert {"_positive_cycle", "_buy", "trace_and_closure"} <= cycle and "_proves_acyclic" not in cycle


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


def _answer_bits(result) -> tuple:
    if isinstance(result, Infeasible):
        return result.cause, np.float64(result.witness).tobytes()
    arrays = (result.theta, result.generator, result.u_lo, result.u_hi)
    bits = tuple(np.asarray(a, dtype=np.float64).tobytes() for a in arrays)
    return bits + (result.transform.scale, result.transform.rotate45)


def test_solve_trusts_the_arrays_it_has_checked(monkeypatch):
    # An instance is checked once, when it is built.  After that, solve calls
    # none of the validating semiring wrappers, wherever they are bound, and
    # builds no instance through a constructor that checks (the plane
    # reductions pass on the frozen arrays), and every answer is bit for bit
    # that of an unpatched run.
    cases = [inst for variant in TABLE for inst in _instances(variant)]
    cases += [random_infeasible(2 + seed % 3, 4, seed, mode) for seed in range(4) for mode in ("caps", "cycle")]
    results = [solve(inst) for inst in cases]
    kinds = {(lookup(inst).name, isinstance(r, Infeasible)) for inst, r in zip(cases, results)}
    assert kinds == {(v.name, infeasible) for v in TABLE for infeasible in (False, True)}
    assert {r.cause for r in results if isinstance(r, Infeasible)} == {"spectral", "bounds"}
    want = [_answer_bits(r) for r in results]

    def refuse(*args, **kwargs):
        raise AssertionError("a checking entry point ran on the solve path")

    for name in ("conjugate_transpose", "vec_mat", "mat_vec"):
        wrapper = getattr(semiring, name)
        for module in [m for key, m in sys.modules.items() if key == "tropiloc" or key.startswith("tropiloc.")]:
            if getattr(module, name, None) is wrapper:
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(_Instance, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="checking entry point"):
        dataclasses.replace(cases[0])
    got = [_answer_bits(solve(inst)) for inst in cases]
    assert got == want


# The fields each class adds to the shared ones, valid for m = 2 plane points.
OWN_FIELDS = {
    "chebyshev": dict(diff_bounds=np.full((2, 2), BOTTOM)),
    "chebyshev_scaled": dict(diff_bounds=np.full((2, 2), BOTTOM), scale=[1.0, -2.0]),
    "rectilinear_strip": dict(strip_lo=0.0, strip_hi=1.0),
    "rectilinear_tilted": dict(strip_lo=0.0, strip_hi=1.0, slope=2.0),
}

# (faults in the shared fields, the message every class reports).  Rows with
# two faults pin which one is reported first.
SHARED_FAULTS = [
    (dict(points="abc"), "points must be numeric: .*"),
    (dict(points=np.zeros((0, 2))), r"points must be a nonempty 2-D array, got shape \(0, 2\)"),
    (dict(points=[[0.0, 0.0], [np.inf, 0.0]]), r"points\[1\]\[0\] must be finite"),
    (dict(points=[[np.nan, 0.0], [4.0, 0.0]], weights=[1.0]), r"points\[0\]\[0\] must be finite"),
    (dict(weights=[1.0]), r"weights must have length 2, got shape \(1,\)"),
    (dict(weights=[1.0, 0.0]), r"weights\[1\] must be a positive real"),
    (dict(weights=[np.nan, 1.0], addends=[0.0]), r"weights\[0\] must be a positive real"),
    (dict(addends=[[0.0, 0.0]]), r"addends must have length 2, got shape \(1, 2\)"),
    (dict(addends=[0.0, np.inf]), r"addends\[1\] must be finite"),
    (dict(caps=[1.0, 2.0, 3.0]), r"caps must have length 2, got shape \(3,\)"),
    (dict(caps=[1.0, -2.0]), r"caps\[1\] must be a positive real \(or \+inf\)"),
    (dict(caps=[np.nan, 1.0], box_lo=[0.0]), r"caps\[0\] must be a positive real \(or \+inf\)"),
    (dict(box_lo=[0.0]), "lower/upper box bounds must have length 2"),
    (dict(box_hi=[1.0, 1.0, 1.0]), "lower/upper box bounds must have length 2"),
    (dict(box_lo=[np.nan, 0.0], box_hi=[1.0]), "lower/upper box bounds must have length 2"),
    (dict(box_lo=[0.0], box_hi="x"), "upper must be numeric: .*"),
    (dict(box_lo=[0.0, -np.inf]), r"lower\[1\] must be finite"),
    (dict(box_hi=[np.inf, 1.0]), r"upper\[0\] must be finite"),
    (dict(box_lo=[np.nan, 0.0], box_hi=[np.nan, 1.0]), r"lower\[0\] must be finite"),
    (dict(box_lo=[2.0, -1.0]), r"lower\[0\] exceeds upper\[0\]"),
    (dict(box_lo=[-1.0, 2.0]), r"lower\[1\] exceeds upper\[1\]"),
    (dict(box_lo=[2.0, 2.0]), r"lower\[0\] exceeds upper\[0\]"),
]


@pytest.mark.parametrize("variant", TABLE, ids=lambda v: v.name)
def test_shared_field_validation(variant):
    base = dict(
        points=[[0.0, 0.0], [4.0, 0.0]],
        weights=[1.0, 1.0],
        addends=[0.0, 0.0],
        box_lo=[-1.0, -1.0],
        box_hi=[1.0, 1.0],
        **OWN_FIELDS[variant.name],
    )
    inst = variant.instance(**base)
    assert (inst.m, inst.dim) == (2, 2)
    for faults, message in SHARED_FAULTS:
        with pytest.raises(InstanceError, match=f"^{message}$"):
            variant.instance(**{**base, **faults})
