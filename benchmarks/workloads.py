"""The benchmark's three workloads: instance pools made from a seed.

Each pool has a fixed list of shapes (variant, m, n, feasible or with a
planted cause of infeasibility); the seed only draws the data, so the work
per pass over the pool is the same for every seed.

* many_clients -- ``tropiloc.solve`` on 12 feasible instances of all four
  variants with m in {1000, 1250, 1500} and n of 2 to 4 (scaled instances
  with every difference bound present): the closed-form theta, O(m^2 n),
  does the work.
* wide_bounds -- ``tropiloc.solve`` on 18 plain Chebyshev instances with
  m = 20: 12 with dense difference bounds and n of 100 to 300, 6 with a
  planted positive cycle and n of 60 to 100: the closure and the O(n^4)
  power-trace fallback do the work.
* small_files -- ``tropiloc solve FILE`` run in-process on files with m of
  3 to 20 and n of 2 to 4, all four variants, 10% infeasible (both causes),
  and 4 in 9 of the feasible ones rescaled to magnitude 1e6 or 1e9: fixed
  per-call costs (parse, dispatch, reduction, sampling, emit) dominate.

Run as a script, this module generates one pool into a directory, one JSON
instance file per item plus ``manifest.json`` with the ground truth:

    PYTHONPATH=src python3 benchmarks/workloads.py --workload small_files --seed 1 --out DIR

``run.py`` runs it in a child process, so the generator's memory does not
count toward the benchmark process's peak, and loads the pool with ``load``.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

from check import Scales
from tropiloc import (
    ChebyshevInstance,
    ScaledChebyshevInstance,
    StripInstance,
    TiltedStripInstance,
    emit_instance,
    parse_instance,
    random_infeasible,
    random_instance,
)
from tropiloc.generate import VARIANTS

NAMES = ("many_clients", "wide_bounds", "small_files")

# Bound density of wide_bounds: random_instance draws each off-diagonal entry
# of B with probability 0.45, but leaves B empty on about a third of seeds;
# those seeds are skipped.  Cycle instances come from
# random_infeasible(mode="cycle"): density 0.3 plus a planted 2-cycle.


@dataclass
class Item:
    """One generated input with its ground truth."""

    name: str
    variant: str
    inst: object
    cause: str | None  # None: feasible; else the certificate that must fail
    slice: str = "native"  # or the magnitude the instance was rescaled to
    scales: Scales | None = None
    path: str = ""
    bytes_in: int = 0


def _sub_seed(seed: int, workload: str, slot: int, attempt: int = 0) -> int:
    entropy = [seed, NAMES.index(workload), slot, attempt]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _with_bounds(seed: int, slot: int, n: int, m: int):
    """A plain random_instance, skipping seeds that leave B empty."""
    for attempt in range(64):
        inst = random_instance("chebyshev", n, m, _sub_seed(seed, "wide_bounds", slot, attempt))
        if np.isfinite(inst.diff_bounds).any():
            return inst
    raise RuntimeError(f"no instance with difference bounds for slot {slot}")


def _complete_bounds(inst: ScaledChebyshevInstance) -> ScaledChebyshevInstance:
    """The same instance with every absent difference bound filled in.

    In scaled coordinates y = c x the box already implies
    y_i - y_k >= lo_i - hi_k, so a bound one unit below that changes neither
    the feasible set nor theta, and closes no positive cycle.  With every
    entry of B* finite, the scaled theta loop (O(m^2) per finite entry) does
    the same work for every seed.
    """
    c = inst.scale
    lo = np.minimum(c * inst.box_lo, c * inst.box_hi)
    hi = np.maximum(c * inst.box_lo, c * inst.box_hi)
    implied = lo[:, None] - hi[None, :] - 1.0
    return ScaledChebyshevInstance(
        points=inst.points,
        weights=inst.weights,
        addends=inst.addends,
        caps=inst.caps,
        box_lo=inst.box_lo,
        box_hi=inst.box_hi,
        diff_bounds=np.where(np.isfinite(inst.diff_bounds), inst.diff_bounds, implied),
        scale=c,
    )


def rescale(inst, magnitude: float):
    """The same instance with every length multiplied by one factor.

    The factor maps the largest datum to ``magnitude``; it is not a power of
    two, so the scaled data round.  In exact arithmetic the map keeps
    feasibility, multiplies theta by the factor and maps the optimal set
    onto the optimal set.
    """
    caps = () if inst.caps is None else (inst.caps[np.isfinite(inst.caps)],)
    if isinstance(inst, StripInstance):
        extra = (np.array([inst.strip_lo, inst.strip_hi]),)
    else:
        extra = (inst.diff_bounds[np.isfinite(inst.diff_bounds)],)
    data = np.concatenate([np.ravel(a) for a in (inst.points, inst.addends, inst.box_lo, inst.box_hi, *caps, *extra)])
    f = magnitude / float(np.max(np.abs(data)))
    common = dict(
        points=inst.points * f,
        weights=inst.weights,
        addends=inst.addends * f,
        caps=None if inst.caps is None else inst.caps * f,
        box_lo=inst.box_lo * f,
        box_hi=inst.box_hi * f,
    )
    if isinstance(inst, TiltedStripInstance):
        return TiltedStripInstance(**common, strip_lo=inst.strip_lo * f, strip_hi=inst.strip_hi * f, slope=inst.slope)
    if isinstance(inst, StripInstance):
        return StripInstance(**common, strip_lo=inst.strip_lo * f, strip_hi=inst.strip_hi * f)
    if isinstance(inst, ScaledChebyshevInstance):
        return ScaledChebyshevInstance(**common, diff_bounds=inst.diff_bounds * f, scale=inst.scale)
    return ChebyshevInstance(**common, diff_bounds=inst.diff_bounds * f)


def _item(name, variant, inst, cause=None, slice="native") -> Item:
    return Item(name, variant, inst, cause, slice)


def _many_clients(seed: int) -> list[Item]:
    items = []
    for slot in range(12):
        variant = VARIANTS[slot % 4]
        size = slot % 3
        m = 1000 + 250 * size
        if variant.startswith("rectilinear"):
            n = 2
        elif variant == "chebyshev_scaled":
            # The scaled theta loop costs O(m^2 n^2): n = 3 goes with the
            # smallest m, so that no call costs twice as much as any other
            # and the percentiles fall among calls of similar cost.
            n = 3 if size == 0 else 2
        else:
            n = 2 + size
        inst = random_instance(variant, n, m, _sub_seed(seed, "many_clients", slot))
        if variant == "chebyshev_scaled":
            inst = _complete_bounds(inst)
        items.append(_item(f"mc{slot:02d}-{variant}-m{m}-n{n}", variant, inst))
    return items


# (kind, n, copies): 12 feasible and 6 cycle instances.  Sorted by cost, the
# n = 250 group with the n = 60 cycle spans the median and the four n = 100
# cycles span the 90th percentile, so neither falls into a gap between groups.
_WIDE_SHAPES = (
    ("feasible", 100, 2),
    ("feasible", 150, 2),
    ("feasible", 200, 2),
    ("feasible", 250, 4),
    ("feasible", 300, 2),
    ("cycle", 60, 1),
    ("cycle", 80, 1),
    ("cycle", 100, 4),
)


def _wide_bounds(seed: int) -> list[Item]:
    items = []
    shapes = [(kind, n) for kind, n, copies in _WIDE_SHAPES for _ in range(copies)]
    for slot, (kind, n) in enumerate(shapes):
        if kind == "cycle":
            inst = random_infeasible(n, 20, _sub_seed(seed, "wide_bounds", slot), mode="cycle")
            items.append(_item(f"wb{slot:02d}-cycle-n{n}", "chebyshev", inst, "spectral"))
        else:
            inst = _with_bounds(seed, slot, n, 20)
            items.append(_item(f"wb{slot:02d}-feasible-n{n}", "chebyshev", inst))
    return items


def _small_files(seed: int) -> list[Item]:
    items = []
    for slot in range(240):
        block = slot // 10
        m = 3 + (slot * 7) % 18
        n = 2 + (slot // 40) % 3
        sub = _sub_seed(seed, "small_files", slot)
        kind = slot % 10
        if kind == 0:
            mode = "caps" if block % 2 else "cycle"
            inst = random_infeasible(n, m, sub, mode=mode)
            cause = "bounds" if mode == "caps" else "spectral"
            items.append(_item(f"sf{slot:03d}-infeasible-{mode}", "chebyshev", inst, cause))
            continue
        variant = VARIANTS[block % 4]
        inst = random_instance(variant, 2 if variant.startswith("rectilinear") else n, m, sub)
        label = "native"
        if kind in (2, 6):
            inst, label = rescale(inst, 1e6), "1e6"
        elif kind in (4, 8):
            inst, label = rescale(inst, 1e9), "1e9"
        items.append(_item(f"sf{slot:03d}-{variant}-{label}", variant, inst, slice=label))
    return items


_BUILDERS = {"many_clients": _many_clients, "wide_bounds": _wide_bounds, "small_files": _small_files}


def generate(workload: str, seed: int, directory: str) -> None:
    """Write the workload's pool into directory: instance files and manifest."""
    manifest = []
    for item in _BUILDERS[workload](seed):
        with open(os.path.join(directory, item.name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(emit_instance(item.inst))
        manifest.append({"name": item.name, "variant": item.variant, "cause": item.cause, "slice": item.slice})
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def load(directory: str) -> list[Item]:
    """Parse a generated pool back into items, in manifest order."""
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    items = []
    for entry in manifest:
        path = os.path.join(directory, entry["name"] + ".json")
        with open(path, "rb") as fh:
            data = fh.read()
        inst = parse_instance(data)
        items.append(Item(entry["name"], entry["variant"], inst, entry["cause"], entry["slice"], Scales(inst), path, len(data)))
    return items


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Generate one benchmark instance pool.")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="existing directory to write into")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
