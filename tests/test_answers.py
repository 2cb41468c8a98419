"""Every answer's bits, pinned, and the power-of-two scalings that must keep them.

One SHA-256 over the answers of a fixed corpus pins them all, the way
test_generated_bytes_are_pinned pins generated bytes.  Per instance the
digest takes float.hex(v + 0.0) of theta and of each u_lo and u_hi entry,
or the cause and the witness of an Infeasible; the + 0.0 keeps signed-zero
ties out of the digest (C6, C7 and the n <= 2 replay tests pin those).

The rule: a change that moves any answer bit re-pins DIGEST and lists the
answers it changed in CHANGES.md.

The corpus: random_instance of all four variants at seeds 0-29, with
n = 1 + seed % 4 (2 for the plane variants) and m = 1 + seed % 20; both
Chebyshev variants at n in {42, 60, 100}, seeds 0-9, with the same m;
random_infeasible(2 + seed % 3, 6, seed, mode) for modes "caps" and "cycle",
seeds 0-29.  Each instance also appears with every length and addend
multiplied by 1e6 + 0.3.

Multiplying every length and addend by 2**k (k = +-4) multiplies theta,
the box and any witness by exactly 2**k; multiplying every weight and
addend by 2**k multiplies theta by 2**k and keeps the box, the verdict and
any witness.  Both hold bit for bit over the native corpus: a power of two
moves only exponents.
"""

import dataclasses
import functools
import hashlib

import pytest

from support import rescaled
from tropiloc import Infeasible, random_infeasible, random_instance, solve
from tropiloc.generate import VARIANTS

DIGEST = "1fcfe5f548353688933856346397e5ee8794681bcf02d6891782c96924ab82f2"
MAGNIFIED = 1e6 + 0.3


@functools.cache
def _native() -> list:
    corpus = []
    for variant in VARIANTS:
        plane = variant.startswith("rectilinear")
        corpus += [random_instance(variant, 2 if plane else 1 + seed % 4, 1 + seed % 20, seed) for seed in range(30)]
    for variant in ("chebyshev", "chebyshev_scaled"):
        corpus += [random_instance(variant, n, 1 + seed % 20, seed) for n in (42, 60, 100) for seed in range(10)]
    for mode in ("caps", "cycle"):
        corpus += [random_infeasible(2 + seed % 3, 6, seed, mode) for seed in range(30)]
    return corpus


def _line(result) -> str:
    if isinstance(result, Infeasible):
        answer = [result.cause, result.witness]
    else:
        answer = [result.theta, *result.u_lo.tolist(), *result.u_hi.tolist()]
    return " ".join(v if isinstance(v, str) else float.hex(v + 0.0) for v in answer) + "\n"


def test_every_answer_bit_is_pinned():
    digest = hashlib.sha256()
    for inst in _native() + [rescaled(inst, MAGNIFIED) for inst in _native()]:
        digest.update(_line(solve(inst)).encode())
    assert digest.hexdigest() == DIGEST


@pytest.mark.parametrize("k", [-4, 4])
def test_lengths_times_a_power_of_two_scale_every_answer_exactly(k):
    f = 2.0**k
    for inst in _native():
        base, scaled = solve(inst), solve(rescaled(inst, f))
        assert type(scaled) is type(base)
        if isinstance(base, Infeasible):
            assert (scaled.cause, scaled.witness) == (base.cause, base.witness * f)
        else:
            assert scaled.theta == base.theta * f
            assert scaled.u_lo.tobytes() == (base.u_lo * f).tobytes()
            assert scaled.u_hi.tobytes() == (base.u_hi * f).tobytes()


@pytest.mark.parametrize("k", [-4, 4])
def test_weights_times_a_power_of_two_scale_theta_and_keep_the_box(k):
    f = 2.0**k
    for inst in _native():
        base, scaled = solve(inst), solve(dataclasses.replace(inst, weights=inst.weights * f, addends=inst.addends * f))
        assert type(scaled) is type(base)
        if isinstance(base, Infeasible):
            assert (scaled.cause, scaled.witness) == (base.cause, base.witness)
        else:
            assert scaled.theta == base.theta * f
            assert scaled.u_lo.tobytes() == base.u_lo.tobytes()
            assert scaled.u_hi.tobytes() == base.u_hi.tobytes()
