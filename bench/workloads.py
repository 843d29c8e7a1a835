"""Seeded request lists for the three benchmark workloads.

Pure standard library; nothing here imports weightpoly, so generating a list
runs no program code and cannot warm the program's caches.

A run of a workload is a sequence of passes.  Each pass is one fresh worker
process issuing one list, ``requests(workload, seed, pass_index)``, in order.
The list depends only on its three arguments.

Weights are a seeded permutation (and, for polygons, a seeded integer scale,
distinct between copies of one base) of a fixed multiset per size.  Some
inputs keep their base order: the cost of a request moves by up to 3x
between orders of one multiset, which would let the seed, not the program,
set a run's time or percentiles.  They are the two heaviest, the n = 9
generic polygon and the n = 8 count (measured: 1.2-3.0 s and 0.7-1.2 s),
and the ones the percentiles fall among: the n = 8 generic polygon, whose
``fan`` sets polygon-session's p90 (136-250 ms over five orders), and the
n = 7 count, which sets count-identity's p50 (31-112 ms).  The properties each
request needs are invariant under both operations, so every generated request
is valid by construction:

* strict admissibility (every r_i < P) and, for m = 1, genericity (no subset
  of sides sums to P; guaranteed by an odd total) hold for the multiset;
* the multiplicity of t*r, and so every lattice count of the entry chart, is
  invariant under permuting r, which keeps the count workload's scan sizes,
  and with them its run time and peak memory, independent of the seed;
* for m = 1 the entry chart's vertex denominators divide 2 (its rows are
  a_t +- a_{t+1} and single coordinates, whose nonsingular minors are +-1 or
  +-2), so ``ehrhart`` with t_max = 2 * (dim + 1) - 1 always has enough
  dilates for the quasi-polynomial fit.
"""

from __future__ import annotations

import json
import os
import random

DEFAULT_SEED = 1
WORKLOADS = ("polygon-session", "count-identity", "duality-fingerprint")

# polygon-session: m = 1 strictly admissible generic bases (odd totals), as
# (base, copies per pass, permuted), then the equal-weight sizes.
POLYGON_GENERIC = (
    ((1, 2, 2, 3, 3, 4), 3, True),
    ((1, 2, 2, 3, 3, 4, 4), 3, True),
    ((1, 1, 2, 2, 3, 3, 4, 5), 3, False),
    ((1, 2, 1, 3, 2, 4, 1, 3, 2), 1, False),
)
POLYGON_EQUAL = (6, 7, 8, 9, 10)
POLYGON_COMMANDS = ("vertices", "polytope", "fan", "singular", "facets")

# count-identity: integral-P multisets, as (m, base, permuted).  m = 1 gets
# ``ehrhart`` and ``verify-identity`` over the fit's dilates; m = 2 gets
# ``verify-identity`` only, because its entry-chart periods reach 6 and the
# fit would need t_max >= 41 at n = 7.
COUNT_SIDES = (
    (1, (1, 1, 2, 2, 3, 3), True),
    (1, (2, 2, 3, 3, 4, 4), True),
    (1, (1, 1, 1, 2, 2, 2, 3), False),
    (1, (1, 2, 2, 3, 3, 4, 5), True),
    (1, (1, 2, 1, 2, 1, 2, 1, 2), False),
    (2, (1, 1, 2, 2, 3, 3), True),
    (2, (2, 2, 2, 3, 3, 3), True),
    (2, (1, 1, 2, 2, 3, 3, 3), True),
    (2, (2, 2, 2, 3, 3, 3, 3), True),
)
COUNT_VERIFY_T_MAX_M2 = 3

# duality-fingerprint: strictly admissible data with n >= m + 3 (so the dual
# exists), equal weights included; then equal-weight polygons, each in both
# charts, and d-cubes.
DUAL_SIDES = (
    (1, (3, 3, 3, 3, 3)),
    (1, (2, 2, 3, 3, 4)),
    (1, (2, 2, 3, 3, 4, 4)),
    (1, (2, 2, 2, 3, 3, 4, 4)),
    (2, (2, 2, 2, 2, 2, 2)),
    (2, (1, 2, 2, 2, 2, 3, 3)),
)
# The p50 latency of this workload falls among the dual data's requests, so
# they appear twice, at scales 1 and 2 (so not as cache hits), to give the
# median twice the samples near it.
DUAL_SCALES = (1, 2)
# The p90 latency of this workload falls among the n = 10 fingerprints, so
# n = 10 appears twice (at another scale, so not as a cache hit) to give the
# percentile twice the samples.  The scales are fixed, 1, 2, ... in order:
# the p90 samples then cost the same for every seed, which permutes only the
# dual data.
FINGERPRINT_EQUAL = (7, 8, 9, 10, 10)
CUBE_DIMS = (3, 4, 5)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{pass_index}")


def _weights(rng: random.Random, base: tuple[int, ...], permuted: bool,
             scale: int = 1) -> str:
    r = [scale * w for w in base]
    if permuted:
        rng.shuffle(r)
    return ",".join(map(str, r))


def cube_path(out_dir: str, d: int) -> str:
    return os.path.join(out_dir, f"cube{d}.json")


def write_cube_files(out_dir: str) -> None:
    """The unit d-cubes, as inequality files for ``--polytope-file``."""
    os.makedirs(out_dir, exist_ok=True)
    for d in CUBE_DIMS:
        ineqs = []
        for i in range(d):
            unit = ["0"] * d
            unit[i] = "1"
            ineqs.append({"a": unit, "b": "1"})
            ineqs.append({"a": ["-1" if c == "1" else "0" for c in unit], "b": "0"})
        with open(cube_path(out_dir, d), "w", encoding="utf-8") as fh:
            json.dump({"dim": d, "ineqs": ineqs}, fh)


def _polygon_session(rng: random.Random) -> list[list[str]]:
    sides = []
    for base, copies, permuted in POLYGON_GENERIC:
        # Distinct scales, so no copy of an unpermuted base is a cache hit.
        for scale in rng.sample(range(1, 5), copies):
            sides.append(_weights(rng, base, permuted, scale))
    for n in POLYGON_EQUAL:
        sides.append(",".join([str(rng.randint(1, 4))] * n))
    return [[cmd, "--m", "1", "--r", r, "--format", "json"]
            for r in sides for cmd in POLYGON_COMMANDS]


def _count_identity(rng: random.Random) -> list[list[str]]:
    out = []
    for m, base, permuted in COUNT_SIDES:
        r = _weights(rng, base, permuted)
        if m == 1:
            t_max = str(2 * (len(base) - 3 + 1) - 1)
            out.append(["ehrhart", "--m", "1", "--r", r, "--chart", "entry",
                        "--t-max", t_max])
            out.append(["verify-identity", "--m", "1", "--r", r, "--t-max", t_max])
        else:
            out.append(["verify-identity", "--m", str(m), "--r", r,
                        "--t-max", str(COUNT_VERIFY_T_MAX_M2)])
    return out


def _duality_fingerprint(rng: random.Random, out_dir: str) -> list[list[str]]:
    out = []
    for scale in DUAL_SCALES:
        for m, base in DUAL_SIDES:
            r = _weights(rng, base, True, scale)
            out.append(["dual", "--m", str(m), "--r", r])
            out.append(["fingerprint", "--m", str(m), "--r", r, "--chart", "entry"])
    for n, c in zip(FINGERPRINT_EQUAL, range(1, len(FINGERPRINT_EQUAL) + 1)):
        r = ",".join([str(c)] * n)
        out.append(["fingerprint", "--m", "1", "--r", r, "--chart", "diag"])
        out.append(["fingerprint", "--m", "1", "--r", r, "--chart", "entry"])
    for d in CUBE_DIMS:
        out.append(["fingerprint", "--polytope-file", cube_path(out_dir, d)])
    out.append(["paper-examples"])
    return out


def requests(workload: str, seed: int, pass_index: int, out_dir: str) -> list[list[str]]:
    """The argv list of one pass; ``out_dir`` is where the cube files live."""
    rng = _rng(workload, seed, pass_index)
    if workload == "polygon-session":
        return _polygon_session(rng)
    if workload == "count-identity":
        return _count_identity(rng)
    if workload == "duality-fingerprint":
        return _duality_fingerprint(rng, out_dir)
    raise ValueError(f"unknown workload: {workload}")
