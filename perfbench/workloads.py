"""Seeded inputs of the four benchmark workloads.

A pass is the list of CLI invocations of one workload and seed; a run
repeats the same pass.  The seed picks the inputs and never the amount
of work: every seed gives the same commands at the same sizes.  The
inputs come from ``random.Random`` seeded with a string, whose stream is
stable across Python versions, so one seed always gives the same argv.

Why each workload exists (see README.md for the layer mapping):

* grid-map        -- one 101 x 101 ``classify`` regime map; enumeration,
                     cumulants, discarded bounds and CSV formatting.
* bounds-campaign -- one 15000-sample ``verify-bounds`` campaign; no
                     enumeration and tiny output, the bypass for
                     enumeration and formatting changes.
* point-queries   -- 100 single-point ``cumulants`` calls, dominated by
                     interpreter and import set-up; log-uniform gaps
                     reach the finite-difference step defect.
* oracles         -- a 2.5e6-draw ``sample`` run and a 2501-row
                     ``lz-compare`` table; the only workload that reaches
                     the sampler, Landau-Zener and density-matrix code.

The sizes keep one invocation near a second, so that a run holds many
repetitions of each input: on a shared host only the fastest of them
repeats from run to run (see README.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("grid-map", "bounds-campaign", "point-queries", "oracles")

GRID_STEPS = 101
CAMPAIGN_SAMPLES = 15_000
QUERIES_PER_PASS = 100
CS_QUERIES_PER_PASS = 30  # 30% of the queries use coherent control
GAP_RANGE = (1e-3, 50.0)
DRAWS = 2_500_000
LZ_STEPS = 2_501


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its argv after the program name, and what it computes."""

    argv: tuple[str, ...]
    items: int
    spec: dict = field(compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    return repr(float(x))


def _flags(**values) -> list[str]:
    out = []
    for key, value in values.items():
        out += ["--" + key.replace("_", "-"), value if isinstance(value, str) else _num(value)]
    return out


def _classify(spec: dict, items: int) -> Invocation:
    argv = ["classify"] + _flags(
        axis="delta", start=spec["start"], stop=spec["stop"], steps=str(spec["steps"]),
        axis2="theta", start2=spec["start2"], stop2=spec["stop2"], steps2=str(spec["steps2"]),
        beta=spec["beta"], nu1=spec["nu1"], nu2=spec["nu2"], delta=0.0, zeta=0.0, theta=0.2,
    )
    return Invocation(tuple(argv), items, spec)


def _grid_map(seed: int, steps: int = GRID_STEPS) -> Invocation:
    r = random.Random(f"grid-map/{seed}")
    nu1 = r.uniform(0.5, 1.5)
    spec = dict(
        beta=r.uniform(0.2, 2.0), nu1=nu1, nu2=nu1 * r.uniform(1.2, 3.0),
        start=0.0, stop=0.5, steps=steps, start2=0.0, stop2=1.0, steps2=steps,
    )
    return _classify(spec, steps * steps)


def _campaign(seed: int, samples: int = CAMPAIGN_SAMPLES) -> Invocation:
    r = random.Random(f"bounds-campaign/{seed}")
    spec = dict(seed=r.randrange(1, 2**31), samples=samples)
    argv = ["verify-bounds", "--samples", str(samples), "--seed", str(spec["seed"])]
    return Invocation(tuple(argv), samples, spec)


def _query(spec: dict) -> Invocation:
    keys = ("beta", "nu1", "nu2", "delta", "zeta", "theta")
    argv = ["cumulants"] + _flags(**{k: spec[k] for k in keys})
    if spec.get("cs_alpha") is not None:
        argv += _flags(cs_alpha=spec["cs_alpha"], branch=spec["branch"])
    return Invocation(tuple(argv), 1, spec)


def _queries(seed: int) -> list[Invocation]:
    """One Latin-hypercube block of single-point queries.

    Each continuous input is stratified into QUERIES_PER_PASS equal
    slices, one query per slice, so a block covers the whole range of
    every input; the marginals stay those of independent draws (gaps
    log-uniform over GAP_RANGE, theta <= 1/2 for the cs queries).
    """
    r = random.Random(f"point-queries/{seed}")
    n = QUERIES_PER_PASS
    columns = []
    for _ in range(8):
        order = list(range(n))
        r.shuffle(order)
        columns.append([(order[i] + r.random()) / n for i in range(n)])
    cs = set(r.sample(range(n), CS_QUERIES_PER_PASS))
    lo, hi = (math.log(g) for g in GAP_RANGE)
    out = []
    for i in range(n):
        u = [col[i] for col in columns]
        spec = dict(
            beta=-2.0 + 4.0 * u[0],
            nu1=math.exp(lo + (hi - lo) * u[1]),
            nu2=math.exp(lo + (hi - lo) * u[2]),
            delta=u[3],
            zeta=u[4],
            theta=0.5 * u[5] if i in cs else u[5],
        )
        if i in cs:
            spec.update(cs_alpha=u[6], branch="plus" if u[7] < 0.5 else "minus")
        out.append(_query(spec))
    return out


def _sample(seed: int, draws: int = DRAWS) -> Invocation:
    r = random.Random(f"oracles/sample/{seed}")
    nu1 = r.uniform(0.5, 1.5)
    spec = dict(
        beta=r.uniform(0.2, 2.0), nu1=nu1, nu2=nu1 * r.uniform(1.2, 3.0),
        delta=r.uniform(0.05, 0.45), zeta=r.uniform(0.05, 0.45), theta=r.uniform(0.05, 0.95),
    )
    argv = ["sample"] + _flags(**spec) + ["--samples", str(draws), "--seed", str(r.randrange(1, 2**31))]
    return Invocation(tuple(argv), draws, spec)


def _lz(seed: int, steps: int = LZ_STEPS) -> Invocation:
    r = random.Random(f"oracles/lz-compare/{seed}")
    nu1 = r.uniform(0.2, 1.0)
    spec = dict(
        beta=r.uniform(0.2, 2.0), nu1=nu1, nu2=nu1 * r.uniform(1.2, 3.0),
        alpha_m=r.uniform(0.1, math.pi - 0.1), phi=r.uniform(-math.pi, math.pi),
        chi=r.uniform(-math.pi, math.pi), start=0.0, stop=1.0, steps=steps,
    )
    keys = ("beta", "nu1", "nu2", "alpha_m", "phi", "chi")
    argv = ["lz-compare"] + _flags(**{k: spec[k] for k in keys}) + _flags(
        axis="delta", start=0.0, stop=1.0, steps=str(steps)
    )
    return Invocation(tuple(argv), steps, spec)


def make_pass(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of ``workload`` with inputs from ``seed``."""
    if workload == "grid-map":
        return [_grid_map(seed)]
    if workload == "bounds-campaign":
        return [_campaign(seed)]
    if workload == "point-queries":
        return _queries(seed)
    if workload == "oracles":
        return [_sample(seed), _lz(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> list[Invocation]:
    """Tiny runs of the same subcommands, so bytecode compilation is not timed."""
    if workload == "grid-map":
        return [_grid_map(0, steps=3)]
    if workload == "bounds-campaign":
        return [_campaign(0, samples=10)]
    if workload == "point-queries":
        return _queries(0)[:1]
    if workload == "oracles":
        return [_sample(0, draws=1000), _lz(0, steps=3)]
    raise ValueError(f"unknown workload {workload!r}")
