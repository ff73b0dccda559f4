"""Seeded command lists for the four benchmark workloads.

A workload is a fixed list of slots.  Each slot is one ``commvar``
command line with a few placeholders, and a list of variants that fill
them in.  For a given seed, one pass over a workload picks one variant
per slot and shuffles the slots; the benchmark repeats that pass until
its time is up.  Slots fix the kind and the size of every command, so
two seeds give passes of about the same cost; variants change the
variety, descriptor, field size or cycle type.

The variants of every slot together form a finite universe, and
``golden.json`` holds the output digest of every command in it, so the
outputs of any seed are checked.

Descriptor files are referred to as ``@<name>``; the runner writes the
descriptor pool below to files and substitutes their paths.
"""

from __future__ import annotations

import itertools
import random

# Seeded descriptors: b0 = 1, cohomological degrees 0-4, dimensions 1-3.
# Every descriptor has degrees 0 and 4 (dimension 1) and two degrees in
# between, which keeps their costs comparable.  The pool is a sample
# without replacement of the (middle degrees, middle dimensions)
# combinations, so no two descriptors are the same input.  Eigenvalues
# are q^-k tokens, resolved by ``char -q``; the topological commands
# ignore them.
_POOL_SIZE = 6


def descriptor_pool() -> dict[str, dict]:
    combos = [
        (middle, dims)
        for middle in itertools.combinations((1, 2, 3), 2)
        for dims in itertools.product((1, 2, 3), repeat=2)
    ]
    rng = random.Random("commvar-descriptor-pool")
    pool = {}
    for k, (middle, dims) in enumerate(rng.sample(combos, _POOL_SIZE)):
        strata = [{"deg": 0, "dim": 1, "eigenvalue": "1"}]
        for deg, dim in zip(middle + (4,), dims + (1,)):
            strata.append({"deg": deg, "dim": dim, "eigenvalue": f"q^-{(deg + 1) // 2}"})
        pool[f"d{k}"] = {"name": f"seeded descriptor d{k}", "strata": strata}
    return pool


DESCRIPTORS = tuple(f"@{name}" for name in descriptor_pool())
BUILTINS = ("p1", "torus", "punctured")


def _variants(**options) -> list[dict]:
    """Cartesian product of the option lists, as substitution dicts."""
    keys = list(options)
    return [dict(zip(keys, combo)) for combo in itertools.product(*options.values())]


def _slot(template: str, **options) -> tuple[str, list[dict]]:
    return template, _variants(**options)


# rank-sweep: the Poincare family and the stable Betti numbers, i.e. the
# large-degree RatFunc add/gcd path.  No Murnaghan-Nakayama or oracle code.
# Slots are listed by cost, 0.03 s to 0.9 s.  A 20 s run has two passes, so
# the median is the 13th slot and the tail (p75 of 50) the 19th.  Each
# of those sits in a run of fixed-variety slots of about the same cost,
# so a seed's variants and the noise of one command move it little;
# descriptor variants, whose costs differ most, sit below 0.21 s and
# above 0.5 s.
RANK_SWEEP = (
    _slot("poincare --space cn --variety {v} -n 6", v=BUILTINS),
    _slot("poincare --space sn --variety {v} -n 7", v=BUILTINS),
    _slot("poincare --space cn --variety {v} -n 7", v=DESCRIPTORS),
    _slot("poincare --space {s} --variety {v} -n 8", s=("cn", "coh"), v=BUILTINS),
    _slot("series stable --variety {v} --u-order 6", v=DESCRIPTORS),
    _slot("poincare --space cn --variety {v} -n 9", v=BUILTINS),
    _slot("poincare --space sn --variety {v} -n 8", v=DESCRIPTORS),
    _slot("poincare --space coh --variety {v} -n 8", v=DESCRIPTORS),
    _slot("poincare --space sn --variety {v} -n 9", v=("p1", "torus")),
    _slot("poincare --space sn --variety torus -n 10"),
    _slot("poincare --space cn --variety torus -n 10"),
    _slot("series stable --variety {v} --u-order 8", v=("p1", "torus")),
    _slot("poincare --space sn --variety p1 -n 10"),
    _slot("poincare --space cn --variety p1 -n 10"),
    _slot("poincare --space coh --variety p1 -n 10"),
    _slot("poincare --space cn --variety punctured -n 10"),
    _slot("poincare --space sn --variety punctured -n 10"),
    _slot("series stable --variety torus --u-order 9"),
    _slot("poincare --space cn --variety torus -n 11"),
    _slot("series stable --variety p1 --u-order 9"),
    _slot("poincare --space cn --variety {v} -n 10", v=DESCRIPTORS),
    _slot("poincare --space cn --variety p1 -n 11"),
    _slot("poincare --space cn --variety punctured -n 11"),
    _slot("series stable --variety torus --u-order 10"),
    _slot("poincare --space cn --variety p1 -n 12"),
)

# schur-table: Schur conversion, i.e. p(n)^2 mn_character calls in
# to_schur, SymFunc.schur and flag_schur_coefficient.  No oracle code.
_CYCLES = {
    7: ("(4,2,1)", "(3,2,2)", "1^7"),
    8: ("(3,3,2)", "(4,2,1,1)", "1^8"),
    9: ("(3,3,3)", "(5,2,1,1)", "1^9"),
}


def _char_slot(variety: tuple[str, ...], n: int) -> tuple[str, list[dict]]:
    return _slot(f"char --variety {{v}} -n {n} -q {{q}} --cycle-type {{c}}", v=variety, q=(2, 3, 5), c=_CYCLES[n])


# The flag commands have no variants, and each builtin slot has one
# variety: p1 costs about twice what punctured does at the same n.  A
# 20 s run has four passes, so the median is the 6th of the 11 slots by
# cost and the tail (p75 of 44) the 9th.  Slots 5-7 (char --flag 6 and
# two fixed n = 9 commands) cost about the same, and so do slots 8 and 9
# (char --flag 7 twice), so each sits in the middle of commands of
# about the same cost.
SCHUR_TABLE = (
    _slot("char --flag 6"),
    _slot("char --flag 7"),
    _slot("char --flag 7"),
    _slot("char --flag 8"),
    _char_slot(("torus",), 7),
    _char_slot(DESCRIPTORS, 7),
    _char_slot(("p1",), 8),
    _char_slot(("punctured",), 8),
    _slot("char --variety torus -n 9 -q 3 --cycle-type (3,3,3)"),
    _slot("char --variety punctured -n 9 -q 3 --cycle-type (3,3,3)"),
    _char_slot(DESCRIPTORS, 9),
)

# oracle-grid: brute-force counts; integer matrix code only.  Search
# sizes p^(dim*n^2) from 512 to 531441; the family sets how much is
# pruned.  Each family and size has its own slot, and the variants of a
# slot (avoided values) cost about the same.  A 20 s run has four
# passes of 15 slots, so the median is the 8th slot by cost and the tail
# (p75 of 60) the 12th.  Slots 7-10 (affine dim 2 at n 2 and torus dim 1
# at n 3, both at q 3, twice each) cost about the same, and so do slots
# 11-13 (punctured at n 3, q 3), so each sits in the middle of commands
# of about the same cost.
_AVOID = ("0,1", "1,2", "0,2")
ORACLE_GRID = (
    _slot("count --family {f} --n 2 --q 5", f=("affine --dim 1", "torus --dim 1")),
    _slot("count --family punctured --avoid {a} --n 2 --q 5", a=_AVOID),
    _slot("count --family affine --dim 3 --n 2 --q 2"),
    _slot("count --family affine --dim 2 --n 2 --q 3"),
    _slot("count --family affine --dim 2 --n 2 --q 3"),
    _slot("count --family torus --dim 2 --n 2 --q 3"),
    _slot("count --family torus --dim 3 --n 2 --q 3"),
    _slot("count --family {f} --n 3 --q 2", f=("affine --dim 1", "torus --dim 1", "punctured --avoid 0,1")),
    _slot("count --family torus --dim 2 --n 3 --q 2"),
    _slot("count --family affine --dim 1 --n 3 --q 3"),
    _slot("count --family torus --dim 1 --n 3 --q 3"),
    _slot("count --family torus --dim 1 --n 3 --q 3"),
    _slot("count --family punctured --avoid {a} --n 3 --q 3", a=_AVOID),
    _slot("count --family punctured --avoid {a} --n 3 --q 3", a=_AVOID),
    _slot("count --family punctured --avoid {a} --n 3 --q 3", a=("0,1,2", "1,2,3", "0,2,4")),
)

# verify-small: every verify suite plus small README-style examples.
# Many short commands, so set-up and the fixed per-call cost of small
# Poly/RatFunc operations dominate.  A 20 s run has two passes, so the
# median is the 15th slot.  Slots 1-12 take 3-7 ms; slots 13-17 take
# about 10 ms each (the macdonald suite and four examples a little
# larger than the README's, n = 3-4), so the median is the middle of
# ten commands of about the same cost rather than one command's noise.
# Slots 18 and 19 take 20-35 ms, slots 20-23 (the gln and pointcounts
# suites, char --flag 5, series stable) 55-85 ms, which holds the tail
# (p75 of 58, the 22nd slot) within commands of about the same cost, and
# slots 24-29, the larger suites, 0.2-2 s.
SUITES = (
    "flag", "degenerate", "gln", "coh", "macdonald",
    "pointcounts", "series-agreement", "substrate", "stabilization",
)
VERIFY_SMALL = (
    _slot("poincare --space cn --variety {v} -n 3", v=BUILTINS),
    _slot("poincare --space {s} -n 3", s=("flag", "bgln")),
    _slot("poincare --variety punctured --avoid {a} -n 2 --absolute", a=("0,1", "0,1,2")),
    _slot("char --flag 2"),
    _slot("char --variety {v} -n 2 --cycle-type {c}", v=("torus", "p1"), c=("1^2", "(2)")),
    _slot("char --variety torus -n 3 -q {q}", q=(2, 3)),
    _slot("series groupoid --variety punctured -q {q} --t-order 2", q=(3, 5)),
    _slot("series zeta --variety {v} -q {q}", v=("torus", "p1"), q=(2, 3)),
    _slot("series betti --variety {v} --t-order 2", v=("p1", "torus")),
    _slot("series betti --variety {v} --t-order 3", v=("p1", "punctured")),
    _slot("count --family {f} --n 2 --q {q}", f=("torus --dim 1", "affine --dim 1"), q=(2, 3)),
    _slot("count --family punctured --avoid {a} --n 2 --q 3", a=("0,1", "1,2", "0,2")),
    _slot("verify --suite macdonald"),
    _slot("char --flag 3"),
    _slot("poincare --space cn --variety {v} -n 4", v=("p1", "torus")),
    _slot("poincare --space sn --variety torus -n 4"),
    _slot("series coh --variety torus --t-order 2 --u-order 5"),
    _slot("series coh --variety {v} --t-order 3 --u-order 8", v=("p1", "torus")),
    _slot("series stable --variety {v} --u-order 6", v=("p1", "torus")),
    _slot("char --flag 4"),
    _slot("char --flag 5"),
) + tuple(_slot(f"verify --suite {name}") for name in SUITES if name != "macdonald")

WORKLOADS = {
    "rank-sweep": RANK_SWEEP,
    "schur-table": SCHUR_TABLE,
    "oracle-grid": ORACLE_GRID,
    "verify-small": VERIFY_SMALL,
}

# Wall time of one pass, commands and interpreter starts together, at
# this revision on a 2-vCPU x86-64 VM.  It only sizes a run: a run makes
# round(seconds / PASS_SECONDS) passes, so that every run of a workload
# has the same number of commands and its percentiles fall on the same
# ranks.  The comment on each workload says where, in a 20 s run, its
# median and tail fall.
PASS_SECONDS = {
    "rank-sweep": 13.0,
    "schur-table": 5.6,
    "oracle-grid": 5.6,
    "verify-small": 9.8,
}


def command_pass(workload: str, seed: int) -> list[str]:
    """One pass over the workload: a variant per slot, in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    commands = [template.format(**rng.choice(variants)) for template, variants in WORKLOADS[workload]]
    rng.shuffle(commands)
    return commands


def universe(workload: str) -> list[str]:
    """Every command any seed can generate for the workload."""
    seen = {}
    for template, variants in WORKLOADS[workload]:
        for variant in variants:
            seen[template.format(**variant)] = None
    return list(seen)
