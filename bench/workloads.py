"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of slots.  A slot fixes what sets the cost of
one CLI call: the subcommand, the prime, the number of cells, the window or
m-range length and the output format.  The content of the spectrum file
(which degrees, ranks and torsion markers, which offsets) comes from one of
POOL_VARIANTS variants, each drawn from its own fixed seed.  The run seed
picks the variant of every slot and the order of the calls.  So two seeds
give different inputs of the same size, and the finite pool lets
references.json hold the exit code and stdout digest of every call that any
seed can produce.

The program only ever receives the generated JSON files and argv.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_VARIANTS = 6

# A prime whose validation runs about 5 * 10**5 trial divisions.
BIG_PRIME = 1000000000039


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the benchmark knows about it."""

    argv: tuple[str, ...]
    key: str            # digest of argv with every input file replaced by its contents
    work: int           # units of the workload's throughput measure
    expect_exit: int = 0
    oracle: tuple = ()  # ("growth", p, betti items) or ("sphere", p): independent re-derivation


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    throughput_unit: str
    build: object       # build(variant_of, writer, corpus) -> list[Call], in slot order


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def call_key(argv, files: dict[str, bytes]) -> str:
    """Identify a call by what the program sees: argv with each file path
    replaced by a digest of the file's bytes, so the key does not depend on
    where the run directory is."""
    parts = ["@" + _digest(files[a]) if a in files else a for a in argv]
    return _digest(json.dumps(parts).encode())


class _Writer:
    """Writes spectrum files into one run directory and builds Calls on them."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.files: dict[str, bytes] = {}

    def spectrum(self, stem: str, spec) -> str:
        data = spec if isinstance(spec, bytes) else json.dumps(spec, sort_keys=True).encode()
        path = self.outdir / f"{stem}.json"
        path.write_bytes(data)
        self.files[str(path)] = data
        return str(path)

    def existing(self, path: Path) -> str:
        self.files[str(path)] = path.read_bytes()
        return str(path)

    def call(self, argv, work=1, expect_exit=0, oracle=()) -> Call:
        argv = tuple(str(a) for a in argv)
        return Call(argv, call_key(argv, self.files), work, expect_exit, oracle)


def _random_betti(rng, cells, lo, hi, max_rank, nonzero_chi=False):
    while True:
        betti = {d: rng.randint(1, max_rank) for d in rng.sample(range(lo, hi + 1), cells)}
        chi = sum(r if d % 2 == 0 else -r for d, r in betti.items())
        if chi != 0 or not nonzero_chi:
            return betti


def _spec(name, p, betti, torsion=()):
    spec = {"name": name, "p": p, "betti": {str(d): r for d, r in sorted(betti.items())}}
    if torsion:
        spec["torsion"] = sorted(torsion)
    return spec


def _torsion(rng, prob, lo=-10, hi=10):
    if rng.random() >= prob:
        return ()
    return tuple(rng.sample(range(lo, hi + 1), rng.randint(1, 3)))


def _slots_rng(workload, slot, variant):
    # str seeds are hashed with sha512, so this is stable across processes
    return random.Random(f"{workload}/{slot}/{variant}")


# ------------------------------------------------------------------ cli-corpus

CORPUS_COMMANDS = (("invariants",), ("imc",), ("growth", "--ladder", "2"))
FORMATS = ("table", "csv", "json")


def build_cli_corpus(variant_of, w: _Writer, corpus: Path):
    """Every corpus file through each command, and sphere-table at p = 3, 5, 7,
    each slot in the format its variant picks.  The formats cost about the
    same, as interpreter start dominates; one format per slot keeps a pass
    short enough that every call is timed several times in one run."""
    calls = []
    slots = [(w.existing(path), cmd) for path in sorted(corpus.glob("*.json"))
             for cmd in CORPUS_COMMANDS]
    for slot, (f, cmd) in enumerate(slots):
        fmt = FORMATS[variant_of(slot) % len(FORMATS)]
        calls.append(w.call((cmd[0], f, *cmd[1:], "--format", fmt)))
    for k, p in enumerate((3, 5, 7)):
        fmt = FORMATS[variant_of(len(slots) + k) % len(FORMATS)]
        calls.append(w.call(("sphere-table", "-p", p, "--format", fmt), oracle=("sphere", p)))
    # calls meant to fail, one per nonzero exit code
    lam0 = w.spectrum("lambda_zero", _spec("chi = 0", 3, {0: 1, 1: 1}))
    broken = w.spectrum("broken", b'{"p": 3, "betti": {"0": 1}')
    calls.append(w.call(("growth", lam0, "--format", "table"), expect_exit=1))
    calls.append(w.call(("invariants", broken, "--format", "table"), expect_exit=2))
    calls.append(w.call(("sphere-table", "-p", 9, "--format", "table"), expect_exit=3))
    return calls


# --------------------------------------------------------------- growth-ladder

# (p, top rung K, cells).  Printed windows are 2(p-1)p^k for k = 0..K, so one
# call prints cells * 2(p^(K+1) - 1) cell-degrees and computes each twice
# (once for the average, once inside the ratio).  The one-cell wedge gets the
# longest window (top rung 78,732 degrees), wide wedges short ones (down to
# 1,000), so that every call prints 25,000 to 120,000 cell-degrees and one
# pass of 12 calls takes a few seconds: each call is timed several times in
# one run.
GROWTH_SLOTS = (
    (3, 9, 1), (5, 5, 2), (7, 4, 2), (3, 7, 3), (3, 7, 4), (5, 4, 6),
    (7, 3, 8), (3, 6, 10), (5, 4, 12), (7, 3, 14), (3, 6, 16), (5, 3, 20),
)


def build_growth_ladder(variant_of, w: _Writer, corpus: Path):
    calls = []
    for slot, (p, top, cells) in enumerate(GROWTH_SLOTS):
        variant = variant_of(slot)
        g = _slots_rng("growth-ladder", slot, variant)
        betti = _random_betti(g, cells, -15, 15, 3, nonzero_chi=True)
        torsion = _torsion(g, 0.3)
        skip = g.randint(0, 40)
        f = w.spectrum(f"growth-{slot:02d}-v{variant}",
                       _spec(f"wedge of {cells} cells", p, betti, torsion))
        work = cells * 2 * (p ** (top + 1) - 1)
        calls.append(w.call(("growth", f, "--ladder", top, "--skip", skip, "--format", "json"),
                            work=work, oracle=("growth", p, tuple(sorted(betti.items())))))
    return calls


# --------------------------------------------------------------- spectra-sweep

# imc calls: (p, cells, number of m values); formats cycle over the slots.
IMC_SLOTS = (
    (3, 4, 1800), (5, 8, 1200), (7, 12, 900), (101, 16, 600),
    (3, 20, 600), (5, 6, 1500), (7, 10, 1200), (101, 21, 300),
)

# Wide-prime calls: (subcommand, prime, format, number of slots, cells).
# JSON at p = 10007 (3.4 MB) is left out; the largest output is the
# p = 10007 table, about 0.6 MB.
WIDE_SLOTS = (
    ("invariants", 10007, "table", 3, 4),
    ("invariants", 1009, "json", 2, 6),
    ("invariants", 1009, "table", 2, 6),
    ("sphere-table", BIG_PRIME, "json", 2, 0),
)


def build_spectra_sweep(variant_of, w: _Writer, corpus: Path):
    """imc over hundreds of m (one eigenspace per record), then invariants at
    wide primes (every eigenspace once) and sphere-table at a 13-digit prime.
    Work is eigenspaces visited: one per imc record, 2(p - 1) per invariants
    call."""
    calls = []
    for slot, (p, cells, width) in enumerate(IMC_SLOTS):
        variant = variant_of(slot)
        g = _slots_rng("spectra-sweep", slot, variant)
        betti = _random_betti(g, cells, -10, 10, 4)
        torsion = _torsion(g, 0.6)
        a = g.randint(-width // 2 - 20, -width // 2 + 20)
        f = w.spectrum(f"imc-{slot:02d}-v{variant}",
                       _spec(f"{cells}-cell spectrum", p, betti, torsion))
        fmt = FORMATS[slot % 3]
        calls.append(w.call(("imc", f, f"--m-range={a}..{a + width - 1}", "--format", fmt),
                            work=2 * width))
    slot = len(IMC_SLOTS)
    for cmd, p, fmt, count, cells in WIDE_SLOTS:
        for _ in range(count):
            variant = variant_of(slot)
            g = _slots_rng("spectra-sweep", slot, variant)
            if cmd == "invariants":
                betti = _random_betti(g, cells, -10, 10, 3)
                f = w.spectrum(f"wide-{slot:02d}-v{variant}",
                               _spec(f"{cells}-cell spectrum", g.choice((3, 5)), betti,
                                     _torsion(g, 0.3)))
                calls.append(w.call(("invariants", f, "--prime-override", p, "--format", fmt),
                                    work=2 * (p - 1)))
            else:
                a = g.randint(-30, 30)
                calls.append(w.call(("sphere-table", "-p", p, f"--t-range={a}..{a + 60}",
                                     "--format", fmt), work=0, oracle=("sphere", p)))
            slot += 1
    return calls


WORKLOADS = {w.name: w for w in (
    Workload("cli-corpus",
             "every corpus file through invariants, imc and growth, each in a seeded format, "
             "plus sphere-table and three calls meant to fail: interpreter start and import "
             "dominate",
             "calls/s", build_cli_corpus),
    Workload("growth-ladder",
             "growth with ratios on seeded 1-20 cell wedges at p = 3, 5, 7: graded_average "
             "and sphere_order dominate; imc and eigenspace assembly stay idle",
             "cell-degrees/s", build_growth_ladder),
    Workload("spectra-sweep",
             "imc over hundreds of m on seeded spectra at p = 3, 5, 7, 101, then invariants "
             "at p = 1009 and 10007: dual replacement, eigenspace assembly, charpoly rendering; "
             "graded_average is never called",
             "eigenspaces/s", build_spectra_sweep),
)}


def build(workload: str, seed: int, outdir: Path, corpus: Path) -> list[Call]:
    """Write the inputs of one run into outdir and return its calls in order."""
    rng = random.Random(seed)
    calls = _build(workload, lambda slot: rng.randrange(POOL_VARIANTS), outdir, corpus)
    rng.shuffle(calls)
    return calls


def pool(workload: str, outdir: Path, corpus: Path) -> list[Call]:
    """Every call any seed can produce for this workload, variant by variant."""
    variants = range(POOL_VARIANTS) if workload != "cli-corpus" else range(len(FORMATS))
    return [c for v in variants for c in _build(workload, lambda slot: v, outdir, corpus)]


def _build(workload, variant_of, outdir: Path, corpus: Path) -> list[Call]:
    outdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload].build(variant_of, _Writer(outdir), corpus)
