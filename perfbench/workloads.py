"""Seeded request generators for the scan and tomo workloads.

Generation uses only the standard library, so a workload seed gives
the same requests on every machine and numpy version.  The program
under test sees only the generated requests.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

WORKLOADS = ("scan", "tomo")

SCAN_COMMANDS = ("parity", "ramsey", "hellinger")
SCAN_J = (4.0, 8.0)
SCAN_SAMPLES = (10, 20, 40)
FORMATS = ("csv", "json")
# Each block holds every (command, j, samples, format) draw once, so the
# request mix of a run does not depend on the seed; the later blocks
# also replay a few earlier requests exactly.
SCAN_BLOCKS = 30
SCAN_REPEATS_PER_BLOCK = 4

TOMO_J = (4.0, 8.0)
TOMO_STATES = ("kitten", "revival", "coherent", "imperfect")
TOMO_ATOMS = (2000, 90000)
TOMO_BOOTSTRAP_RESAMPLES = 2
# Datasets are fixed per request: a fit's iteration count swings between
# about 10 and 500 with the multinomial noise of its dataset, so datasets
# seeded from the workload seed would change a run's total work by tens
# of percent from one seed to the next.
TOMO_DATA_SEED = 180605495


class ScanRequest(NamedTuple):
    command: str
    j: float
    samples: int
    fmt: str
    seed: int


class TomoRequest(NamedTuple):
    j: float
    state: str
    atom_total: int
    data_seed: int
    bootstrap: int = 0
    bootstrap_seed: int = 0


def _rng(workload, seed):
    # string seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{int(seed)}")


def scan_requests(seed):
    """CLI scan requests in shuffled blocks, each with fresh --seed values."""
    rnd = _rng("scan", seed)
    draws = list(itertools.product(SCAN_COMMANDS, SCAN_J, SCAN_SAMPLES, FORMATS))
    out = []
    for _ in range(SCAN_BLOCKS):
        block = [ScanRequest(*draw, seed=rnd.randrange(2**32)) for draw in draws]
        if out:
            block += [rnd.choice(out) for _ in range(SCAN_REPEATS_PER_BLOCK)]
        rnd.shuffle(block)
        out += block
    return out


def tomo_requests(seed):
    """One pass: every (j, state, atom_total) once, plus bootstrap requests.

    Datasets and bootstrap resamples are fixed; the workload seed orders
    the pass.
    """
    rnd = _rng("tomo", seed)
    out = []
    for j in TOMO_J:
        for state in TOMO_STATES:
            for atoms in TOMO_ATOMS:
                out.append(TomoRequest(j, state, atoms, TOMO_DATA_SEED + len(out)))
    for state in TOMO_STATES:
        data_seed = TOMO_DATA_SEED + len(out)
        out.append(TomoRequest(4.0, state, 2000, data_seed,
                               bootstrap=TOMO_BOOTSTRAP_RESAMPLES,
                               bootstrap_seed=data_seed + 1))
    rnd.shuffle(out)
    return out


GENERATORS = {"scan": scan_requests, "tomo": tomo_requests}
