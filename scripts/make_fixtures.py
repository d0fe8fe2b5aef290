#!/usr/bin/env python3
"""Build the newform eigenvalue fixtures offline.

Each label N.k.a.x in FIXTURE_SPECS names a newform orbit of
S_k(Gamma_0(N), chi), which :mod:`eiscong.spaces` builds from Manin
symbols, separating its newforms by the Hecke primes not dividing N,
taken in order from the least, and reading a_1 .. a_b_data off Heilbronn
sums; 1.12.a.a is Ramanujan's Delta.  Progress goes to stderr, with the
Hecke primes each space took and each label's build time.

Run from the repository root:  python scripts/make_fixtures.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eiscong.characters import DirichletChar  # noqa: E402
from eiscong.newforms import NewformData, save_fixture  # noqa: E402
from eiscong.spaces import (Space, extract_newforms, lmfdb_orbits, log,  # noqa: E402
                            packet_to_fixture, require)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "eiscong" / "fixtures"

# label -> (character, orbit dimension, b_data, field polynomial to rebase
# onto or None); the level and weight are the label's N and k
FIXTURE_SPECS = {
    "1.12.a.a": (DirichletChar(1, 1), 1, 220, [0, 1]),
    "10.8.b.a": (DirichletChar(10, 9), 4, 110, [64, 0, -15, 0, 1]),
    "14.7.d.a": (DirichletChar(14, 3), 8, 60, None),
    "42.6.e.c": (DirichletChar(42, 25), 4, 60, None),
}


def build_fixture(label: str) -> NewformData:
    """The fixture of the orbit that the label's last letter names among
    the newform orbits of its space (a the first)."""
    chi, dim, b_data, field_poly = FIXTURE_SPECS[label]
    level, k = map(int, label.split(".")[:2])
    orbits = lmfdb_orbits(extract_newforms(Space(level, k, chi, b_data)))
    dims = [len(p.coefficient_field[1]) - 1 for p in orbits]
    log(f"level {level}: {len(orbits)} newform orbits, dims {dims}")
    idx = ord(label[-1]) - ord("a")
    require(idx < len(dims) and dims[idx] == dim, f"{label}: expected dimension {dim}, dims {dims}")
    return packet_to_fixture(orbits[idx], label, b_data, field_poly)


def main():
    for label in FIXTURE_SPECS:
        start = time.perf_counter()
        save_fixture(build_fixture(label), FIXTURE_DIR)
        log(f"wrote {label} in {time.perf_counter() - start:.1f} s")
    log("all fixtures written")


if __name__ == "__main__":
    main()
