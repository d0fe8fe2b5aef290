#!/usr/bin/env python3
"""Build the newform eigenvalue fixtures offline.

Each label in FIXTURE_SPECS names a newform orbit of a space that
:mod:`eiscong.spaces` builds from exact q-expansions; 1.12.a.a is
Ramanujan's Delta.  Progress goes to stderr.

Run from the repository root:  python scripts/make_fixtures.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eiscong.characters import DirichletChar  # noqa: E402
from eiscong.newforms import NewformData, save_fixture  # noqa: E402
from eiscong.spaces import (Space, delta_an, extract_newforms, lmfdb_orbits, log,  # noqa: E402
                            packet_to_fixture, require)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "eiscong" / "fixtures"

# label -> ((level, weight, character, precision b0, Hecke primes q) of its
# space; orbit dimension; b_data; field polynomial to rebase onto or None)
FIXTURE_SPECS = {
    "10.8.b.a": ((10, 8, DirichletChar(10, 9), 130, [3, 7]),
                 4, 110, [Fraction(c) for c in (64, 0, -15, 0, 1)]),
    "14.7.d.a": ((14, 7, DirichletChar(14, 3), 120, [3, 5]), 8, 60, None),
    "42.6.e.c": ((42, 6, DirichletChar(42, 25), 280, [5]), 4, 60, None),
}


def build_fixture(label: str) -> NewformData:
    """The fixture of the orbit that the label's last letter names among
    the newform orbits of its space (a the first)."""
    space_spec, dim, b_data, field_poly = FIXTURE_SPECS[label]
    orbits = lmfdb_orbits(extract_newforms(Space(*space_spec)))
    dims = [len(p.coefficient_field[1]) - 1 for p in orbits]
    log(f"level {space_spec[0]}: {len(orbits)} newform orbits, dims {dims}")
    idx = ord(label[-1]) - ord("a")
    require(idx < len(dims) and dims[idx] == dim, f"{label}: expected dimension {dim}, dims {dims}")
    return packet_to_fixture(orbits[idx], label, b_data, field_poly)


def main():
    log("writing 1.12.a.a from the eta-product expansion")
    taus = delta_an(220)
    nf = NewformData(
        label="1.12.a.a", level=1, weight=12, character=DirichletChar(1, 1),
        field_poly=(Fraction(0), Fraction(1)),
        basis=((Fraction(1),),),
        an=tuple((t,) for t in taus[1:]),
    )
    nf.validate()
    save_fixture(nf, FIXTURE_DIR)

    for label in FIXTURE_SPECS:
        save_fixture(build_fixture(label), FIXTURE_DIR)
        log(f"wrote {label}")
    log("all fixtures written")


if __name__ == "__main__":
    main()
