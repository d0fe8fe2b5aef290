"""Record perfbench/golden.json: the result fields of every cli-reproduce
example and of every Galois variant of every search-grid pool entry.

    python3 perfbench/record_golden.py

Record them once, at the commit whose behaviour later changes must keep;
the benchmark compares result fields, not JSON bytes, so fields added to
the output later do not count as differences.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from run import provenance  # noqa: E402


def main() -> int:
    golden = {"cli-reproduce": {}, "search-grid": {}}
    for example in workloads.CLI_EXAMPLES:
        proc = subprocess.run(workloads.cli_command(example), cwd=workloads.ROOT,
                              capture_output=True, text=True, check=True)
        golden["cli-reproduce"][example] = workloads.reproduce_fields(json.loads(proc.stdout))
    search = workloads.congruence.search_congruence_primes
    for psi, phi, m, k in workloads.SEARCH_POOL:
        for vpsi, vphi in workloads.galois_variants(psi, phi):
            result = search(workloads.make_params(vpsi, vphi, m, k))
            key = workloads.search_key(vpsi, vphi, m, k)
            golden["search-grid"][key] = workloads.SearchGrid.fields(result)
            print(key, len(result), flush=True)
    prov = provenance(None, None)
    golden["recorded_at"] = {"git_revision": prov["git_revision"],
                             "source_sha256": prov["source_sha256"],
                             "python": prov["python"], "sympy": prov["sympy"]}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
