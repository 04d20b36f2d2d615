"""Digest check: the benchmark records' verdict digests against a pinned table.

Run from the repository root as ``python3 tests/digest_check.py``, after
``bench/run.py`` has written its records to ``bench/out/``.  Each record's
``digest`` must equal the entry of ``DIGESTS`` for its workload and seed, and
the record must come from the numpy and scipy versions the table was
measured with (``VERSIONS``).  It prints one line per record and exits 1 on
a differing digest or version, on a record whose workload and seed the table
lacks, or when there is no record at all.  A change that moves a verdict on
purpose updates the table and says why.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parents[1] / "bench" / "out"
VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
DIGESTS = {
    "breaking": {1: "bd3d6c374c4a11d7", 2: "d5560dbd4d81d1d4", 3: "fe94973511f984eb",
                 4: "ada62cc5984aef41", 5: "27521dc83168ef36", 6: "6ba52f6ae0bc40ce",
                 7: "dff6d248fddae918", 8: "e3545aa56aa1bfaf", 9: "a8a1325f804c589c",
                 10: "c6684221e742fe1b"},
    "fine": {1: "2be4239f298875cd", 2: "795a068e64dc4016", 3: "31f4727bb5bacc1b",
             4: "9f5972c040401465", 5: "6aca208f51ca6946"},
    "corpus": {1: "3e19a6686b59742a", 2: "8d165777dec260f1", 3: "dce326c9ce5454f2",
               4: "50ef494c488efc98", 5: "54c88c142c94edb9"},
}


def check(record: dict) -> list[str]:
    """The faults of one record: its versions, then its digest."""
    faults = [f"{name} {record['environment'][name]}, table measured with {version}"
              for name, version in VERSIONS.items()
              if record["environment"][name] != version]
    want = DIGESTS.get(record["workload"], {}).get(record["seed"])
    if want is None:
        faults.append("no pinned digest for this workload and seed")
    elif record["digest"] != want:
        faults.append(f"digest {record['digest']}, pinned {want}")
    return faults


def main() -> int:
    records = sorted(OUT.glob("*.json"))
    if not records:
        print(f"no benchmark records in {OUT}")
        return 1
    failed = False
    for path in records:
        faults = check(json.loads(path.read_text()))
        print(f"{path.name}: {'; '.join(faults) if faults else 'digest as pinned'}")
        failed |= bool(faults)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
