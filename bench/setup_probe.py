"""Time one set-up: import hotspots and run the warm-up analysis.

Started by run.py in a fresh interpreter for each set-up sample; prints
``{"setup_s": ...}``.
"""
import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports hotspots)

workloads.warm_up()
print(json.dumps({"setup_s": time.perf_counter() - t0}))
