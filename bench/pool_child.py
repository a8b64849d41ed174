"""One fresh-process run of min_edges(1, 3, 4) for the traced run.

    PYTHONPATH=src python3 bench/pool_child.py WORKERS

Counts calls to eml.enumeration.key_and_order (in this process only, so the
count is complete at one worker) and prints one JSON line.
"""

import dataclasses
import json
import sys
import time

import eml.enumeration
from eml.extremal import min_edges

calls = 0
_key_and_order = eml.enumeration.key_and_order


def _counting(adj, n):
    global calls
    calls += 1
    return _key_and_order(adj, n)


if __name__ == "__main__":
    workers = int(sys.argv[1])
    eml.enumeration.key_and_order = _counting
    start = time.perf_counter()
    report = min_edges(1, 3, 4, workers=workers)
    seconds = time.perf_counter() - start
    fields = dataclasses.asdict(report)
    del fields["elapsed"]
    print(json.dumps({"seconds": seconds, "calls": calls, "report": fields}))
