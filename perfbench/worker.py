"""One repeat of one workload, in a fresh Python process.

    python3 perfbench/worker.py WORKLOAD WORK_DIR TRACE RESULT_JSON

The harness (``run.py``) starts one worker per repeat, so kernel, plan
and triangle caches and the peak resident set are never inherited from
another repeat or workload.  The worker writes its raw samples to
``RESULT_JSON``; ``peak_rss_mb`` is this process's high-water mark,
except on ``serve``, where the server process reports its own.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path

from common import peak_rss_mb, use_source_tree


def main(argv) -> int:
    workload, work, trace, output = argv
    use_source_tree()
    work = Path(work)
    manifest = json.loads((work / "manifest.json").read_text())
    workload_module = importlib.import_module(workload)
    result = workload_module.run(work, manifest, trace == "1")
    if "peak_rss_mb" not in result:
        result["peak_rss_mb"] = peak_rss_mb(os.getpid())
    Path(output).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
