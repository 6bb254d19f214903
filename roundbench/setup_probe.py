"""Fresh-interpreter set-up probe: time ``import edgesched`` and ``build_config``.

Run as ``python3 setup_probe.py <src dir> <workload> <seed>``. Prints one JSON
line as soon as the first round could start, then exits.
"""

import json
import sys
import time

from workloads import make_doc

if __name__ == "__main__":
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    doc = make_doc(workload, seed)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import edgesched

    imported = time.perf_counter()
    edgesched.build_config(doc)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_config_s": built - imported}), flush=True)
