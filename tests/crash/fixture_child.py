"""Crash-cycle child for the stores older binaries split over four page
files (``tests/storage/fixtures``): opening one merges it into one file
and converts any retired layout, with ``REPRO_FAULTS`` armed, so the
injected death falls inside that conversion. Then, when asked, one
vacuum of ``FoldItem``, and a clean close.

Usage: ``fixture_child.py DB_PATH POOL_PAGES VACUUM(0|1) [HITS_PATH]``;
*HITS_PATH* receives the armed failpoints' hit counters once the open
returns (the harness calibrates its kill points from a fault-free run).
Exit codes as for :mod:`tests.crash.workload`.
"""

from __future__ import annotations

import json
import os
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir)
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if os.path.isdir(_path) and _path not in sys.path:
        sys.path.insert(0, _path)

from repro import Database  # noqa: E402

from tests.crash.workload import ERROR_EXIT_CODE, _hits  # noqa: E402


def main(argv) -> int:
    db_path, pool, vacuum = argv[:3]
    try:
        db = Database(db_path, pool_size=int(pool))
        if len(argv) > 3:
            with open(argv[3], "w") as handle:
                json.dump(_hits(db.store), handle)
        if vacuum == "1":
            db.store.vacuum("FoldItem")
    except BaseException:
        import traceback
        traceback.print_exc()
        return ERROR_EXIT_CODE
    db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
