"""``python -m benchmarks.suite ...`` and, for the builder's driver,
``python3 benchmarks/suite/__main__.py --workload W --seed N --seconds S
--trace 0|1``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# run as a script, this directory leads sys.path and would let its
# modules shadow top-level names; the package is imported by its path
sys.path[:] = [entry for entry in sys.path
               if Path(entry or ".").resolve() != HERE]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.suite.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
