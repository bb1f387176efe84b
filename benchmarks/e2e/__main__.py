"""``python -m benchmarks.e2e`` — see README.md beside this file."""

import os
import sys
from pathlib import Path

# Pin native thread pools before numpy is first imported, so BLAS
# threads do not fight the benchmark's own two processes for two cores.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

# Always measure the checkout this file sits in, never another copy of
# the program that happens to be installed or on PYTHONPATH.
_SOURCE = Path(__file__).resolve().parents[2] / "src"
if not (_SOURCE / "repro").is_dir():
    sys.exit(f"benchmarks.e2e: the program under test is missing "
             f"({_SOURCE / 'repro'} not found)")
sys.path.insert(0, str(_SOURCE))
# Child processes (suite mode, spawned workers) resolve it too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(_SOURCE), os.environ.get("PYTHONPATH")]))

from benchmarks.e2e.run import main  # noqa: E402 - after the path fix

if __name__ == "__main__":
    sys.exit(main())
