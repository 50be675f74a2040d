"""The `plaquette` command, also run as `python -m plaquette`.

BLAS and OpenMP get one thread each unless the environment already sets
them, before numpy loads: OpenBLAS's default of one thread per core stalls
when another process holds a core, and the sparse gap and the mixing-time
certificate make many small BLAS calls that a second thread does not
speed up. Importing the library (`plaquette.cli` included) leaves the
environment alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from plaquette.cli import main  # noqa: E402  (after the thread settings)

if __name__ == "__main__":
    raise SystemExit(main())
