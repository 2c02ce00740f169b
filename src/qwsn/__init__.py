"""Query-driven multi-service WSN routing protocol and its simulator."""

import os

# The program makes no BLAS call that threads would help, so numpy's
# OpenBLAS starts one thread; a value the user set is kept.  This must run
# before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
