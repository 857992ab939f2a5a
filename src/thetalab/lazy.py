"""numpy, bound once and executed at its first attribute access.

Importing numpy takes longer than most exact commands, which never
call it.  So `np` is bound here with the LazyLoader recipe of the
importlib documentation: `numpy` is registered in sys.modules at once,
and its code runs only when some path first reads `np.<attr>`.  A
process that imported numpy before thetalab keeps that module.

Every other module reads numpy as `from .lazy import np`, and none
reads an `np.` attribute at import (tests/test_layering.py), so an
exact command never executes numpy.  Nor does a theta value at one
point (theta.py sums it in plain Python).  The sampled checks read
single points when asked for at most 64 samples (theta.sample_units),
and the Weierstrass, Hesse and rho-theta checks at every sample count:
so only the quadric and translation checks of more than 64 samples
execute numpy.

thetalab calls no BLAS routine: every `@` in it multiplies exact
blocks, not arrays, and nothing reads np.dot, np.matmul or np.linalg.  Yet
OpenBLAS starts a second thread when numpy is executed, and on a small
machine that thread's start-up competes with the loading one.  So when
numpy is not yet loaded, OPENBLAS_NUM_THREADS is set to 1 before it is
bound, unless the environment already sets it.
"""

from __future__ import annotations

import importlib.util
import os
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")
