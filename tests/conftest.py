"""The numeric fingerprint printed in the pytest header.

The bit-pinned results (the golden rows, the kernel digests, the floor-pass
digests and the CMA-ES pins) hold for one numpy build, BLAS library, BLAS
core and set of SIMD dispatch targets; the header names them, so a failing
pin on another machine can be told apart from a changed program.
"""

import ctypes
import glob
import os

import numpy as np


def _openblas_core() -> str:
    """The core the bundled OpenBLAS picked at run time, or "unknown"."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints only
        info = {}
    blas = info.get("Build Dependencies", {}).get("blas", {})
    found = info.get("SIMD Extensions", {}).get("found") or []
    env = " ".join(f"{name}={os.environ.get(name, '(unset)')}"
                   for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"))
    return [
        f"numpy {np.__version__}; BLAS {blas.get('name', 'unknown')} "
        f"{blas.get('version', '')}: {blas.get('openblas configuration', 'unknown')}",
        f"OpenBLAS core {_openblas_core()}; numpy AVX-512 dispatch: "
        f"{' '.join(f for f in found if 'AVX512' in f) or 'none'}; {env}",
    ]
