"""Print the CPU path the golden digests depend on.

The digests of tests/test_golden.py hold per CPU path: numpy's SIMD
dispatch targets and the core OpenBLAS picks.  This prints both, the core
read through ctypes from the OpenBLAS library bundled with numpy, so a
digest failure can be traced to them.  Run it as `python .github/cpu_path.py`.
"""

import ctypes
import glob
import os

import numpy

numpy.show_runtime()
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
lib, = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
core = ctypes.CDLL(lib).scipy_openblas_get_corename64_
core.restype = ctypes.c_char_p
print("OpenBLAS core:", core().decode())
