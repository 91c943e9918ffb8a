"""Build script for the optional compiled backtracking kernel.

The package is pure Python except for kmagic._backtrack, a hand-written
C twin of the kernel in kmagic._backtrack_py.  It needs only a C
compiler; if none is available the extension is skipped and the package
falls back to the pure implementation at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("kmagic._backtrack", ["src/kmagic/_backtrack.c"], optional=True)])
