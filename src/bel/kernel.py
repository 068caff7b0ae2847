"""The Groebner kernel: the pure-Python ``bel._kernel_py``.

It raises SizeLimitError on an exponent above 2**15 - 1.  Callers go
through this module's attributes (``kernel.buchberger`` etc.), so a
wrapper bound here sees every call, and ``KERNEL_NAME`` names the kernel
that runs.
"""

from __future__ import annotations

from . import _kernel_py as _impl

KERNEL_NAME = _impl.KERNEL_NAME
buchberger = _impl.buchberger
normal_form = _impl.normal_form
interreduce = _impl.interreduce
