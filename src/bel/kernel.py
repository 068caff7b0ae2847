"""Kernel selection: the compiled extension ``bel._kernel_c`` when it
imports, the pure-Python ``bel._kernel_py`` otherwise.

Both have the same API and canonical output within the exponent limits.
The pure-Python kernel raises SizeLimitError on an exponent above
2**15 - 1; the compiled one does not check exponents and wraps silently
above 2**16 - 1 (an exponent keeps only its low 16 bits).  Callers go
through this module's attributes (``kernel.buchberger`` etc.), so
``KERNEL_NAME`` always names the kernel that runs.
"""

from __future__ import annotations

try:
    from . import _kernel_c as _impl
except ImportError:
    from . import _kernel_py as _impl  # type: ignore[no-redef]

KERNEL_NAME = _impl.KERNEL_NAME
buchberger = _impl.buchberger
normal_form = _impl.normal_form
interreduce = _impl.interreduce
