"""Alias kept for ``benchmarks/suite/tracer.py``, its one reader.

The tracer lists ``repro.counting.bitmap.BitmapBackend`` among the
counting classes whose methods it wraps, so the name stays importable
and points at :class:`~repro.counting.mask.MaskBackend`.  It is not
exported from :mod:`repro.counting`.
"""

from .mask import MaskBackend

BitmapBackend = MaskBackend
