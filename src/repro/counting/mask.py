"""``MaskBackend`` is read only by ``benchmarks/suite/tracer.py``."""

from .base import CountingBackend as MaskBackend  # noqa: F401
