"""``BitmapBackend`` is read only by ``benchmarks/suite/tracer.py``."""

from .base import CountingBackend as BitmapBackend  # noqa: F401
