"""``ChunkedBackend`` is read only by ``benchmarks/suite/tracer.py``."""

from .base import CountingBackend as ChunkedBackend  # noqa: F401
