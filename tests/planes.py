"""Forcing an execution plane on a protocol instance, for the tests.

The engine binds ``protocol.fast_step_slots(schema)`` (or the adapter
over the readable ``step`` when that returns None) and, for protocols
that compile one, ``protocol.vector_step(schema, store)``.  Both are
called through the instance, so overriding them on one instance pins
the plane that instance runs on, at construction and at every rebind.
"""

from repro.runtime.protocol import adapt_step_to_slots


def scalar_plane(proto):
    """``proto`` with its columnar plane off (the vector rule declines)."""
    proto.vector_step = lambda schema, cols: None
    return proto


def adapter_plane(proto):
    """``proto`` bound through its readable ``step`` (scalar too), so
    every evaluation really runs ``step``."""
    proto.fast_step_slots = lambda schema: adapt_step_to_slots(proto, schema)
    return scalar_plane(proto)
