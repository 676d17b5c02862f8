"""Wire-size accounting for simulated messages.

The simulator does not serialize objects for transport (message payloads
are passed by reference for speed), but experiments that report *bytes
moved* -- the centralized-vs-in-network aggregation bench, the Bloom-join
bench -- need a faithful size model. ``wire_size`` estimates the encoded
size of a payload the way PIER's Java serializer would: fixed-width
scalars, length-prefixed strings, recursive containers.

Every message is sized on every hop, so the function dispatches on the
exact type first and sizes a container whose elements share one scalar
type in a single C-level pass. Subclasses of the built-ins (``bool``,
``IntEnum``, namedtuples) take the ``isinstance`` chain, which defines
the model.
"""

# Encoded width of each fixed-size scalar, by exact type.
_FIXED = {type(None): 1, bool: 1, int: 8, float: 8}
_SEQUENCES = frozenset((list, tuple, set, frozenset))
_BUILTINS = (int, float, str, bytes, list, tuple, set, frozenset, dict)


def wire_size(value):
    """Estimated serialized size of ``value`` in bytes."""
    cls = type(value)
    width = _FIXED.get(cls)
    if width is not None:
        return width
    if cls is str:
        return 4 + len(value.encode("utf-8"))
    if cls in _SEQUENCES:
        n = len(value)
        if n:
            kinds = set(map(type, value))
            if len(kinds) == 1:
                kind = kinds.pop()
                width = _FIXED.get(kind)
                if width is not None:
                    return 4 + n * width
                if kind is str:
                    return 4 + 4 * n + sum(map(len, map(str.encode, value)))
        return 4 + sum(map(wire_size, value))
    if cls is dict:
        return (4 + sum(map(wire_size, value))
                + sum(map(wire_size, value.values())))
    if cls is bytes:
        return 4 + len(value)
    if not isinstance(value, _BUILTINS):
        size_hint = getattr(value, "wire_size", None)
        if callable(size_hint):
            return size_hint()
        # Fall back to the repr; better to over-estimate than to
        # silently count an unknown object as free.
        return 4 + len(repr(value).encode("utf-8"))
    # A subclass of a built-in: the model's own definition.
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + sum(wire_size(v) for v in value)
    return 4 + sum(wire_size(k) + wire_size(v) for k, v in value.items())
