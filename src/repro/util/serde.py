"""Wire-size accounting for simulated messages.

The simulator does not serialize objects for transport (message payloads
are passed by reference for speed), but experiments that report *bytes
moved* -- the centralized-vs-in-network aggregation bench, the Bloom-join
bench -- need a faithful size model. ``wire_size`` estimates the encoded
size of a payload the way PIER's Java serializer would: fixed-width
scalars, length-prefixed strings, recursive containers.

Every message is sized on every hop, so the function pays once per
message *shape* where it can:

- ``wire_size`` dispatches on the exact type first.
- ``_sum_sizes`` sizes the elements of a container, and the values of
  a dict, in one loop. It sizes exact ``None``/``bool``/``int``/
  ``float``/``str`` elements inline, recurses into itself for exact
  ``tuple``/``list`` elements (rows), and calls ``wire_size`` for the
  rest.
- A dict's keys are sized once per key tuple: ``_KEY_SHAPES`` maps
  ``tuple(d)`` to the keys' summed size. Only tuples whose keys are all
  exact ``str`` go in. ``{1: 0}``, ``{True: 0}`` and ``{1.0: 0}`` are
  equal dicts whose keys size 8, 1 and 8 bytes, so a non-``str`` key
  must never pick up another tuple's entry. A key that compares equal
  to a ``str`` is a ``str`` subclass, which sizes as its text. The
  table stops growing at ``_KEY_SHAPES_CAP`` entries; a shape that
  does not fit is summed afresh each time.

Subclasses of the built-ins (``bool``, ``IntEnum``, namedtuples) take
the ``isinstance`` chain, which defines the model. Messages size
themselves through their own ``wire_size()`` (``dht/messages.py``).
"""

# Encoded width of each fixed-size scalar, by exact type.
_FIXED = {type(None): 1, bool: 1, int: 8, float: 8}
_SEQUENCES = frozenset((list, tuple, set, frozenset))
_BUILTINS = (int, float, str, bytes, list, tuple, set, frozenset, dict)

# Summed size of a dict's keys, by key tuple (all keys exact ``str``).
_KEY_SHAPES = {}
_KEY_SHAPES_CAP = 256


def _sum_sizes(values):
    """Summed wire size of ``values``, exact scalars sized inline."""
    total = 0
    for value in values:
        cls = type(value)
        if cls is str:
            total += 4 + len(value.encode("utf-8"))
        elif cls is int or cls is float:
            total += 8
        elif cls is tuple or cls is list:
            total += 4 + _sum_sizes(value)
        elif value is None or cls is bool:
            total += 1
        else:
            total += wire_size(value)
    return total


def wire_size(value):
    """Estimated serialized size of ``value`` in bytes."""
    cls = type(value)
    if cls is dict:
        keys = tuple(value)
        size = _KEY_SHAPES.get(keys)
        if size is None:
            size = _sum_sizes(keys)
            if (len(_KEY_SHAPES) < _KEY_SHAPES_CAP
                    and all(type(k) is str for k in keys)):
                _KEY_SHAPES[keys] = size
        return 4 + size + _sum_sizes(value.values())
    width = _FIXED.get(cls)
    if width is not None:
        return width
    if cls is str:
        return 4 + len(value.encode("utf-8"))
    if cls in _SEQUENCES:
        return 4 + _sum_sizes(value)
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
