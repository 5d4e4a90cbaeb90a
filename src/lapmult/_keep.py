"""Build-or-reuse: the one rule by which lapmult keeps a value between calls.

An owner keeps at most one entry, a ``(key, value)`` pair:

- :func:`keep` returns the kept value when the key is equal; otherwise it
  builds the value, stores ``(key, value)`` whole in place of the old entry,
  and returns it.  A build that raises stores nothing, so the old entry stays
  and a failing build fails on every call;
- :func:`kept` returns the kept entry, key included, or None, and never builds.

The owner holds the entry: an object keeps it in its instance dict, a dict in
itself.  It lives as long as the owner, and a replaced entry is let go.  The
entry is read once and written once, so threads that race on one owner can at
worst build the same value twice.  Every build is deterministic, so a kept
value has the bytes of a fresh one.

The owners, and what each keeps:

- a generator: its decomposition;
- a path space: one path set, its enumerated table (key None) or its last
  stratified draw (key ``(seed, samples)``);
- a kernel: its conditional path weights for the last horizon;
- an ``ExactPaths``: its path measure;
- ``suites``: its last step-instance family;
- a step family member's multiplier: its spectral-route T_m f;
- a martingale transform: its values on one of its space's path sets;
- a sampled symbol: the Simpson sums of the last eigenvalue it saw.
"""

_ENTRY = "_kept"


def _slots(owner) -> dict:
    return owner if isinstance(owner, dict) else vars(owner)


def keep(owner, key, build):
    """The value ``owner`` keeps for ``key``; ``build()`` makes and replaces it when the key is new."""
    slots = _slots(owner)
    entry = slots.get(_ENTRY)
    if entry is None or entry[0] != key:
        entry = slots[_ENTRY] = (key, build())
    return entry[1]


def kept(owner):
    """The ``(key, value)`` entry ``owner`` keeps, or None; never builds."""
    return _slots(owner).get(_ENTRY)
