"""Build-or-reuse: the one rule by which lapmult keeps a value between calls.

An owner keeps at most one entry, a ``(key, value)`` pair:

- :func:`keep` returns the kept value when the key is equal; otherwise it
  builds the value, stores ``(key, value)`` whole in place of the old entry,
  and returns it.  A build that raises stores nothing, so the old entry stays
  and a failing build fails on every call;
- :func:`kept` returns the kept value, or None, and never builds.

The owner holds the entry: an object keeps it in its instance dict, a dict in
itself.  It lives as long as the owner, and a replaced entry is let go.  The
entry is read once and written once, so threads that race on one owner can at
worst build the same value twice.  Every build is deterministic, so a kept
value has the bytes of a fresh one.

The owners are a generator (its decomposition), a path space (its last
stratified draw), ``suites`` (its last step-instance family), a martingale
transform (its values on one path set) and a step family member's multiplier
(its spectral-route T_m f).  Two caches keep other rules:

- ``functools.cached_property`` attributes, such as a path space's table
  (read only by an arbitrary functional's exact reduction) and the weights
  and measure of ``ExactPaths``, are built once and have no key: the
  standard library's form of the same rule;
- a sampled symbol keeps the Simpson sums of every eigenvalue it has seen.
  ``imaginary_powers`` reads the whole spectrum again through
  ``operator_matrix`` after its per-eigenvalue loop, so keeping only the last
  one would compute every sum twice.
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
    """The value ``owner`` keeps, whatever its key, or None; never builds."""
    return _slots(owner).get(_ENTRY, (None, None))[1]
