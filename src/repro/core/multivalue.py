"""SIMD-on-demand multivalues (paper sections 2.3 and 5).

A :class:`Multivalue` holds one value per request in a re-execution group.
It *collapses* to a single shared representation when every slot holds an
equal value and *expands* into a per-request vector when slots diverge.  The
verifier re-executes a whole control-flow group with multivalue-typed
request inputs; instructions whose operands are collapsed execute once for
the entire group.

Where the original system transpiles JavaScript so that primitive operators
work on multivalues, this reproduction gives multivalues Python operator
overloads (arithmetic, comparison, indexing) plus :func:`mv_apply` for
arbitrary functions.  Applications written against the handler-context API
(see ``repro.kem.context``) work unchanged in single-request and grouped
modes.

Control flow must not diverge within a group (Figure 18 line 32 REJECTs on
divergence); :func:`require_scalar` converts a multivalue condition to a
plain bool, raising :class:`DivergenceError` if slots disagree.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence

from repro.errors import KarousosError


class DivergenceError(KarousosError):
    """A grouped execution took different control-flow paths per request."""


def _values_equal(a: object, b: object) -> bool:
    """Equality with a guard: multivalues never nest, so plain == is safe."""
    return type(a) is type(b) and a == b or a == b


class Multivalue:
    """A per-request vector of values that deduplicates when uniform.

    Internally either ``collapsed`` (one value shared by all ``rids``) or
    expanded (a list parallel to ``rids``).  ``rids`` is the ordered tuple
    of request ids of the group; every multivalue flowing through one
    grouped execution carries the same ``rids`` tuple (enforced on zips).
    """

    __slots__ = ("rids", "_shared", "_slots", "_collapsed", "_slot_of")

    def __init__(self, rids: Sequence[str], values: Sequence[object]):
        if len(rids) != len(values):
            raise ValueError("rids and values must be parallel")
        self.rids = tuple(rids)
        self._slot_of = None  # rid -> slot, built by the first get()
        first = values[0]
        if all(v == first for v in values[1:]):
            self._collapsed = True
            self._shared = first
            self._slots = None
        else:
            self._collapsed = False
            self._shared = None
            self._slots = list(values)

    # -- construction helpers -------------------------------------------

    @classmethod
    def uniform(cls, rids: Sequence[str], value: object) -> "Multivalue":
        mv = cls.__new__(cls)
        mv.rids = tuple(rids)
        mv._slot_of = None
        mv._collapsed = True
        mv._shared = value
        mv._slots = None
        return mv

    @classmethod
    def from_map(cls, rids: Sequence[str], mapping: Dict[str, object]) -> "Multivalue":
        return cls(rids, [mapping[rid] for rid in rids])

    # -- inspection ------------------------------------------------------

    @property
    def is_collapsed(self) -> bool:
        return self._collapsed

    def get(self, rid: str) -> object:
        if self._collapsed:
            return self._shared
        if self._slot_of is None:
            self._slot_of = {r: i for i, r in enumerate(self.rids)}
        try:
            return self._slots[self._slot_of[rid]]
        except KeyError:
            raise ValueError(f"{rid!r} is not in this group") from None

    def values(self) -> List[object]:
        if self._collapsed:
            return [self._shared] * len(self.rids)
        return list(self._slots)

    def items(self) -> Iterable:
        return zip(self.rids, self.values())

    def scalar(self) -> object:
        """The shared value; raises :class:`DivergenceError` if expanded."""
        if not self._collapsed:
            raise DivergenceError(f"multivalue diverges across group: {self._slots!r}")
        return self._shared

    # -- lifting ----------------------------------------------------------

    def map(self, fn: Callable[[object], object]) -> "Multivalue":
        """Apply ``fn`` per slot; runs once when collapsed (the SIMD win)."""
        if self._collapsed:
            return Multivalue.uniform(self.rids, fn(self._shared))
        return Multivalue(self.rids, [fn(v) for v in self._slots])

    def zip_with(self, other: "Multivalue", fn: Callable[[object, object], object]) -> "Multivalue":
        if self.rids != other.rids:
            raise ValueError("multivalues from different groups")
        if self._collapsed and other._collapsed:
            return Multivalue.uniform(self.rids, fn(self._shared, other._shared))
        a, b = self.values(), other.values()
        return Multivalue(self.rids, [fn(x, y) for x, y in zip(a, b)])

    # -- operator sugar ----------------------------------------------------

    def _binop(self, other: object, fn: Callable) -> "Multivalue":
        if isinstance(other, Multivalue):
            return self.zip_with(other, fn)
        return self.map(lambda v: fn(v, other))

    def _rbinop(self, other: object, fn: Callable) -> "Multivalue":
        return self.map(lambda v: fn(other, v))

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._rbinop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._rbinop(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._rbinop(other, lambda a, b: a * b)

    def __mod__(self, other):
        return self._binop(other, lambda a, b: a % b)

    def __floordiv__(self, other):
        return self._binop(other, lambda a, b: a // b)

    def eq(self, other) -> "Multivalue":
        return self._binop(other, lambda a, b: a == b)

    def ne(self, other) -> "Multivalue":
        return self._binop(other, lambda a, b: a != b)

    def lt(self, other) -> "Multivalue":
        return self._binop(other, lambda a, b: a < b)

    def gt(self, other) -> "Multivalue":
        return self._binop(other, lambda a, b: a > b)

    def getitem(self, key) -> "Multivalue":
        return self._binop(key, lambda v, k: v[k])

    def contains(self, item) -> "Multivalue":
        return self._binop(item, lambda v, i: i in v)

    def __repr__(self) -> str:
        if self._collapsed:
            return f"MV*{len(self.rids)}({self._shared!r})"
        return f"MV({dict(zip(self.rids, self._slots))!r})"

    def __eq__(self, other) -> bool:
        """Structural equality (same group, same per-slot values).

        Unlike JavaScript-style implicit lifting, Python containers call
        ``__eq__`` internally, so this must return a plain bool; use
        :meth:`eq` for a lifted comparison.
        """
        if not isinstance(other, Multivalue):
            return NotImplemented
        return self.rids == other.rids and self.values() == other.values()

    def __hash__(self):
        return hash((self.rids, tuple(map(repr, self.values()))))


def collapse(mv: "Multivalue") -> "Multivalue":
    """Re-normalise an expanded multivalue whose slots became equal."""
    if mv.is_collapsed:
        return mv
    return Multivalue(mv.rids, mv.values())


def expand(mv: "Multivalue") -> List[object]:
    """Per-slot values, in group order."""
    return mv.values()


def mv_apply(rids: Sequence[str], fn: Callable, *args: object) -> Multivalue:
    """Apply ``fn`` slot-wise over a mix of multivalues and scalars.

    Executes ``fn`` exactly once when every multivalue argument is
    collapsed -- this is the instruction-deduplication at the heart of
    SIMD-on-demand.
    """
    mvs = [a for a in args if isinstance(a, Multivalue)]
    for mv in mvs:
        if mv.rids != tuple(rids):
            raise ValueError("multivalue belongs to a different group")
    if all(mv.is_collapsed for mv in mvs):
        plain = [a.scalar() if isinstance(a, Multivalue) else a for a in args]
        return Multivalue.uniform(rids, fn(*plain))
    results = []
    for i, rid in enumerate(rids):
        plain = [a.get(rid) if isinstance(a, Multivalue) else a for a in args]
        results.append(fn(*plain))
    return Multivalue(rids, results)


def as_multivalue(rids: Sequence[str], value: object) -> Multivalue:
    """Lift ``value`` into the group, passing multivalues through."""
    if isinstance(value, Multivalue):
        if value.rids != tuple(rids):
            raise ValueError("multivalue belongs to a different group")
        return value
    return Multivalue.uniform(rids, value)


def require_scalar(value: object) -> object:
    """Unwrap a (possibly multivalue) control-flow condition.

    Raises :class:`DivergenceError` when the group disagrees -- the caller
    (the grouped re-executor) converts that into REJECT, because requests in
    one control-flow group must take identical branches (section 4.1).
    """
    if isinstance(value, Multivalue):
        return value.scalar()
    return value
