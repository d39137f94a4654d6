"""Arbiters: the building blocks of separable switch allocators.

An arbiter selects one winner among a set of requesters.  Hardware arbiters
carry state between cycles (a round-robin pointer or a priority matrix), so
these classes are stateful objects created once per arbitration point and
ticked every cycle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable


def rr_winner(pointer: int, requests: Iterable[int], n: int) -> int | None:
    """Round-robin selection as a pure function of ``(pointer, requests)``.

    The requester with the smallest offset ``(idx - pointer) mod n`` wins.
    This is the single scalar definition of the rotating-priority grant:
    :class:`RoundRobinArbiter` dispatches through it, and the vectorized
    engine's batched form (a sort by the same rolled offsets,
    :func:`repro.sim.vec.kernels.rr_arbitrate`) is pinned to it by tests —
    so the object and array allocation paths cannot drift apart.
    """
    win = None
    best = n
    for idx in requests:
        offset = (idx - pointer) % n
        if offset < best:
            best = offset
            win = idx
    return win


def rr_rotate(winner: int, n: int) -> int:
    """Pointer state after granting ``winner``: one past the winner."""
    return (winner + 1) % n


class Arbiter(ABC):
    """Base class for ``n:1`` arbiters.

    Parameters
    ----------
    num_requesters:
        Number of request lines (``n`` in an ``n:1`` arbiter).
    """

    def __init__(self, num_requesters: int) -> None:
        if num_requesters < 1:
            raise ValueError(f"arbiter needs >=1 requesters, got {num_requesters}")
        self.num_requesters = num_requesters

    @abstractmethod
    def arbitrate(self, requests: Iterable[int]) -> int | None:
        """Pick a winner among the requesting indices.

        ``requests`` is an iterable of requester indices (each in
        ``[0, num_requesters)``).  Returns the winning index, or ``None``
        when no line requests.  Calling ``arbitrate`` does **not** rotate
        priority; call :meth:`update` after the grant is accepted.
        """

    @abstractmethod
    def update(self, winner: int) -> None:
        """Advance the priority state after ``winner`` was granted."""

    def grant(self, requests: Iterable[int]) -> int | None:
        """Arbitrate and immediately update state (plain arbiter usage)."""
        winner = self.arbitrate(requests)
        if winner is not None:
            self.update(winner)
        return winner

    def reset(self) -> None:
        """Restore the power-on priority state."""


class RoundRobinArbiter(Arbiter):
    """Rotating-priority arbiter.

    The requester at the priority pointer wins; after a grant the pointer
    moves one past the winner, which gives each requester a fair share under
    sustained contention.  This is the arbiter assumed by the paper's
    separable input-first baseline and by VIX.
    """

    def __init__(self, num_requesters: int) -> None:
        super().__init__(num_requesters)
        self._pointer = 0

    @property
    def pointer(self) -> int:
        """Index that currently holds the highest priority."""
        return self._pointer

    def arbitrate(self, requests: Iterable[int]) -> int | None:
        return rr_winner(self._pointer, set(requests), self.num_requesters)

    def update(self, winner: int) -> None:
        if not 0 <= winner < self.num_requesters:
            raise ValueError(f"winner {winner} out of range 0..{self.num_requesters - 1}")
        self._pointer = rr_rotate(winner, self.num_requesters)

    def reset(self) -> None:
        self._pointer = 0


class FixedPriorityArbiter(Arbiter):
    """Static-priority arbiter: lowest index always wins.

    Used to model greedy, deterministic allocation (the augmenting-path
    allocator resolves ties this way, which is the source of the unfairness
    the paper measures in Figure 9).
    """

    def arbitrate(self, requests: Iterable[int]) -> int | None:
        req = [r for r in requests if 0 <= r < self.num_requesters]
        if not req:
            return None
        return min(req)

    def update(self, winner: int) -> None:  # fixed priority has no state
        if not 0 <= winner < self.num_requesters:
            raise ValueError(f"winner {winner} out of range 0..{self.num_requesters - 1}")


class MatrixArbiter(Arbiter):
    """Least-recently-granted arbiter using a priority matrix.

    ``_prio[i][j]`` is True when requester ``i`` beats requester ``j``.  On a
    grant the winner's row is cleared and its column set, making it the
    lowest priority.  Matrix arbiters give strong (LRG) fairness and are a
    common choice for output arbiters in NoC routers.
    """

    def __init__(self, num_requesters: int) -> None:
        super().__init__(num_requesters)
        n = num_requesters
        self._prio = [[i < j for j in range(n)] for i in range(n)]

    def arbitrate(self, requests: Iterable[int]) -> int | None:
        req = sorted(set(requests))
        if not req:
            return None
        if len(req) == 1:
            return req[0]
        for i in req:
            if all(self._prio[i][j] for j in req if j != i):
                return i
        # The matrix invariant (total order) guarantees a winner exists.
        raise AssertionError("priority matrix lost its total order")

    def update(self, winner: int) -> None:
        if not 0 <= winner < self.num_requesters:
            raise ValueError(f"winner {winner} out of range 0..{self.num_requesters - 1}")
        for j in range(self.num_requesters):
            if j != winner:
                self._prio[winner][j] = False
                self._prio[j][winner] = True

    def reset(self) -> None:
        n = self.num_requesters
        self._prio = [[i < j for j in range(n)] for i in range(n)]


def make_arbiter(kind: str, num_requesters: int) -> Arbiter:
    """Factory for arbiters by name (``round_robin``, ``fixed``, ``matrix``)."""
    kinds = {
        "round_robin": RoundRobinArbiter,
        "fixed": FixedPriorityArbiter,
        "matrix": MatrixArbiter,
    }
    try:
        cls = kinds[kind]
    except KeyError:
        raise ValueError(f"unknown arbiter kind {kind!r}; expected one of {sorted(kinds)}") from None
    return cls(num_requesters)
