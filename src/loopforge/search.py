"""Exact backtracking engine for single-loop edge puzzles.

The engine works on an abstract graph: nodes are cell centres (or lattice
dots) and edges are the places a loop segment may lie.  Every edge ends up
``IN`` or ``OUT``; nodes carry a degree requirement (``EXACT2`` for cells
that must be visited, ``OPT`` for cells that may be skipped).  A node's
requirement only ever rises within a branch (``require``), never falls.
Unit propagation enforces degree arithmetic.  Chains are tracked by
their ends.  Whenever an ``IN`` edge grows a chain while a must-visit
node or another chain is still off it, any undecided edge joining that
chain's two ends is forced ``OUT``: a premature cycle is propagated
away, not only detected once it closes.
Genre-specific rules plug in through the ``on_assigned`` /
``node_rules_extra`` / ``accept`` hooks.

The search is one loop over an explicit stack with an (edge, trail mark,
index-order floor) entry for each decision whose ``OUT`` branch has not
run yet.  When a branch ends, the loop pops the deepest entry, rolls the
trail back to its mark and tries ``OUT``, so depth costs list entries,
not interpreter or C stack frames.

Two deterministic branching modes exist, both trying ``IN`` before
``OUT``.  The default sweeps edges in index order, so with canonically
sorted edges the first solution found is the lexicographically least
edge set.  ``branch_frontier`` instead keeps extending an open chain
end, which scales to much larger boards but gives up the lexicographic
guarantee; reruns still produce the identical solution.  The end it
extends next (``_last_end``) is not restored on rollback, so it depends
on the dead branches explored before: any change to pruning can reorder
a frontier enumeration, though never change the set of solutions.  This
is kept on purpose.  Restoring ``_last_end`` from each stack entry was
measured on the genre-solve benchmark (seed 1, passes 0-2, 200 ms
budget): Masyu images of sat sources went from 9 of 45 decided to 0 of
45, and no other genre's count changed.

A planar graph may come with ``faces``: the two face ids of every edge,
plus the face pairs of grid edges absent from the graph, which are
``OUT`` from the start.  The loop is a Jordan curve, so every face lies
inside or outside it and an edge is ``IN`` exactly when its two faces
differ.  A parity union-find over the faces records each decided edge
as "different" or "same" sides; a relation that closes an odd cycle is
a conflict, and a union forces every undecided edge whose two faces it
puts in one class.  BSL backtracking and the Yajilin solver pass
``genres.base.grid_faces``; without ``faces`` none of this runs.

Pruning (degree conflicts, premature closure, bridge/articulation cuts,
bipartite parity, face parity) only ever discards branches that cannot
contain a valid solution, so exhausting the tree is a proof of
unsatisfiability.
The cut check (``_connected_ok``) walks only the live component, the
non-``OUT`` edges reachable from a chain end or a must-visit node; the
count of required nodes comes from counters kept by assignment and
rollback, so nodes off that component cost nothing.  It runs at every
``connectivity_every``-th decision, and only when an edge went ``OUT``
since the last run: every 4th for the genre solvers
(``genres.base.CUT_CHECK_EVERY``), every 32nd for BSL backtracking.
One more runs after the initial propagation, which refutes a barless
odd board at once; it leaves the decision count and the dirty flag
alone, so every later check lands where it would without it.
Instances are one-shot: abandoning a solution generator mid-flight
leaves the state mid-branch.  The budget clock starts when the instance
is built, so set-up counts against it; the deadline is checked before
the first sweep of the node rules, so a spent budget starts no sweep, at
every decision and every 4,096 assignments; once it is spent the search
raises ``SearchTimeout``.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import chain
from typing import Iterable, Iterator, Optional

from .errors import SearchTimeout

UNKNOWN, IN, OUT = 0, 1, 2
EXACT2, OPT = 0, 1


class LoopSearch:
    """Single-loop search over an explicit node/edge graph."""

    def __init__(
        self,
        n_nodes: int,
        edges: list[tuple[int, int]],
        req: list[int],
        *,
        budget_ms: Optional[float] = None,
        connectivity_every: int = 0,
        branch_frontier: bool = False,
        faces: Optional[tuple[list[tuple[int, int]], list[tuple[int, int]]]] = None,
    ):
        # The budget covers set-up too: the adjacency, the two-colouring
        # and the faces joined by absent edges.
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.n_nodes = n_nodes
        self.edges = edges
        self.req = list(req)
        # (neighbour, edge) pairs of each node, in edge index order.
        self.incident: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
        for i, (u, v) in enumerate(edges):
            self.incident[u].append((v, i))
            self.incident[v].append((u, i))
        self.state = bytearray(len(edges))
        self.in_cnt = [0] * n_nodes
        self.unk_cnt = [len(self.incident[x]) for x in range(n_nodes)]
        self.partner = list(range(n_nodes))
        self.closed = False
        self.trail: list[tuple] = []
        self.queue: deque[tuple[int, int]] = deque()
        self.connectivity_every = connectivity_every
        # Frontier branching extends an open chain end instead of sweeping
        # edges in index order: far better locality on large boards, still
        # deterministic, but the first solution found is no longer the
        # lexicographically least one.
        self.branch_frontier = branch_frontier
        self.ends: set[int] = set()
        # Must-visit nodes not yet on the loop: a cycle may only close
        # when this reaches zero and no other chain is open.
        self.uncovered = sum(1 for x in range(n_nodes) if self.req[x] == EXACT2)
        # Nodes with at least one IN edge.
        self.on_loop = 0
        self._out_dirty = True
        self._last_end = -1
        self.side = self._two_color()
        self._calls = 0
        self._ticks = 0
        # Face parity: None, or the two face ids of every edge.  Each face
        # keeps its class root and its parity to that root (1 = the other
        # side of the loop), so a look-up is O(1); each root lists its
        # class, and a union relabels the smaller one.
        self.edge_faces: Optional[list[tuple[int, int]]] = None
        if faces is not None:
            self.edge_faces, absent = faces
            n_faces = 1 + max(chain.from_iterable(self.edge_faces + absent), default=0)
            self.face_root = list(range(n_faces))
            self.face_par = [0] * n_faces
            self.face_class = [[f] for f in range(n_faces)]
            # (edge, other face) pairs of each face.
            face_edges = self.face_edges = [[] for _ in range(n_faces)]
            for i, (f, g) in enumerate(self.edge_faces):
                face_edges[f].append((i, g))
                face_edges[g].append((i, f))
            # An absent grid edge is OUT from the start.
            for f, g in absent:
                self._join_faces(f, g, 0)

    def _two_color(self) -> list[int]:
        """Bipartition side of each node, +1 or -1; all 0 when not bipartite."""
        side = [0] * self.n_nodes
        for s in range(self.n_nodes):
            if side[s]:
                continue
            side[s] = 1
            stack = [s]
            while stack:
                x = stack.pop()
                for y, _ in self.incident[x]:
                    if not side[y]:
                        side[y] = -side[x]
                        stack.append(y)
                    elif side[y] == side[x]:
                        return [0] * self.n_nodes
        return side

    # ------------------------------------------------------------------
    # genre hooks

    def on_assigned(self, ei: int, val: int) -> bool:
        """Called after every edge assignment; queue forcings, False = conflict."""
        return True

    def node_rules_extra(self, x: int) -> bool:
        """Extra per-node rules run alongside degree arithmetic."""
        return True

    def accept(self, in_edges: frozenset[int]) -> bool:
        """Final filter on a complete candidate assignment."""
        return True

    def undo_extra(self, entry: tuple) -> None:
        """Restore adapter state recorded with :meth:`trail_extra`."""

    # ------------------------------------------------------------------
    # state updates

    def trail_extra(self, entry: tuple) -> None:
        self.trail.append((3, entry))

    def require(self, x: int) -> None:
        """Raise an ``OPT`` node to ``EXACT2``; within a branch ``req`` only rises."""
        self.trail.append((4, x))
        if self.in_cnt[x] == 0:
            self.uncovered += 1
        self.req[x] = EXACT2

    def _set_partner(self, x: int, val: int) -> None:
        self.trail.append((1, x, self.partner[x]))
        self.partner[x] = val

    def _assign(self, ei: int, val: int) -> bool:
        st = self.state[ei]
        if st:
            return st == val
        u, v = self.edges[ei]
        if val == IN:
            if self.closed:
                return False
            if self.in_cnt[u] >= 2 or self.in_cnt[v] >= 2:
                return False
        self.state[ei] = val
        self.trail.append((0, ei, val))
        self.unk_cnt[u] -= 1
        self.unk_cnt[v] -= 1
        if val == IN:
            for x in (u, v):
                ic = self.in_cnt[x] + 1
                self.in_cnt[x] = ic
                if ic == 1:
                    self.ends.add(x)
                    self._last_end = x
                    self.on_loop += 1
                    if self.req[x] == EXACT2:
                        self.uncovered -= 1
                else:
                    self.ends.discard(x)
            pu = self.partner[u]
            pv = self.partner[v]
            if pu == v:
                self.trail.append((2,))
                self.closed = True
                # The single cycle just closed: it must already be the
                # whole solution, or this branch is dead.
                if self.uncovered or self.ends:
                    return False
            else:
                self._set_partner(pu, pv)
                self._set_partner(pv, pu)
                # Closing the new chain now would leave a must-visit node or
                # another chain off the only cycle.  Its interior is fixed
                # while pu and pv stay its ends and req only rises, so an
                # edge joining them can never be IN on this branch.
                if self.uncovered or len(self.ends) > 2:
                    for y, e in self.incident[pu]:
                        if y == pv and not self.state[e]:
                            self.queue.append((e, OUT))
        else:
            self._out_dirty = True
        if not self._node_rules(u) or not self._node_rules(v):
            return False
        if self.edge_faces is not None:
            f, g = self.edge_faces[ei]
            if self.face_root[f] == self.face_root[g]:  # no union: check the parity here
                if self.face_par[f] ^ self.face_par[g] ^ (val == IN):
                    return False
            elif not self._join_faces(f, g, val == IN):
                return False
        return self.on_assigned(ei, val)

    def _join_faces(self, f: int, g: int, differ: int) -> bool:
        """Record that faces f and g lie on different (1) or the same (0) side.

        False when that contradicts what is known: the relations would
        close an odd cycle.  A union queues every undecided edge whose two
        faces it puts in one class, with the value their parity forces.
        """
        root = self.face_root
        par = self.face_par
        rf = root[f]
        rg = root[g]
        p = par[f] ^ par[g] ^ differ  # parity between the two roots
        if rf == rg:
            return not p
        cls = self.face_class
        if len(cls[rf]) > len(cls[rg]):
            rf, rg = rg, rf
        moved = cls[rf]
        state = self.state
        queue = self.queue
        for x in moved:
            px = par[x] ^ p
            for ei, y in self.face_edges[x]:
                if root[y] == rg and not state[ei]:
                    queue.append((ei, IN if px ^ par[y] else OUT))
        for x in moved:
            root[x] = rg
            par[x] ^= p
        cls[rg].extend(moved)
        self.trail.append((5, rf, rg, p))
        return True

    def _node_rules(self, x: int) -> bool:
        ic = self.in_cnt[x]
        uc = self.unk_cnt[x]
        if ic > 2:
            return False
        if ic == 2:
            if uc:
                state = self.state
                for _, ei in self.incident[x]:
                    if not state[ei]:
                        self.queue.append((ei, OUT))
        elif self.req[x] == EXACT2:
            if ic + uc < 2:
                return False
            if uc and ic + uc == 2:
                state = self.state
                for _, ei in self.incident[x]:
                    if not state[ei]:
                        self.queue.append((ei, IN))
        else:
            if ic == 1:
                if uc == 0:
                    return False
                if uc == 1:
                    state = self.state
                    for _, ei in self.incident[x]:
                        if not state[ei]:
                            self.queue.append((ei, IN))
            elif ic == 0 and uc == 1:
                # A lone undecided edge cannot give this node degree 2.
                state = self.state
                for _, ei in self.incident[x]:
                    if not state[ei]:
                        self.queue.append((ei, OUT))
        return self.node_rules_extra(x)

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout("search budget exhausted")

    def _propagate(self) -> bool:
        queue = self.queue
        state = self.state
        while queue:
            self._ticks += 1
            if self._ticks % 4096 == 0:
                self._check_deadline()
            ei, val = queue.popleft()
            if state[ei] == val:  # queued twice: skipped without a call
                continue
            if not self._assign(ei, val):
                queue.clear()
                return False
        return True

    def _rollback(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            entry = trail.pop()
            tag = entry[0]
            if tag == 0:
                _, ei, val = entry
                self.state[ei] = UNKNOWN
                u, v = self.edges[ei]
                self.unk_cnt[u] += 1
                self.unk_cnt[v] += 1
                if val == IN:
                    for x in (u, v):
                        ic = self.in_cnt[x] - 1
                        self.in_cnt[x] = ic
                        if ic == 1:
                            self.ends.add(x)
                        else:
                            self.ends.discard(x)
                            if ic == 0:
                                self.on_loop -= 1
                                if self.req[x] == EXACT2:
                                    self.uncovered += 1
            elif tag == 1:
                self.partner[entry[1]] = entry[2]
            elif tag == 2:
                self.closed = False
            elif tag == 4:
                x = entry[1]
                self.req[x] = OPT
                if self.in_cnt[x] == 0:
                    self.uncovered -= 1
            elif tag == 5:
                _, rf, rg, p = entry
                moved = self.face_class[rf]
                for x in moved:
                    self.face_root[x] = rf
                    self.face_par[x] ^= p
                del self.face_class[rg][-len(moved) :]
            else:
                self.undo_extra(entry[1])

    # ------------------------------------------------------------------
    # search

    def _connected_ok(self) -> bool:
        """Cut analysis of the live component: the non-OUT graph around the loop.

        A single closed tour crosses every edge cut an even number of
        times and passes through every node at most once, so a branch is
        dead as soon as a bridge or an articulation node separates two
        regions that both still hold must-visit or on-loop ("required")
        nodes.  The walk visits only the component of one required node;
        a required node it misses lies in another component.
        """
        total_req = self.on_loop + self.uncovered
        if total_req == 0:
            return True
        req = self.req
        in_cnt = self.in_cnt
        # Without an open chain nothing is on the loop yet (a closed one
        # never reaches the check), so the first must-visit node starts.
        start = next(iter(self.ends)) if self.ends else req.index(EXACT2)

        state = self.state
        incident = self.incident
        unk_cnt = self.unk_cnt
        side = self.side
        n = self.n_nodes
        disc = [0] * n  # 0 = unvisited; discovery times start at 1
        low = [0] * n
        holds_req = bytearray(n)  # 1 when the DFS subtree holds a required node
        timer = 1
        disc[start] = low[start] = timer
        seen_req = 1
        # Loop parity: bipartition balance of the required nodes, and
        # whether the component offers an optional stepping stone.
        balance = side[start]
        spare = False
        root_parts = 0
        # Iterative DFS: x is the node being expanded, it its remaining
        # (neighbour, edge) pairs and pe the edge it was reached by; the
        # stack holds the same for each ancestor.
        x, it, pe = start, iter(incident[start]), -1
        stack = []
        while True:
            for y, ei in it:
                if ei == pe or state[ei] == OUT:
                    continue
                d = disc[y]
                if d:
                    if low[x] > d:
                        low[x] = d
                    continue
                timer += 1
                disc[y] = low[y] = timer
                if req[y] == EXACT2 or in_cnt[y]:
                    holds_req[y] = 1
                    seen_req += 1
                    balance += side[y]
                elif unk_cnt[y]:
                    spare = True
                stack.append((x, it, pe))
                x, it, pe = y, iter(incident[y]), ei
                break
            else:
                # x is finished: fold it into its parent.
                if not stack:
                    break
                p, it, pe = stack.pop()
                if holds_req[x]:
                    # The required start lies outside x's subtree, so a
                    # required node inside it is cut off from the start by
                    # a bridge p-x or by the articulation node p.
                    if low[x] > disc[p]:
                        return False
                    if p == start:
                        root_parts += 1
                    elif low[x] >= disc[p]:
                        return False
                    holds_req[p] = 1
                if low[p] > low[x]:
                    low[p] = low[x]
                x = p
        if seen_req < total_req or root_parts > 1:
            return False
        # The single cycle alternates bipartition sides, so when the live
        # component offers no optional stepping stones, its required
        # sides have to balance exactly.
        return spare or not balance

    def _sweep_out(self) -> bool:
        state = self.state
        for ei in range(len(state)):
            if not state[ei]:
                self.queue.append((ei, OUT))
        return self._propagate()

    def _candidate(self) -> frozenset[int]:
        state = self.state
        return frozenset(ei for ei in range(len(state)) if state[ei] == IN)

    def solutions(self, seeds: Iterable[tuple[int, int]] = ()) -> Iterator[frozenset[int]]:
        """Enumerate every valid assignment in deterministic order."""
        mark = len(self.trail)
        self._check_deadline()
        for x in range(self.n_nodes):
            if not self._node_rules(x):
                self._rollback(mark)
                return
        for ei, val in seeds:
            self.queue.append((ei, val))
        stack: list[tuple[int, int, int]] = []  # (edge, trail mark, lo) owing OUT
        lo = 0
        # The root cut check, before the first decision.
        ok = self._propagate() and (self.closed or not self.connectivity_every or self._connected_ok())
        while True:
            if ok:
                if self.closed:
                    if self._sweep_out():
                        cand = self._candidate()
                        if self.accept(cand):
                            yield cand
                else:
                    branch = self._branch(lo)
                    if branch is not None:
                        ei, lo = branch
                        stack.append((ei, len(self.trail), lo))
                        self.queue.append((ei, IN))
                        ok = self._propagate()
                        continue
            # This branch is over: resume the deepest decision still owing OUT.
            if not stack:
                break
            ei, branch_mark, lo = stack.pop()
            self._rollback(branch_mark)
            self.queue.append((ei, OUT))
            ok = self._propagate()
        self._rollback(mark)

    def _branch(self, lo: int) -> Optional[tuple[int, int]]:
        """The next edge to decide and the new index-order floor ``lo``.

        None when the branch is dead: every edge is decided without a
        closed cycle, or the periodic cut check fails.
        """
        self._check_deadline()
        state = self.state
        ei = None
        if self.branch_frontier and self.ends:
            # Keep extending the chain worked on last; locality makes
            # conflicts surface close to the decisions that caused them.
            x = self._last_end if self._last_end in self.ends else min(self.ends)
            for _, e in self.incident[x]:
                if not state[e]:
                    ei = e
                    break
        if ei is None:
            n = len(state)
            while lo < n and state[lo]:
                lo += 1
            if lo == n:
                return None
            ei = lo
        self._calls += 1
        if (
            self.connectivity_every
            and self._out_dirty
            and self._calls % self.connectivity_every == 0
        ):
            self._out_dirty = False
            if not self._connected_ok():
                return None
        return ei, lo
