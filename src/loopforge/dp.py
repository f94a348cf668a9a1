"""Broken-profile dynamic programme deciding Hamiltonian-cycle existence.

Cells are scanned row-major.  A state is the plug profile on the frontier:
``w + 1`` slots, each 0 (no plug), 1 (chain end opening, ``(``) or 2
(chain end closing, ``)``).  While cell (c, r) is being processed, slot c
holds the plug entering it from the left and slot c+1 the plug entering
from above; afterwards slot c holds the plug leaving downward and slot
c+1 the plug leaving rightward.  Every cell must be covered, so the
single permitted cycle closure is at the last cell with an otherwise
empty profile.

A profile is packed into one ``int``, two bits per slot, slot i at bits
2i..2i+1.  The cell's two plugs are the 4-bit field ``(s >> 2c) & 15``
(left in the low half, up in the high half); a new chain opens as
``9 << 2c`` (``(`` then ``)``).  Joining two chain ends of the same kind
turns the partner bracket of the inner one around: the partner is found
by a depth-counting scan over the 2-bit fields, and since ``1 ^ 3 == 2``
and ``2 ^ 3 == 1``, the flip is ``s ^ (3 << 2j)``.  At a row change the
top slot must be empty and the profile shifts one slot, ``s << 2``.

This is the independent oracle the backtracking solver is checked
against; it shares no code with the search engine.
"""

from __future__ import annotations

from .grid import Edge


def _partner(s: int, slot: int, step: int) -> int:
    """Bit offset of the bracket matching the one at ``slot``, scanning by ``step``."""
    mine = (s >> 2 * slot) & 3
    depth = 0
    j = slot + step
    while j >= 0 and s >> 2 * j:
        plug = (s >> 2 * j) & 3
        if plug == mine:
            depth += 1
        elif plug:
            if depth == 0:
                return 2 * j
            depth -= 1
        j += step
    raise AssertionError("unbalanced plug profile")


def hamiltonian_cycle_exists(width: int, height: int, barred: frozenset[Edge] | set[Edge]) -> bool:
    """True iff a loop visiting every cell exactly once avoids all barred edges."""
    if width * height % 2 == 1 or width * height < 4:
        return False

    w, h = width, height
    states: set[int] = {0}
    found = False

    for r in range(h):
        for c in range(w):
            right_ok = c + 1 < w and ("h", c, r) not in barred
            down_ok = r + 1 < h and ("v", c, r) not in barred
            last_cell = (c == w - 1 and r == h - 1)
            sh = 2 * c
            clear = ~(15 << sh)
            nxt: set[int] = set()
            add = nxt.add
            for s in states:
                pair = (s >> sh) & 15
                if pair == 0:
                    if right_ok and down_ok:
                        add(s | (9 << sh))
                elif pair < 4:
                    # Only a left plug: keep it going down, or move it right.
                    if down_ok:
                        add(s)
                    if right_ok:
                        add(s + (3 * pair << sh))
                elif pair & 3 == 0:
                    # Only an up plug: keep it going right, or move it down.
                    if right_ok:
                        add(s)
                    if down_ok:
                        add(s - (3 * (pair >> 2) << sh))
                elif pair == 5:
                    # "((": the up plug's partner ")" becomes "(".
                    add((s & clear) ^ (3 << _partner(s, c + 1, 1)))
                elif pair == 10:
                    # "))": the left plug's partner "(" becomes ")".
                    add((s & clear) ^ (3 << _partner(s, c, -1)))
                elif pair == 6:
                    # ")(": two chains join; their outer ends stay matched.
                    add(s & clear)
                elif last_cell and s & clear == 0:
                    # "()": the two ends of one chain.  Closing it is only
                    # a solution when nothing else remains.
                    found = True
            states = nxt
            if not states:
                return found
        # Row change: the rightmost plug slot must be empty, then the
        # profile shifts one slot to make room for the new left border.
        limit = 1 << 2 * w
        states = {s << 2 for s in states if s < limit}
    return found
