"""Genre puzzle types, rule verifiers and exact solvers.

``GENRES`` maps each genre id to its module, and is the only place the
rest of the package learns the genres from.  Each module exports:

* ``PUZZLE``, its puzzle type (a ``base.ArtBoard``: one row-major byte
  grid of art, with entry views read off it), which ``formats`` finds a
  puzzle's id by;
* ``from_art(dims, cells)``, a byte grid of tile art read as that puzzle;
* ``to_json(puzzle)``, the genre's own JSON fields, each a plain JSON
  value or a ``base.Canonical`` that ``formats`` splices in, as an entry
  list by ``ArtBoard.entry_list``; ``from_json(dims, doc)``, the puzzle
  built from them (``formats`` does the genre, width and height);
* ``FRAME_OFFSET``: 1 when the loop runs on the dot lattice, so a W x H
  tile spans a (W+1) x (H+1) frame and a solution's edges are
  ``lattice_edges``; 0 when it runs on the cells;
* ``verify(puzzle, loop)``, None or the first Violation;
* ``solve(puzzle, budget_ms=None, enumerate_all=False)``, a sat, unsat
  or timeout result, or a generator of every solution.

A new genre is one such module, one descriptor file in the catalog and
one entry here.
"""

from . import masyu, simple_loop, slitherlink, yajilin

GENRES = {
    "slitherlink": slitherlink,
    "masyu": masyu,
    "yajilin": yajilin,
    "simple-loop": simple_loop,
}
