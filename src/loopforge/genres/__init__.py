"""Genre puzzle types, rule verifiers and exact solvers.

Each genre module exposes a puzzle dataclass, a ``from_art`` function
that reads a tile's characters as that puzzle, a ``verify`` function
returning None or a Violation, and a ``solve`` function returning a
sat/unsat/timeout result.  The registry maps genre ids to the modules.
"""

from . import masyu, simple_loop, slitherlink, yajilin

GENRES = {
    "slitherlink": slitherlink,
    "masyu": masyu,
    "yajilin": yajilin,
    "simple-loop": simple_loop,
}
