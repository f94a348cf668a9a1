"""Byte-identity guard for the reduction pipeline on the BSL fixture.

Each digest is the SHA-256 of canonical JSON (``formats.dumps_canonical``)
produced from ``bsl_example`` and its solution: the image puzzle, the
manifest and the lifted solution of the cubic stage and of every genre,
plus the ``roundtrip`` report without its wall-clock ``timing_ms``.  Any
change to placement, lifting or serialisation shows up here.

``BROKEN`` covers the rejecting path: the digest of ``loopforge verify``
output for each fixture solution with its first edge dropped.  The
dropped edge leaves two cells (dots) of degree 1 and the smaller one is
reported; these digests were taken from the verifiers before they moved
to flat ids, in a run where that older code (whose choice followed set
iteration order) also reported the smaller one.

``CERTIFY`` pins the canonical JSON of ``loopforge certify`` for each
genre without its wall-clock ``elapsed_ms``, and ``SOLVE`` the stdout of
``loopforge solve`` on each example fixture.

``BANK`` pins the metacell's six covering tours, as canonical JSON of
each opening pair ("N-E", ...) and its sorted edges.  The fixture lifts
only three pairs, so the digests above would miss a changed tour on the
other three.

``CORPUS`` pins each stage over the seeded sources of ``_corpus``: 1xk
strips, barless boards, random bar shares from 0.2 to 0.6, bar graphs
with a cycle and degenerate sources.  One digest per stage covers the
canonical JSON of every source's ``reduce_to_cubic`` image and manifest,
of every cubic source's ``reduce_to_genre`` image and manifest for each
genre, with the lift of the source's least solution where it has one,
and of ``orient(...)`` on every cubic source, as its
sorted ``[col, row, side]`` triples or the error it raises.  The
fixture alone reaches few orientation walks and few tile geometries.
"""

import hashlib
import json
import random

import pytest

from conftest import FIXTURES, fixture_puzzle, fixture_solution, internal_edges, sides_by_cell
from loopforge import formats
from loopforge.bsl import BslPuzzle, CubicBslPuzzle, check_cubic, solve_bsl_backtrack
from loopforge.cli import main
from loopforge.errors import ReductionError
from loopforge.grid import SIDES, GridDims, edge_cells, edge_sort_key, side_edge
from loopforge.metacell import default_metacell, lift_to_cubic, project_from_cubic, reduce_to_cubic
from loopforge.orientation import orient
from loopforge.reduction import lift_to_genre, reduce_to_genre

GOLDEN = {
    "cubic": {
        "image": "771c2da4807eeef3ec2036da718fa4d028237c1b975292c033f1f45d8e3f3353",
        "manifest": "e813182f92371d7c41e6bafcf2b4d9621c3607c84516d4500993daf06f07a817",
        "solution": "8fb0ebe126671505fa613536af7569cb84cf5401f7645e0e0aa058693659cf1e",
    },
    "slitherlink": {
        "image": "f0060de7f2f18bc291f27b967eb343f7c18788dea840bfd7fe2a237c580d2d01",
        "manifest": "1d86233e4974709cec6392f487001ad0e437d081a17cb5a2f408cb0eb743d3a7",
        "solution": "5d8d314273cb4847121817c925b6b5d29fd1d231df89f6e7c28a3bd8588fe1e9",
    },
    "masyu": {
        "image": "bcefb5d5fcb777ebb9db68ae6a13598e5961d362e577453b5eff12d9fe62bff7",
        "manifest": "b6fa03c558c47897a5d0a7cf288d040d4fa8c30a2ef8a7145fa14439e223d47d",
        "solution": "cffd107342ab7f8e10b3e9533d1ad60636b91e982d6593dc0b22185c57a10bcf",
    },
    "yajilin": {
        "image": "0d85264ffc83ed3d05e64feae6345396b794c44c4c634a3c15b5eb6b7881522c",
        "manifest": "9497aeab0a6b9075a934f173cbc2b1e1e21f43c8b885e86a295ad667f2ae8ae4",
        "solution": "5f857cb7a3f351a3736c950f52f9d8389982b6b7140be61cd81df0dd8584b5c4",
    },
    "simple-loop": {
        "image": "1b7dfacb2947ccb10289175e050d6e81841619c5380fa5e03f1452f1824b92a7",
        "manifest": "849abee66dc7c0d9ac05b501f7b5734204d156ce6454bf7d918f5de15cf15ee8",
        "solution": "6b68a26b68e713c3eea60d4bcf38256db3e7dfa634331eb2eaf0f9dc1a679007",
    },
}
ROUNDTRIP = {
    "slitherlink": "05c041ab9020dc416a9480577f4a5a8622bc9fdb8cecd7bd6640ccabab968b5e",
    "masyu": "8837e6c9e7057e8f39d219d5d2b1bbbc9b09f8f9ff63593dd94606add62c6516",
    "yajilin": "e3d986d99d7d36d508cffff14e004a674c7499947f7772b5b01735525ee280b3",
    "simple-loop": "e5259d386f7ed91433f61bceda4828a30e56d9998ae8966808deb3cd8d9aedfa",
}

BROKEN = {
    "bsl_example": "479dcafc94bd9f83bdfaf8fc71ff9acbe410ec37330488efd941580489668c6b",
    "cubic_example": "479dcafc94bd9f83bdfaf8fc71ff9acbe410ec37330488efd941580489668c6b",
    "masyu_example": "479dcafc94bd9f83bdfaf8fc71ff9acbe410ec37330488efd941580489668c6b",
    "simple_loop_example": "479dcafc94bd9f83bdfaf8fc71ff9acbe410ec37330488efd941580489668c6b",
    "slitherlink_example": "c75d8447a647584481ba79968a4e3aa8f83fe44c5f0fa85f9abcc32394f410ba",
    "yajilin_example": "5f7900c3e517c0105696f65ebbb9dca70b34e0400688895b31d0f53ac33bc171",
}

CERTIFY = {
    "masyu": "50560dbe3ab8056b8f2471d547297221697329b0f710e1aa85723b64edfd9352",
    "simple-loop": "f349af80bf059b3f052f45b0863bf2b995b0f9813a76e2cd67e7725c6ddae87e",
    "slitherlink": "72a2831c333552691328e2e1a82458ea5131889fe24b06bfd5f6505c1eb128cb",
    "yajilin": "010167e133905831ef111650b95e161de5395310d97f5cca76b989aa5a220c3f",
}

SOLVE = {
    "bsl_example": "e3d557f042acaa0b02e88421def8c3184ba5299efec8d68e18a42c099eb6d84e",
    "cubic_example": "65ffa0abcbfce88de9c6b2889ad0db3ba23077d305fe7a15d6a7a53b4eeec9d5",
    "masyu_example": "5373f4a137add8a881a05bea8389157738efdcf49f31928387482e7a5b3480fa",
    "simple_loop_example": "486cd12bdac9b6a441528e985e9f27016aacfaeaf42816eed44bd3c3cdae46aa",
    "slitherlink_example": "148382c1d37534c1974676a2dee7d8e97129f48c017366f392d4d02619255904",
    "yajilin_example": "3a27bb1b2bd65e64ddf0d4921083252d571fdc503b1d0834720c3b7f950a9853",
}

BANK = "4279e4223b4a9a021bddb9bbe865cb185d8ee0167962452683a71c81c2db9c56"

CORPUS = {
    "cubic": "564405507bd6d81ba566aff0706397234598a3041162cf4d8d5d1104f45c85dc",
    "masyu": "dd26227fe78d86754ae402024b9d2a247644f46ad2ddaf91f5e81b15666fbb13",
    "orient": "b683ca179956b9392479907a0b9d7e24f6f2db3e77314ef7ce711d8b565a90c1",
    "simple-loop": "58600ba0f557542dc5ffbc898861f1bcaa1a09c6ce86ae3f67e166747460a385",
    "slitherlink": "c031890b6dd84436f5ea8eb0f7e984fb0bd68cd463d1029888bae112b0a49cc3",
    "yajilin": "a9da1a26879402c78d873dde11387cca34e10ec196c5c20c909ee4aedba0f7f9",
}


def _digest(doc: dict) -> str:
    return hashlib.sha256(formats.dumps_canonical(doc).encode("utf-8")).hexdigest()


def _pipeline_digests() -> dict[str, dict[str, str]]:
    source = fixture_puzzle("bsl_example")
    cubic, cman = reduce_to_cubic(source)
    cubic_sol = lift_to_cubic(cman, fixture_solution("bsl_example"))
    out = {
        "cubic": {
            "image": _digest(formats.puzzle_to_json(cubic)),
            "manifest": _digest(formats.manifest_to_json(cman)),
            "solution": _digest(formats.solution_to_json("cubic-bsl", cubic_sol)),
        }
    }
    for genre in ("slitherlink", "masyu", "yajilin", "simple-loop"):
        board, gman = reduce_to_genre(cubic, genre)
        lifted = lift_to_genre(gman, cubic_sol)
        out[genre] = {
            "image": _digest(formats.puzzle_to_json(board)),
            "manifest": _digest(formats.manifest_to_json(gman)),
            "solution": _digest(formats.solution_to_json(genre, lifted)),
        }
    return out


@pytest.fixture(scope="module")
def digests():
    return _pipeline_digests()


@pytest.mark.parametrize("stage", sorted(GOLDEN))
def test_pipeline_json_byte_identical(stage, digests):
    assert digests[stage] == GOLDEN[stage]


@pytest.mark.parametrize("genre", sorted(ROUNDTRIP))
def test_roundtrip_report_byte_identical(genre, capsys):
    assert main(["roundtrip", str(FIXTURES / "bsl_example.json"), "--genre", genre]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing_ms"]
    assert _digest(report) == ROUNDTRIP[genre]


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_verify_rejection_byte_identical(name, tmp_path, capsys):
    doc = json.loads((FIXTURES / f"{name}_solution.json").read_text(encoding="utf-8"))
    key = "lattice_edges" if "lattice_edges" in doc else "edges"
    doc[key] = doc[key][1:]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(FIXTURES / f"{name}.json"), str(broken)]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == BROKEN[name]


@pytest.mark.parametrize("genre", sorted(CERTIFY))
def test_certify_report_byte_identical(genre, capsys):
    assert main(["certify", "--genre", genre]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["elapsed_ms"]
    assert _digest(report) == CERTIFY[genre]


@pytest.mark.parametrize("name", sorted(SOLVE))
def test_solve_output_byte_identical(name, capsys):
    assert main(["solve", str(FIXTURES / f"{name}.json")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == SOLVE[name]


def test_metacell_bank_byte_identical():
    doc = {
        "-".join(side for side in SIDES if side in pair): [list(e) for e in sorted(edges, key=edge_sort_key)]
        for pair, edges in default_metacell().bank.items()
    }
    assert _digest(doc) == BANK


def _random_source(rng: random.Random, dims: GridDims, share: float, cubic: bool) -> BslPuzzle:
    """Bars on about ``share`` of the internal edges, none leaving a cell
    fewer than two open sides; with ``cubic``, each cell still open on
    four sides then gets one more bar, toward a neighbour that can spare
    a side where there is one."""
    edges = internal_edges(dims)
    rng.shuffle(edges)
    bars: set = set()
    left = {cell: len(sides) for cell, sides in sides_by_cell(BslPuzzle(dims, frozenset())).items()}
    for edge in edges:
        a, b = edge_cells(edge)
        if rng.random() < share and left[a] > 2 and left[b] > 2:
            bars.add(edge)
            left[a] -= 1
            left[b] -= 1
    for cell in dims.cells() if cubic else ():
        if left[cell] == 4:
            spare = [e for e in (side_edge(cell, side) for side in SIDES) if min(left[x] for x in edge_cells(e)) > 2]
            edge = rng.choice(spare or [side_edge(cell, side) for side in SIDES])
            bars.add(edge)
            for x in edge_cells(edge):
                left[x] -= 1
    return BslPuzzle(dims, frozenset(bars))


def _corpus() -> list[BslPuzzle]:
    """41 seeded sources for the ``CORPUS`` pins."""
    barless = [(1, 1), (1, 2), (1, 5), (2, 1), (4, 1), (2, 2), (2, 3), (3, 2), (2, 5), (3, 3), (4, 4)]
    sources = [BslPuzzle(GridDims(w, h), frozenset()) for w, h in barless]
    rng = random.Random(14)
    for share in (0.2, 0.3, 0.4, 0.5, 0.6):
        for k in range(4):
            dims = GridDims(rng.randint(2, 6), rng.randint(2, 6))
            sources.append(_random_source(rng, dims, share, cubic=k > 0))
    # Bar graphs with a cycle: a six-cell ring of bars, a square, two squares.
    ring = {("v", 1, 3), ("h", 1, 3), ("h", 1, 2), ("h", 1, 1), ("v", 1, 1),
            ("h", 2, 3), ("h", 2, 2), ("h", 2, 1), ("v", 3, 1), ("v", 4, 2)}
    square = {("h", 1, 1), ("v", 1, 1), ("h", 1, 2), ("v", 2, 1)}
    sources.append(BslPuzzle(GridDims(5, 5), frozenset(ring)))
    sources.append(BslPuzzle(GridDims(4, 4), frozenset(square)))
    sources.append(BslPuzzle(GridDims(6, 4), frozenset(square | {("h", 3, 1), ("v", 3, 1), ("h", 3, 2), ("v", 4, 1)})))
    # Degenerate: cells with one or no open side.
    sources.append(BslPuzzle(GridDims(2, 2), frozenset({("h", 0, 0)})))
    sources.append(BslPuzzle(GridDims(3, 3), frozenset({("h", 0, 1), ("h", 1, 1), ("v", 1, 0)})))
    sources.append(BslPuzzle(GridDims(3, 2), frozenset({("h", 0, 0), ("v", 0, 0)})))
    for _ in range(4):
        source = _random_source(rng, GridDims(rng.randint(3, 5), rng.randint(3, 5)), 0.3, cubic=True)
        cell = (rng.randrange(source.dims.width), rng.randrange(source.dims.height))
        walls = sorted((side_edge(cell, side) for side in sides_by_cell(source)[cell]), key=edge_sort_key)
        sources.append(BslPuzzle(source.dims, source.bars | frozenset(walls[1:])))
    return sources


def _corpus_digests() -> dict[str, str]:
    docs: dict[str, list] = {stage: [] for stage in CORPUS}
    for source in _corpus():
        solution = solve_bsl_backtrack(source).solution
        image, manifest = reduce_to_cubic(source)
        doc = {"image": formats.puzzle_to_json(image), "manifest": formats.manifest_to_json(manifest)}
        if solution is not None:
            lifted = lift_to_cubic(manifest, solution)
            assert project_from_cubic(manifest, lifted) == solution
            doc["solution"] = formats.solution_to_json("cubic-bsl", lifted)
        docs["cubic"].append(doc)
        if check_cubic(source):
            continue
        cubic = CubicBslPuzzle(source)
        for genre in ("slitherlink", "masyu", "yajilin", "simple-loop"):
            board, gman = reduce_to_genre(cubic, genre)
            doc = {"image": formats.puzzle_to_json(board), "manifest": formats.manifest_to_json(gman)}
            if solution is not None:
                doc["solution"] = formats.solution_to_json(genre, lift_to_genre(gman, solution))
            docs[genre].append(doc)
        try:
            directions = orient(cubic)
            docs["orient"].append(sorted([c, r, side] for (c, r), side in directions.items()))
        except ReductionError as exc:
            docs["orient"].append({"error": str(exc)})
    return {stage: _digest({"cases": cases}) for stage, cases in docs.items()}


@pytest.fixture(scope="module")
def corpus_digests():
    return _corpus_digests()


@pytest.mark.parametrize("stage", sorted(CORPUS))
def test_corpus_stage_byte_identical(stage, corpus_digests):
    assert corpus_digests[stage] == CORPUS[stage]
