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
"""

import hashlib
import json

import pytest

from conftest import FIXTURES, fixture_puzzle, fixture_solution
from loopforge import formats
from loopforge.cli import main
from loopforge.metacell import lift_to_cubic, reduce_to_cubic
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
