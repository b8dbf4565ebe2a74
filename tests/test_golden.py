"""The solver's answers on a fixed corpus match those pinned in
tests/data/golden.json (see tests/golden.py, which writes the file)."""

import json

import golden


def test_answers_match_the_golden_file():
    want = json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))
    got = list(golden.answers())
    assert [e["id"] for e in got] == [e["id"] for e in want]
    changed = [(w["id"], w, g) for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} answers changed; first: {changed[:3]}"
