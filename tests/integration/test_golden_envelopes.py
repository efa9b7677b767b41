"""The golden envelope corpus: pinned ``--json`` bytes of the commands a
refactor must not move.

Each fixture under ``tests/golden/envelopes/`` is recomputed in-process
through ``repro.cli.main`` by the same code that writes it
(``tools/regen_golden_traces.py``), from cold memos, and compared byte
for byte.  The regeneration tool documents which volatile fields (memo
counters, serve timings) the fixtures leave out and why.  A deliberate numeric change shows up as a
fixture diff from that tool.
"""

import importlib.util
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
TOOL = REPO / "tools" / "regen_golden_traces.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("regen_golden_traces", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGEN = _load_tool()


def test_every_fixture_has_a_command():
    on_disk = {path.name for path in REGEN.ENVELOPE_DIR.glob("*.json")}
    assert on_disk == set(REGEN.ENVELOPES)


@pytest.mark.parametrize("fixture", sorted(REGEN.ENVELOPES))
def test_envelope_bytes_match_fixture(fixture, tmp_path):
    expected = (REGEN.ENVELOPE_DIR / fixture).read_text()
    assert REGEN.envelope_text(fixture, tmp_path) == expected
