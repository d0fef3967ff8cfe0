"""The environment-knob census: the ``REPRO_*`` variables the package
reads are exactly the ones README's knob table documents."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
KNOB = re.compile(r"\bREPRO_[A-Z0-9_]+")


def read_in_src():
    return {name for path in (ROOT / "src").rglob("*.py")
            for name in KNOB.findall(path.read_text())}


def documented():
    """First-column names of the table under README's knob heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Environment knobs", 1)[1]
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section,
                          re.MULTILINE))


def test_src_reads_exactly_the_documented_knobs():
    assert read_in_src() == documented() == {
        "REPRO_SHARDS", "REPRO_FAULTS", "REPRO_FAULTS_SEED"}
