"""Docs-consistency checks: cross-references must point at real anchors.

RL009 requires the serving surface to anchor itself with ``DESIGN.md §``
references; this suite closes the loop from the other side (DESIGN.md §10):
every section a docstring or README paragraph cites must actually exist as a
``## §N`` heading, every markdown file a source or benchmark file names must
exist, every example script the README names must exist, and the serving
runbook must stay in sync with the wire protocol's documented operations and
error codes.
"""

import re
from pathlib import Path

from repro.serving import protocol

REPO = Path(__file__).resolve().parent.parent
DESIGN = (REPO / "DESIGN.md").read_text()
README = (REPO / "README.md").read_text()

SECTION_REFERENCE = re.compile(r"DESIGN\.md\s*§(\d+)")
#: A markdown file name; one after ``--output`` is a file a command writes.
MARKDOWN_NAME = re.compile(r"(--output\s+)?(?<![\w./-])([\w./-]+\.md)\b")
SECTION_HEADING = re.compile(r"^## §(\d+) ", re.MULTILINE)


def design_sections():
    return {int(number) for number in SECTION_HEADING.findall(DESIGN)}


def referenced_sections(text):
    return {int(number) for number in SECTION_REFERENCE.findall(text)}


class TestSectionReferences:
    def test_design_headings_are_contiguous_from_one(self):
        sections = design_sections()
        assert sections == set(range(1, max(sections) + 1))

    def test_readme_references_resolve(self):
        missing = referenced_sections(README) - design_sections()
        assert not missing, f"README cites missing DESIGN.md sections: {sorted(missing)}"

    def test_source_docstring_references_resolve(self):
        sections = design_sections()
        offenders = {}
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            missing = referenced_sections(path.read_text()) - sections
            if missing:
                offenders[str(path.relative_to(REPO))] = sorted(missing)
        assert not offenders, f"dangling DESIGN.md references: {offenders}"

    def test_source_markdown_names_exist(self):
        # A docstring or comment that sends the reader to a document must
        # name one the repository has, at its root or beside the file.
        offenders = {}
        sources = [*(REPO / "src" / "repro").rglob("*.py"), *(REPO / "benchmarks").rglob("*.py")]
        for path in sorted(sources):
            missing = {
                name
                for output, name in MARKDOWN_NAME.findall(path.read_text())
                if not output and not any((root / name).is_file() for root in (REPO, path.parent))
            }
            if missing:
                offenders[str(path.relative_to(REPO))] = sorted(missing)
        assert not offenders, f"source cites missing markdown files: {offenders}"

    def test_serving_surface_is_anchored(self):
        # The §11 anchor RL009 demands must point somewhere real.
        assert 11 in design_sections()
        for name in ("server.py", "protocol.py", "batching.py", "benchmark.py"):
            text = (REPO / "src" / "repro" / "serving" / name).read_text()
            assert referenced_sections(text) <= design_sections()
            assert "DESIGN.md §" in text


class TestReadmeInventory:
    def test_named_example_scripts_exist(self):
        for match in re.finditer(r"examples/(\w+\.py)", README):
            assert (REPO / "examples" / match.group(1)).is_file(), match.group(0)

    def test_runbook_matches_wire_protocol(self):
        for code in protocol.ERROR_CODES:
            assert f"`{code}`" in README, f"error code {code} missing from README"
        serving_section = README.split("## Serving", 1)[1].split("\n## ", 1)[0]
        for knob in ("--batch-window", "--max-pending", "--tenant-quota", "--max-batch"):
            assert knob in serving_section, f"runbook is missing the {knob} knob"

    def test_design_mentions_every_operation(self):
        section_11 = DESIGN.split("## §11", 1)[1]
        for operation in protocol.OPERATIONS:
            assert f"`{operation}`" in section_11, (
                f"DESIGN.md §11 compatibility table is missing op {operation}"
            )
