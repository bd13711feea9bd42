"""README.md's examples run as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block(text: str) -> str:
    """The first python block under the "Library use" heading."""
    section = text.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_example_ranks_lawyers_and_finds_communities():
    scope: dict = {}
    exec(compile(library_block(README.read_text(encoding="utf-8")), "README.md", "exec"), scope)
    assert scope["rows"] and scope["partition"].sizes
    # the ranking prints the scores, highest first
    scores = [row.pagerank for row in scope["rows"]]
    assert scores == sorted(scores, reverse=True)
