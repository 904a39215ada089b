"""The docs stay true: links resolve, spec snippets execute.

Four guarantees for the ``docs/`` tree (and README):

* every intra-repo markdown link points at a file that exists;
* every fenced ``json`` snippet in the docs parses as an
  :class:`repro.api.ExperimentSpec` and actually **runs** end to end;
* every documented ``python -m repro …`` command (README, docs, the
  benchmark guide and CI) parses with today's flags;
* the allocator/KV-cache catalogues in the docs cover every registered
  name and tunable parameter, so a new registration without docs (or
  docs for something renamed away) fails CI.
"""

import json
import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from repro import api
from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

#: The markdown we author and therefore link-check.
LINKED_PAGES = sorted(
    [REPO / "README.md", REPO / "ROADMAP.md", *DOCS.glob("*.md")],
    key=lambda p: p.name,
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```")


def _strip_code_fences(text: str) -> str:
    """Drop fenced code blocks (their brackets are not links)."""
    kept, fenced = [], False
    for line in text.splitlines():
        if _FENCE.match(line):
            fenced = not fenced
            continue
        if not fenced:
            kept.append(line)
    return "\n".join(kept)


def _fenced_blocks(path: Path, language: str):
    """Yield the bodies of ``language``-tagged fenced code blocks."""
    body, inside = [], False
    for line in path.read_text(encoding="utf-8").splitlines():
        if inside:
            if _FENCE.match(line):
                yield "\n".join(body)
                body, inside = [], False
            else:
                body.append(line)
        elif line.strip() == f"```{language}":
            inside = True


class TestDocsTreeExists:
    @pytest.mark.parametrize("name", [
        "architecture.md", "allocators.md", "serving.md", "experiments.md",
        "performance.md", "observability.md", "robustness.md",
        "memory_tiers.md",
    ])
    def test_guide_present(self, name):
        assert (DOCS / name).is_file()

    def test_readme_links_every_guide(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for name in ("architecture.md", "allocators.md", "serving.md",
                     "experiments.md", "performance.md", "observability.md",
                     "robustness.md", "memory_tiers.md"):
            assert f"docs/{name}" in readme, f"README must link docs/{name}"


class TestIntraRepoLinks:
    @pytest.mark.parametrize(
        "page", LINKED_PAGES, ids=lambda p: p.name)
    def test_links_resolve(self, page):
        text = _strip_code_fences(page.read_text(encoding="utf-8"))
        broken = []
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (page.parent / path).exists():
                broken.append(target)
        assert not broken, f"broken links in {page.name}: {broken}"


#: Where ``python -m repro …`` commands are written down for a reader.
COMMAND_PAGES = [REPO / "README.md", *sorted(DOCS.glob("*.md")),
                 REPO / "benchmarks" / "perf" / "README.md",
                 REPO / ".github" / "workflows" / "ci.yml"]
#: A shell command ends at the first of these tokens.
_SHELL_OPERATORS = {")", "|", "||", "&&", ";", ">", ">>", "<", "&"}
_COMMAND = re.compile(r"python -m repro\b((?:[^`\n\\]|\\\n|\\(?!\n))*)")


def _documented_commands():
    """(page, line, argv) of every ``python -m repro`` command: the
    rest of its line, continued over trailing backslashes, up to an
    inline-code backtick, a shell operator or a comment."""
    for page in COMMAND_PAGES:
        text = page.read_text(encoding="utf-8")
        for match in _COMMAND.finditer(text):
            lexer = shlex.shlex(match.group(1).replace("\\\n", " "),
                                posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            line = text.count("\n", 0, match.start()) + 1
            yield (f"{page.relative_to(REPO)}:{line}",
                   list(takewhile(lambda t: t not in _SHELL_OPERATORS, lexer)))


class TestDocumentedCommandsParse:
    COMMANDS = list(_documented_commands())

    @pytest.mark.parametrize("where,argv", COMMANDS,
                             ids=[where for where, _ in COMMANDS])
    def test_command_parses(self, where, argv):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{where}: `python -m repro {shlex.join(argv)}` "
                        "does not parse")


class TestSpecSnippetsRun:
    """Every fenced ``json`` block in the docs is a runnable spec."""

    SNIPPETS = [
        (path.name, idx, block)
        for path in sorted(DOCS.glob("*.md"))
        for idx, block in enumerate(_fenced_blocks(path, "json"))
    ]

    def test_docs_carry_a_worked_example_per_mode(self):
        specs = [api.ExperimentSpec.from_json(block)
                 for _, _, block in self.SNIPPETS]
        assert {spec.mode for spec in specs} == set(api.MODES)

    @pytest.mark.parametrize(
        "name,idx,block", SNIPPETS, ids=lambda v: str(v))
    def test_snippet_executes(self, name, idx, block):
        data = json.loads(block)  # malformed JSON fails loudly here
        spec = api.ExperimentSpec.from_dict(data)
        results = api.run(spec)
        assert len(results) == len(spec.allocators)
        for result in results:
            assert result.peak_reserved_bytes > 0


#: Which guide documents each component kind's catalogue.
KIND_DOC = {
    "allocator": "allocators.md",
    "kv-cache": "serving.md",
    "scheduler": "serving.md",
    "arrivals": "serving.md",
    "preemption": "serving.md",
    "autoscaler": "serving.md",
    "interconnect": "serving.md",
    "trace": "observability.md",
    "faults": "serving.md",
    "retry": "serving.md",
    "memory-tier": "serving.md",
}


class TestCataloguesAreComplete:
    def test_every_allocator_documented(self):
        text = (DOCS / "allocators.md").read_text(encoding="utf-8")
        for info in api.iter_components("allocator"):
            assert f"`{info.name}`" in text, \
                f"docs/allocators.md misses allocator {info.name!r}"
            for param in info.params:
                assert f"`{param.name}`" in text, \
                    f"docs/allocators.md misses {info.name}.{param.name}"

    def test_every_kv_cache_model_documented(self):
        text = (DOCS / "serving.md").read_text(encoding="utf-8")
        for info in api.iter_components("kv-cache"):
            assert f"`{info.name}`" in text, \
                f"docs/serving.md misses KV-cache model {info.name!r}"
            for param in info.params:
                assert f"`{param.name}`" in text, \
                    f"docs/serving.md misses {info.name}.{param.name}"

    def test_every_kind_has_a_doc_home(self):
        """A newly registered component *kind* must pick a guide."""
        assert set(api.component_kinds()) == set(KIND_DOC)

    @pytest.mark.parametrize("kind", sorted(KIND_DOC))
    def test_every_component_documented(self, kind):
        """Each kind's guide names every registered component, its
        aliases and every tunable parameter."""
        doc = KIND_DOC[kind]
        text = (DOCS / doc).read_text(encoding="utf-8")
        for info in api.iter_components(kind):
            assert f"`{info.name}`" in text, \
                f"docs/{doc} misses {kind} {info.name!r}"
            for alias in info.aliases:
                assert f"`{alias}`" in text, \
                    f"docs/{doc} misses {kind} alias {alias!r}"
            for param in info.params:
                assert f"`{param.name}`" in text, \
                    f"docs/{doc} misses {kind} {info.name}.{param.name}"
