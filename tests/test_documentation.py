"""Documentation gates: every public surface carries real docstrings and
the repo-level documents stay in sync with the code."""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).resolve().parents[2].parent
DOCS_ROOT = Path(repro.__file__).resolve().parents[1].parent.parent


def iter_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    missing = [
        m.__name__
        for m in iter_modules()
        if not (m.__doc__ and m.__doc__.strip())
    ]
    assert missing == [], f"modules without docstrings: {missing}"


def test_public_classes_documented():
    missing = []
    for module in iter_modules():
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not (obj.__doc__ and obj.__doc__.strip())
            ):
                missing.append(f"{module.__name__}.{name}")
    assert missing == [], f"classes without docstrings: {missing}"


def test_public_functions_documented():
    missing = []
    for module in iter_modules():
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not (obj.__doc__ and obj.__doc__.strip())
            ):
                missing.append(f"{module.__name__}.{name}")
    assert missing == [], f"functions without docstrings: {missing}"


class TestRepoDocuments:
    def docs_dir(self):
        # repo root = parent of src/
        return Path(repro.__file__).resolve().parents[2]

    def test_required_documents_exist(self):
        root = self.docs_dir()
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (root / doc).exists(), f"missing {doc}"
        assert (root / "docs" / "internals.md").exists()
        assert (root / "docs" / "dsl_reference.md").exists()
        assert (root / "docs" / "timing_model.md").exists()
        assert (root / "LICENSE").exists()
        assert (root / "CHANGELOG.md").exists()
        assert (root / "CONTRIBUTING.md").exists()

    def test_design_references_real_modules(self):
        root = self.docs_dir()
        text = (root / "DESIGN.md").read_text()
        for module in (
            "declare_target",
            "rename_main",
            "rpc_lowering",
            "ensemble_loader",
            "figure6",
            "paper_data",
        ):
            assert module in text, f"DESIGN.md no longer mentions {module}"

    def test_experiments_references_benchmarks(self):
        root = self.docs_dir()
        text = (root / "EXPERIMENTS.md").read_text()
        for bench in ("test_figure6b", "test_ablation_mechanisms"):
            assert bench in text

    def test_examples_listed_in_readme_exist(self):
        root = self.docs_dir()
        readme = (root / "README.md").read_text()
        examples = root / "examples"
        for line in readme.splitlines():
            for token in line.split("`"):
                if token.endswith(".py") and "/" not in token:
                    if "examples" in line:
                        assert (examples / token).exists(), token

    def test_equivalence_contract_table_matches_the_oracle(self):
        """docs/internals.md's contract table lists exactly the oracle's
        axes, each with the fields ``tests.oracle.PRESERVES`` gives it."""
        from tests.oracle import PRESERVES

        text = (self.docs_dir() / "docs" / "internals.md").read_text()
        section = text.split("## 9. Equivalence contract", 1)[1]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[0].startswith("`"):
                rows[cells[0].strip("`")] = tuple(cells[1].replace("`", "").split())
        assert rows == {axis: tuple(f) for axis, f in PRESERVES.items()}

    def test_cache_key_table_matches_the_key(self):
        """docs/compilecache.md's key table lists exactly the fields of
        ``CacheKey``, in order."""
        from repro.compilecache import CacheKey

        text = (self.docs_dir() / "docs" / "compilecache.md").read_text()
        section = text.split("## The key scheme", 1)[1].split("\n## ", 1)[0]
        rows = []
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 2 and cells[0].startswith("`"):
                rows.append(cells[0].strip("`"))
        assert rows == [f.name for f in dataclasses.fields(CacheKey)]
