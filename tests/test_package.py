import ast
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import metasampler

# what the CLI, the demos, README and the benchmark call, and the errors a user catches
PUBLIC = [
    "ClassTooSmallError",
    "ColumnNotFoundError",
    "ConfigError",
    "DataError",
    "DecisionTree",
    "EmptyDataError",
    "FeatureParseError",
    "GaussianNaiveBayes",
    "LabelDomainError",
    "LabeledDataset",
    "NumericalError",
    "PolicyActionSource",
    "SacConfig",
    "SamplerFormatError",
    "SingleClassError",
    "SplitSpec",
    "ToySpec",
    "aucprc",
    "inject_flip_noise",
    "load_csv",
    "load_sampler",
    "make_toy",
    "meta_train",
    "random_sampler",
    "save_csv",
    "save_sampler",
    "score_arms",
    "stratified_split",
    "train_ensemble",
    "train_random_ensemble",
]

REPO = Path(__file__).resolve().parents[1]
BENCH_RUN = REPO / "bench" / "run.py"
SOURCE = Path(metasampler.__file__).parent

# public definitions kept with no caller: the learned policy's mean action is
# an arm the multi-seed report still needs (ROADMAP items 1 and 2)
UNCALLED = ["sac.deterministic_action"]


def test_exports_are_the_sorted_public_names():
    assert metasampler.__all__ == sorted(metasampler.__all__) == PUBLIC


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from metasampler import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_every_name_the_benchmark_reads_is_exported():
    # bench/run.py binds the package as `ms`; a submodule it reaches through
    # (ms.sac) is imported with the package, every other name must be exported
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "ms"
    }
    assert "meta_train" in read  # the parse found the benchmark's calls
    names = {name for name in read
             if not isinstance(getattr(metasampler, name, None), types.ModuleType)}
    assert names <= set(metasampler.__all__), sorted(names - set(metasampler.__all__))


def test_every_bench_file_the_source_names_exists():
    # a kept constraint names the BENCH_*.json that measured it; a misspelled name fails here
    named = {name for path in SOURCE.glob("*.py")
             for name in re.findall(r"BENCH_[a-z_]+\.json", path.read_text(encoding="utf-8"))}
    assert len(named) >= 9, sorted(named)  # the scan found the source's names
    missing = sorted(name for name in named if not (REPO / name).is_file())
    assert not missing, missing


def code_names(tree):
    """How often each name occurs as code: a name, an attribute or an imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


@pytest.mark.parametrize("text, count", [
    ("f(train_ensemble)", 1),
    ("ensemble.train_ensemble(x)", 1),
    ("from metasampler.ensemble import train_ensemble as fit", 1),
    ("import metasampler.ensemble.train_ensemble", 1),
    ('def f():\n    """Calls train_ensemble."""\n    return "train_ensemble"  # train_ensemble', 0),
])
def test_code_names_count_code_and_not_text(text, count):
    assert code_names(ast.parse(text))["train_ensemble"] == count


def test_every_public_definition_is_exported_or_called():
    # a public function or class of src that only tests call is a test oracle:
    # it belongs in tests/conftest.py, not in the library
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SOURCE.glob("*.py"))}
    callers = [path.read_text(encoding="utf-8")
               for pattern in ("bench/*.py", "demos/*.py") for path in sorted(REPO.glob(pattern))]
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    callers += re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    used = sum((code_names(ast.parse(text)) for text in callers), Counter())
    used += sum((code_names(tree) for tree in modules.values()), Counter())
    assert len(callers) > 8 and used["train_ensemble"] > 1  # the scan read the callers
    uncalled = []
    for module, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and node.name not in metasampler.__all__
                    and used[node.name] == code_names(node)[node.name]):
                uncalled.append(f"{module}.{node.name}")
    assert uncalled == UNCALLED
