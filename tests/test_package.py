import ast
import re
import types
from pathlib import Path

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
    source = Path(metasampler.__file__).parent
    named = {name for path in source.glob("*.py")
             for name in re.findall(r"BENCH_[a-z_]+\.json", path.read_text(encoding="utf-8"))}
    assert len(named) >= 9, sorted(named)  # the scan found the source's names
    missing = sorted(name for name in named if not (REPO / name).is_file())
    assert not missing, missing
