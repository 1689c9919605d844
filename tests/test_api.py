import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import pytest

import mcombine
import mcombine.cli

SUBMODULES = [f"mcombine.{m.name}" for m in pkgutil.iter_modules(mcombine.__path__)]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", ["mcombine", *SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


#: The top-level API, pinned so that any name added to or dropped from
#: ``mcombine.__all__`` shows up as a change to this list.
TOP_LEVEL_API = [
    "ADDITIVE", "MULTIPLICATIVE", "PHASE", "EXPONENTIAL",
    "CombineOutput", "DataBatch", "DomainError", "ErrorBatch", "EstimateResult",
    "ExperimentConfig", "MapResult", "MapSpec", "Normal", "NumericalError",
    "RngStream", "ScalarKernel", "ScalarScenario", "TransformOutput", "TwoPoint",
    "Uniform", "bias_factor_alternative", "bias_factor_current", "combine",
    "cross_covariance", "dist_from_json", "dist_to_json", "estimate_combine_bias",
    "estimate_mean_variance", "estimate_target_variance_oracle", "estimate_vardiff",
    "gauss_legendre", "kernel_from_json", "kernel_to_json", "mean_variance_gap",
    "moments", "relbias_alternative", "relbias_current", "run_map", "sample",
    "sample_covariance", "scaled_rotation_factor", "sym_eigendecompose",
    "synthesis_input_variance_gap", "target_variance", "transform_stage",
    "var_of_sample_variance_normal", "verify_lemma",
]


def test_top_level_api_is_the_pinned_list():
    assert mcombine.__all__ == TOP_LEVEL_API


#: The parameters with a default (the knobs) of each function and class in
#: ``mcombine.__all__`` that has any, pinned so that a knob added or dropped
#: shows up as a change to this dict.
PUBLIC_KNOBS = {
    "EstimateResult": ["analytic_reference", "extras"],
    "ExperimentConfig": ["trials", "scenario", "master_seed", "salt", "block_size", "workers",
                         "lemma_id", "lemma_u2", "lemma_n"],
    "MapSpec": ["alpha", "lo", "hi", "n", "j"],
    "RngStream": ["path"],
    "ScalarKernel": ["fn"],
    "TwoPoint": ["p"],
    "run_map": ["relative"],
}


#: The option strings of each CLI subcommand, in declaration order, pinned
#: so that a flag added or dropped shows up as a change to this dict.
CLI_FLAGS = {
    "pipeline": ["-h", "--help", "--config", "--out", "--format", "--data", "--model", "--nu",
                 "--s-dist", "--q", "--construction", "--seed"],
    "bias-sweep": ["-h", "--help", "--config", "--out", "--format", "--seed", "--trials",
                   "--workers", "--block-size", "--model", "--j", "--q", "--y-dist", "--s-dist",
                   "--alpha", "--construction"],
    "psi-map": ["-h", "--help", "--config", "--out", "--format", "--model", "--alpha", "--grid"],
    "relbias-map": ["-h", "--help", "--config", "--out", "--format", "--model", "--alpha",
                    "--grid", "--j"],
    "vardiff": ["-h", "--help", "--config", "--out", "--format", "--seed", "--trials", "--workers",
                "--block-size", "--model", "--j", "--q", "--y-dist", "--s-dist", "--alpha"],
    "lemmas": ["-h", "--help", "--config", "--out", "--format", "--seed", "--trials", "--workers",
               "--block-size", "--id", "--u2", "--n"],
    "mean-var": ["-h", "--help", "--config", "--out", "--format", "--seed", "--trials",
                 "--workers", "--block-size", "--model", "--j", "--q", "--y-dist", "--s-dist",
                 "--alpha"],
}


def test_cli_flags_are_the_pinned_dict():
    parser = mcombine.cli.build_parser()
    (subs,) = (a for a in parser._actions if isinstance(a, mcombine.cli.argparse._SubParsersAction))
    flags = {cmd: [o for a in sub._actions for o in a.option_strings]
             for cmd, sub in subs.choices.items()}
    assert flags == CLI_FLAGS


def _knobs(obj):
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # exception classes have no Python signature
        return []
    return [p.name for p in params if p.default is not p.empty]


def test_public_knobs_are_the_pinned_dict():
    objs = {name: getattr(mcombine, name) for name in mcombine.__all__}
    knobs = {name: _knobs(obj) for name, obj in objs.items()
             if inspect.isfunction(obj) or inspect.isclass(obj)}
    assert {name: k for name, k in knobs.items() if k} == PUBLIC_KNOBS
    assert list(inspect.signature(mcombine.sample).parameters) == ["dist", "n", "stream"]


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    if not path.is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_wrapped_name():
    # the benchmark's tracer wraps functions by module attribute name; a
    # renamed or removed one fails here instead of in a traced benchmark run
    tracer = _perfbench_module("spans").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def _package_reads():
    """(module, name) for every module-level name one package module reads
    from another, by ``from .module import name`` or as ``module.name``."""
    reads = set()
    for path in Path(mcombine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reads |= {(f"mcombine.{node.module}", a.name) for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads.add((f"mcombine.{node.value.id}", node.attr))
    return reads


def _unused_module_names(module):
    """The names a module's source imports (``__future__`` aside) or assigns
    at module level (dunder names aside) that it neither reads nor lists in
    its ``__all__``."""
    tree = ast.parse(Path(module.__file__).read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return bound - read - set(getattr(module, "__all__", ()))


def test_every_import_is_used_exported_or_wrapped_by_the_benchmark():
    # a name imported or assigned at module level only so that the
    # benchmark's tracer can wrap it is pinned here, so that each one shows
    # up as a change to this set
    tracer = _perfbench_module("spans").Tracer()
    wrapped = {(owner.__name__, attr) for owner, attr, *_ in tracer._targets()}
    read_elsewhere = _package_reads()
    only_wrapped = set()
    for name in ["mcombine", *SUBMODULES]:
        for attr in _unused_module_names(importlib.import_module(name)):
            if (name, attr) in read_elsewhere:
                continue
            assert (name, attr) in wrapped, f"{name} binds {attr} and nothing reads it"
            only_wrapped.add((name, attr))
    assert only_wrapped == {("mcombine.analytics", "sample"),
                            ("mcombine.experiments", "cross_covariance"),
                            ("mcombine.pipeline", "combine_current"),
                            ("mcombine.pipeline", "combine_alternative")}


def test_benchmark_workloads_build_and_run_against_this_api(tmp_path):
    # the benchmark imports names from mcombine, passes the CLI flags of its
    # ops and builds ExperimentConfig objects in its pool probe; a removed
    # name, flag or keyword fails here instead of in a benchmark run
    workloads = _perfbench_module("workloads")
    parser = mcombine.cli.build_parser()
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 0, tmp_path / name).ops:
            parser.parse_args(op.argv)
    _perfbench_module("spans").pool_overhead_ms(0, repeats=1)


def _readme_commands():
    """Every ``mcombine …`` command in the README's sh blocks, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mcombine ")]


def test_readme_examples_parse_against_this_cli():
    # a renamed flag or a dropped choice fails here instead of in a reader's shell
    commands = _readme_commands()
    assert len(commands) >= 4
    parser = mcombine.cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    # the demos take seconds to run, so they are parsed, not run: every
    # mcombine name a demo imports must still exist
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] != "mcombine":
                continue
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mcombine":
                    importlib.import_module(alias.name)
    assert missing == []
