"""The benchmark tracer keys on package names; each of them must still exist.

``perfbench/tracing.py`` finds what to wrap by name and reads its per-layer
metrics back by name. A deleted or renamed function would not break it; its
metrics would just read zero. This test imports the tracer as it is and
checks every function, class method and bound parameter it names, then runs
two small traced solves to check that its stage accounting adds up.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import robustpca as rp

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(short):
    return importlib.import_module(f"robustpca.{short}")


def _lookups(tree):
    """Span names that ``layer_metrics`` and the per-call counters look up."""
    fn = next(n for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics")
    local = {}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)):
            local[node.targets[0].id] = node.value.value

    def value(expr):
        if isinstance(expr, ast.Constant):
            return expr.value
        if isinstance(expr, ast.Name):
            # None for loop variables (``self_by[nm]``): no fixed name.
            return local.get(expr.id)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return value(expr.left) + value(expr.right)
        raise AssertionError(f"unreadable lookup {ast.dump(expr)}")

    names = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in ("calls_by", "self_by", "total_by", "rows_by")):
            names.add(value(node.slice))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "in_ancestry"):
            names.add(value(node.args[1]))
        elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) \
                and node.left.id == "nm":
            names.update(value(c) for c in node.comparators)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "originals"):
            names.add(value(node.slice))
    names.discard(None)
    return names


def _check_name(tracing, name):
    parts = name.split(".")
    assert parts[0] in tracing.TRACED_MODULES, name
    mod = _module(parts[0])
    if len(parts) == 2:
        fn = getattr(mod, parts[1], None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
        wrapped = list(getattr(mod, "__all__", ())) + list(
            tracing.EXTRA_FUNCTIONS.get(parts[0], ()))
        assert parts[1] in wrapped, f"{name} is not wrapped by the tracer"
        return fn
    assert len(parts) == 3, name
    cls = getattr(mod, parts[1], None)
    assert inspect.isclass(cls), name
    fn = vars(cls).get(parts[2])
    assert inspect.isfunction(fn), name
    return fn


def test_wrapped_modules_functions_and_methods_exist(tracing):
    for short in tracing.TRACED_MODULES:
        mod = _module(short)
        for attr in getattr(mod, "__all__", ()):
            assert hasattr(mod, attr), f"{short}.__all__ lists missing {attr}"
    for short, names in tracing.EXTRA_FUNCTIONS.items():
        for attr in names:
            _check_name(tracing, f"{short}.{attr}")
    for (short, cls_name), methods in tracing.CLASS_METHODS.items():
        for attr in methods:
            _check_name(tracing, f"{short}.{cls_name}.{attr}")
    for short, cls_name in tracing.SUITES:
        assert inspect.isclass(getattr(_module(short), cls_name, None))


def test_every_keyed_name_exists(tracing):
    tree = ast.parse(TRACING.read_text())
    names = (set(tracing._STAGE_OF) | set(tracing._AFTER) | set(tracing._BIND)
             | _lookups(tree))
    assert "linops.power_iteration" in names  # the walk above saw layer_metrics
    suites = {f"{short}.{cls}" for short, cls in tracing.SUITES}
    for name in sorted(names):
        fn = _check_name(tracing, name)
        if name.rsplit(".", 1)[0] in suites:
            # The tracer wraps only the public methods of a suite.
            assert not fn.__name__.startswith("_"), name


def test_bound_parameters_exist(tracing):
    # Counters read arguments by parameter name (``bound["tail"]``) for the
    # functions the tracer binds.
    tree = ast.parse(TRACING.read_text())
    counters = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    checked = 0
    for name in tracing._BIND:
        counter = counters[tracing._AFTER[name].__name__]
        params = inspect.signature(_check_name(tracing, name)).parameters
        for node in ast.walk(counter):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "bound"):
                assert node.slice.value in params, f"{name} lost {node.slice.value!r}"
                checked += 1
    assert checked >= 4


def test_traced_solves_attribute_every_streamed_sample(tracing):
    # One small stream solve and one small batch solve under the installed
    # tracer: every streamed row lands in exactly one stage, no power chain
    # is reported as collapsed, and the certificates are seen.
    spec = rp.InlierSpec(dim=8, diag=1.0, spikes=((0, 9.0),))
    adv = rp.AdversarySpec(kind=rp.AdversaryKind.ORTHOGONAL_SPIKE, rate=0.035,
                           spike_axis=1)
    pool = rp.tv_contaminated_source(spec, adv, rp.rng_stream(0, 1)).draw(50_000)
    points, _labels = rp.gen_inliers(spec, 2_000, rp.rng_stream(0, 2))
    tracer = tracing.Tracer(rp)
    tracer.install()
    try:
        _res, stats = rp.streaming_robust_pca(
            rp.ReplaySource(pool, mode="cycle"), eps=0.03, gamma=0.6, r_radius=1.5,
            rng_seed=0, max_samples=20_000_000)
        rp.robust_pca(rp.WeightedDataset(points), eps=0.0, gamma=0.4, rng_seed=0)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    staged = sum(v for k, v in metrics.items() if k.startswith("stages."))
    assert staged == stats.samples_consumed > 0
    assert metrics["linops.collapse_retries"] == 0
    assert metrics["certificate.attempts"] > 0
