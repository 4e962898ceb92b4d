"""Which slotqa modules each entry point loads, and the lazy package namespace.

The module sets are observed in fresh interpreters, because this test
process has long since imported every module.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slotqa
from slotqa import BaselineConfig, DEFAULT_NO_ANSWER_TOKEN, cli
from slotqa.model import Prediction, read_sidecar, write_instances, write_predictions

from helpers import make_instance

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAYERS = {"baseline", "challenge", "ingest", "metrics", "mixer", "templates", "transforms"}

# the loaded slotqa submodules, as an expression any interpreter can evaluate
_SUBMODULES = "sorted(m[7:] for m in __import__('sys').modules if m.startswith('slotqa.'))"


def _run(code: str) -> set[str]:
    """Run ``code`` in a new interpreter; the set its last output line prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return set(eval(proc.stdout.strip().splitlines()[-1]))


def _loaded(code: str) -> set[str]:
    """The slotqa submodules loaded after running ``code`` in a new interpreter."""
    return _run(f"{code}\nprint({_SUBMODULES})")


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import slotqa") == set()


def test_importing_the_cli_loads_only_cli_and_model():
    assert _loaded("import slotqa.cli") == {"cli", "model"}


def test_help_loads_only_cli_and_model():
    code = (
        "import contextlib, io\n"
        "from slotqa.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass"
    )
    assert _loaded(code) == {"cli", "model"}


def test_score_loads_only_the_scoring_layer(tmp_path):
    dataset, preds = tmp_path / "d.jsonl", tmp_path / "p.jsonl"
    write_instances([make_instance(id="a"), make_instance(id="b", answers=())], dataset)
    write_predictions([Prediction("a", "Honolulu, Hawaii")], preds)
    code = (
        "import contextlib, io\n"
        "from slotqa.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['score', '--dataset', {str(dataset)!r}, '--preds', {str(preds)!r}]) == 0"
    )
    loaded = _loaded(code)
    assert "metrics" in loaded
    assert not loaded & (LAYERS - {"metrics"})


def test_a_spawned_scan_worker_loads_only_mixer_and_model(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"id": "a0"}\n{"id": "a1"}\n', encoding="utf-8")
    # A one-process spawn pool runs the scan, then reports its own modules.
    code = (
        "import multiprocessing\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from slotqa.mixer import _scan_range\n"
        "with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context('spawn')) as pool:\n"
        f"    assert pool.submit(_scan_range, {str(path)!r}, 0, {path.stat().st_size}, None).result()[0] == 2\n"
        f"    print(pool.submit(eval, {_SUBMODULES!r}).result())"
    )
    assert _run(code) == {"mixer", "model"}


def test_slotqa_loads_only_the_standard_library():
    """No installed package, numpy and orjson included, is loaded by any slotqa module.

    Compared with the modules loaded before slotqa, because site ``.pth``
    files may preload packages of their own.
    """
    code = (
        "import pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import slotqa\n"
        "for module in pkgutil.iter_modules(slotqa.__path__):\n"
        "    __import__(f'slotqa.{module.name}')\n"
        "allowed = {*sys.stdlib_module_names, 'slotqa'}\n"
        "print(sorted(m for m in set(sys.modules) - before if m.partition('.')[0] not in allowed))"
    )
    assert _run(code) == set()
    # the imports a function makes when it runs
    for path in Path(slotqa.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else (
                [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
            )
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_no_entry_point_loads_dataclasses_or_inspect():
    """The model types are tuples and plain classes; every CLI step starts without these.

    Compared with the modules loaded before slotqa, because site ``.pth``
    files may preload modules of their own.
    """
    # pkgutil.iter_modules itself imports inspect, so the modules are named here
    modules = sorted(path.stem for path in Path(slotqa.__file__).parent.glob("[!_]*.py"))
    assert set(modules) == LAYERS | {"cli", "model"}
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "def new(): return sorted(m for m in ('dataclasses', 'inspect') if m in set(sys.modules) - before)\n"
        "import slotqa.cli\n"
        "seen = {'import': new()}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        slotqa.cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "seen['--help'] = new()\n"
        f"for module in {modules!r}:\n"
        "    __import__(f'slotqa.{module}')\n"
        "seen['layers'] = new()\n"
        "print([(step, m) for step, ms in seen.items() for m in ms])"
    )
    assert _run(code) == set()


def test_every_public_name_is_its_home_modules_object():
    for name in slotqa.__all__:
        home = importlib.import_module(f"slotqa.{slotqa._HOMES[name]}")
        value = getattr(slotqa, name)
        assert value is getattr(home, name), name
        if hasattr(value, "__module__"):
            assert value.__module__ == home.__name__, name
    assert set(slotqa._HOMES) == set(slotqa.__all__)
    assert set(slotqa.__all__) <= set(dir(slotqa))


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        slotqa.no_such_name
    from slotqa import mixer, templates

    assert mixer.mix_files is slotqa.mix_files
    assert templates.PLACEHOLDER == slotqa.PLACEHOLDER


def test_parser_defaults_are_the_library_defaults(tmp_path, capsys):
    dataset, preds = tmp_path / "d.jsonl", tmp_path / "p.jsonl"
    write_instances([make_instance(id="a")], dataset)
    argv = ["predict-baseline", "--in", str(dataset), "--out", str(preds)]
    for flags, config in [
        ([], BaselineConfig()),
        (["--threshold", "6", "--idf", "uniform"], BaselineConfig(no_answer_threshold=6.0, idf_source="uniform")),
    ]:
        assert cli.main([*argv, *flags]) == 0
        recorded = read_sidecar(preds).provenance_log[0]["parameters"]
        assert recorded == {"in": str(dataset), "out": str(preds), **config.to_dict()}
    args = cli.build_parser().parse_args(["adapt-noanswer", "--in", "x", "--out", "y"])
    assert args.token == DEFAULT_NO_ANSWER_TOKEN
    from slotqa.transforms import DEFAULT_NO_ANSWER_TOKEN as reexported

    assert reexported is DEFAULT_NO_ANSWER_TOKEN
