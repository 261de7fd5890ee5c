"""The number of settable values of the package, pinned.

``tools/settings.py`` counts the parameters with a default of the public
functions under ``src/``. The pin makes a new option visible: a change that
adds one (or removes one) moves this count, and must move the pin with it
and say why.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _settings_tool():
    spec = importlib.util.spec_from_file_location("settings_tool", ROOT / "tools" / "settings.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_settable_values_of_src_are_pinned():
    tool = _settings_tool()
    total = sum(tool.settable_values(path) for path in sorted((ROOT / "src").rglob("*.py")))
    # 51 before random_psd_pairs (and its then=) was deleted.
    assert total == 50
