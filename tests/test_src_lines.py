"""tools/src_lines.py: the printed total of non-blank src/hypq lines."""
import importlib.util
import pathlib
import re

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tools" / "src_lines.py"


def test_total_matches_a_direct_count(capsys):
    spec = importlib.util.spec_from_file_location("src_lines", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total"
    modules = {name: int(n.replace(",", "")) for name, n in rows[:-1]}
    total = int(rows[-1][1].replace(",", ""))
    files = sorted((_ROOT / "src" / "hypq").glob("*.py"))
    direct = {f.name: len(re.findall(r"^[ \t\f\r]*\S", f.read_text(), re.M)) for f in files}
    assert modules == direct
    assert total == sum(direct.values()) > 0
