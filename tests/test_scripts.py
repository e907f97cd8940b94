"""Smoke test of the layer benchmark harness, `scripts/bench_layers.py`."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def bench_layers(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)


def test_bench_layers_adds_an_oracles_run_to_the_stored_ones(tmp_path):
    out = tmp_path / "BENCH_oracles.json"
    out.write_text(json.dumps({"runs": {"earlier": {"tree": "abc1234", "chambers": {}}}}))
    done = bench_layers("oracles", "--label", "now", "--repeats", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert set(doc["runs"]) == {"earlier", "now"}
    chambers = doc["runs"]["now"]["chambers"]
    assert set(chambers) == {"n=3", "n=4", "n=5"}
    for entry in chambers.values():
        assert entry["draws"] == 64
        assert entry["max_dev"] <= 1e-6

    unknown = bench_layers("nosuchlayer", "--label", "now", "--out", str(tmp_path / "x.json"))
    assert unknown.returncode == 2
    assert not (tmp_path / "x.json").exists()


def test_a_rewritten_bench_file_does_not_mark_the_tree_dirty(tmp_path):
    def git(*words):
        subprocess.run(["git", "-C", str(tmp_path), *words], check=True, capture_output=True)

    def label():  # the script's directory is the working one, so `-c` imports it
        code = "import sys, bench_layers; print(bench_layers.tree_label(sys.argv[1]))"
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "src")],
            cwd=SCRIPT.parent,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "code.py").write_text("x = 1\n")
    (tmp_path / "BENCH_reduce.json").write_text("{}\n")
    git("init", "-q")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    clean = label()
    assert clean and not clean.endswith("-dirty")
    (tmp_path / "BENCH_reduce.json").write_text('{"runs": {}}\n')
    assert label() == clean
    (tmp_path / "src" / "code.py").write_text("x = 2\n")
    assert label() == clean + "-dirty"
