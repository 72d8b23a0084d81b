import json
import os
import random
import subprocess
import sys

import pytest

import kloosterman
from kloosterman.classicalgroups import SymplecticForm
from kloosterman import __version__
from kloosterman.cli import CACHE_ENV, _cache_key, main
from kloosterman.matrixcore import matrix_to_file
from kloosterman.sl4fine import FineCellLabel, build_from_gammas
from kloosterman.verify import random_gamma_factor


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classical_json(capsys):
    code, doc = run_json(capsys, ["classical", "-m", "1", "-n", "1", "-c", "3"])
    assert code == 0
    assert doc["value_re"] == pytest.approx(-1.0, abs=1e-9)
    assert doc["value_im"] == pytest.approx(0.0, abs=1e-12)
    assert doc["exact_phases"] == [[1, 3, 1], [2, 3, 1]]
    assert doc["method"] == "oracle"
    assert doc["query"] == {"kind": "classical", "m": 1, "n": 1, "c": 3}
    assert doc["cache_hit"] is False
    assert "elapsed_ms" in doc


def test_classical_bound_flag(capsys):
    code, doc = run_json(capsys, ["classical", "-m", "2", "-n", "3", "-c", "10",
                                  "--check-bound"])
    assert code == 0
    assert doc["bound"]["holds"] is True
    assert doc["bound"]["lhs"] <= doc["bound"]["rhs"]


def test_classical_negative_character(capsys):
    code, doc = run_json(capsys, ["classical", "-m=-1", "-n", "1", "-c", "5"])
    assert code == 0
    code2, doc2 = run_json(capsys, ["classical", "-m", "1", "-n=-1", "-c", "5"])
    assert doc["exact_phases"] == doc2["exact_phases"]


def test_classical_domain_error(capsys):
    code = main(["classical", "-m", "1", "-n", "1", "-c", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "non-positive"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classical", "-m", "1", "-n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sl4", "fine", "--cell", "1,1,1", "-m", "0,0,0", "-n", "0,0,0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sl4", "fine", "--cell", "1,1,1,1,1,1", "-m", "0,0,0", "-n", "0,0,0",
              "--budget", "-5"])
    assert exc.value.code == 2
    assert "budget must not be negative" in capsys.readouterr().err


def test_sl4_fine_both_trivial(capsys):
    code, doc = run_json(capsys, ["sl4", "fine", "--cell", "1,1,1,1,1,1",
                                  "-m", "1,1,1", "-n", "1,1,1", "--method", "both"])
    assert code == 0
    assert doc["value_re"] == pytest.approx(1.0, abs=1e-12)
    assert doc["closed_value_re"] == pytest.approx(1.0, abs=1e-12)
    assert doc["discrepancy"] is None
    assert doc["method"] == "both"


def test_sl4_fine_both_discrepancy(capsys):
    code, doc = run_json(capsys, ["sl4", "fine", "--cell", "1,1,1,1,1,2",
                                  "-m", "0,0,0", "-n", "0,0,0", "--method", "both"])
    assert code == 0
    assert doc["value_re"] == pytest.approx(4.0, abs=1e-9)
    assert doc["closed_value_re"] == pytest.approx(16.0, abs=1e-9)
    disc = doc["discrepancy"]
    assert disc is not None
    assert disc["authoritative"] == "oracle"
    assert disc["abs_diff"] == pytest.approx(12.0, abs=1e-9)


def test_sl4_fine_closed_only(capsys):
    code, doc = run_json(capsys, ["sl4", "fine", "--cell", "1,1,1,1,1,2",
                                  "-m", "0,0,1", "-n", "0,0,0", "--method", "closed"])
    assert code == 0
    assert doc["method"] == "closed_form"
    assert doc["exact_phases"] == []
    assert doc["value_re"] == 0.0


def test_sl4_coarse(capsys):
    code, doc = run_json(capsys, ["sl4", "coarse", "--c", "2,2,2",
                                  "-m", "1,1,1", "-n", "1,1,1"])
    assert code == 0
    assert doc["value_re"] == pytest.approx(-3.0, abs=1e-9)
    assert doc["exact_phases"] == [[0, 1, 3], [1, 2, 6]]


def test_sl4_budget_exceeded(capsys):
    code = main(["sl4", "fine", "--cell", "2,2,2,2,2,2",
                 "-m", "0,0,0", "-n", "0,0,0", "--budget", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "budget-exceeded"


def test_sl5_fine(capsys):
    code, doc = run_json(capsys, ["sl5", "fine", "--cell", "1,1,1,1,1,1,1,1,1,2",
                                  "-m", "0,0,0,1", "-n", "0,0,0,0"])
    assert code == 0
    assert doc["exact_phases"] == [[0, 1, 4], [1, 2, 4]]
    assert doc["value_re"] == pytest.approx(0.0, abs=1e-9)
    assert doc["query"]["strict_paper_psi"] is False


def test_decompose(capsys, tmp_path):
    rng = random.Random(6)
    cell = FineCellLabel(2, 1, 1, 1, 1, 1)
    gammas = [random_gamma_factor(v, rng) for v in cell.as_tuple()]
    path = tmp_path / "matrix.json"
    matrix_to_file(build_from_gammas(cell, gammas), str(path))
    code, doc = run_json(capsys, ["decompose", "--matrix", str(path)])
    assert code == 0
    assert doc["weyl"] == "long-word"
    assert doc["t"] == [1, 1, 2, [1, 2]]
    assert len(doc["u_L"]) == 4 and len(doc["u_R"]) == 4
    for row in doc["u_L"]:
        assert len(row) == 4


def test_decompose_rejects_non_cell_matrix(capsys, tmp_path):
    path = tmp_path / "id.json"
    from kloosterman.matrixcore import identity
    matrix_to_file(identity(4), str(path))
    code = main(["decompose", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "not-in-big-cell"


@pytest.mark.parametrize("command, text, code", [
    ("decompose", None, "bad-matrix-file"),
    ("decompose", '{"n": 2, "entries": [[1, 0], [0, 1]]', "bad-matrix-file"),
    ("decompose", '{"entries": [[1]]}', "bad-matrix-file"),
    ("decompose", '{"n": 1}', "bad-matrix-file"),
    ("decompose", '{"n": 2, "entries": [[1, "x"], [0, 1]]}', "bad-matrix-file"),
    ("decompose", '{"n": 2, "entries": [[1, [1, 0]], [0, 1]]}', "bad-matrix-file"),
    ("decompose", '{"n": 1, "entries": [[1]]}', "bad-rank"),
    ("so4", '{"n": 2, "entries": [[1, 0], [0, 1]]}', "size-mismatch"),
    ("sp4", '{"n": 2, "entries": [[1, 0], [0, 1]]}', "size-mismatch"),
    ("sp4", json.dumps({"n": 6, "entries": [[1 if i == j else 5 if (i, j) == (0, 1) else 0
                                             for j in range(6)] for i in range(6)]}),
     "size-mismatch"),
], ids=["missing", "invalid-json", "no-n", "no-entries", "non-numeric", "zero-denominator",
        "decompose-1x1", "so4-2x2", "sp4-2x2", "sp4-6x6"])
def test_bad_matrix_input_exit_codes(capsys, tmp_path, command, text, code):
    path = tmp_path / "matrix.json"
    if text is not None:
        path.write_text(text)
    if command == "decompose":
        argv = ["decompose", "--matrix", str(path)]
    else:
        argv = ["groups", "check", "--kind", command, "--matrix", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == code


def test_groups_check(capsys, tmp_path):
    path = tmp_path / "j.json"
    matrix_to_file(SymplecticForm(2).matrix, str(path))
    code, doc = run_json(capsys, ["groups", "check", "--kind", "sp4",
                                  "--matrix", str(path)])
    assert code == 0
    assert doc["member"] is True
    assert all(v == 0 for v in doc["residuals"].values())
    code, doc = run_json(capsys, ["groups", "check", "--kind", "so4",
                                  "--matrix", str(path)])
    assert code == 0
    assert doc["member"] is True


def test_verify_longword(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "longword"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["reports"][0]["suite"] == "longword"
    assert doc["reports"][0]["failures"] == 0


def test_verify_seed_required(capsys):
    code = main(["verify", "--suite", "trivial"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "seed-required"
    code, doc = run_json(capsys, ["verify", "--suite", "trivial", "--seed", "5"])
    assert code == 0
    assert doc["passed"] is True


def test_verify_scoped_flags(capsys):
    code, doc = run_json(capsys, ["verify", "--suite", "weil", "--max-c", "25"])
    assert code == 0
    assert doc["reports"][0]["details"]["c_max"] == 25
    code, doc = run_json(capsys, ["verify", "--suite", "crossval", "--d-bound", "1"])
    assert code == 0
    assert doc["reports"][0]["details"]["cells"] == 1


def test_cache_round_trip(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    argv = ["classical", "-m", "1", "-n", "1", "-c", "7", "--cache", str(cache)]
    code, first = run_json(capsys, argv)
    assert code == 0 and first["cache_hit"] is False
    code, second = run_json(capsys, argv)
    assert code == 0 and second["cache_hit"] is True
    for key in ("exact_phases", "value_re", "value_im", "method"):
        assert first[key] == second[key]
    lines = cache.read_text().strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["payload"]["exact_phases"] == first["exact_phases"]


def test_cache_tolerates_corrupt_lines(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    key = _cache_key("sl4-fine", {"cell": [1, 1, 1, 1, 1, 2], "m": [0, 0, 1],
                                  "n": [0, 0, 0], "method": "oracle"})
    # Not JSON; JSON but not an object; the right key and version, no payload.
    corrupt = ["this is not json", "12", json.dumps({"key": key, "version": __version__})]
    cache.write_text("\n".join(corrupt) + "\n")
    argv = ["sl4", "fine", "--cell", "1,1,1,1,1,2", "-m", "0,0,1", "-n", "0,0,0",
            "--cache", str(cache)]
    code = main(argv)
    captured = capsys.readouterr()
    first = json.loads(captured.out)
    assert code == 0 and first["cache_hit"] is False
    assert captured.err.count("corrupt cache line") == 3
    code = main(argv)
    captured = capsys.readouterr()
    second = json.loads(captured.out)
    assert code == 0 and second["cache_hit"] is True
    assert captured.err.count("corrupt cache line") == 3
    assert second["exact_phases"] == first["exact_phases"] == [[0, 1, 2], [1, 2, 2]]


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "env-cache.jsonl"
    monkeypatch.setenv(CACHE_ENV, str(cache))
    argv = ["classical", "-m", "2", "-n", "5", "-c", "9"]
    code, first = run_json(capsys, argv)
    assert code == 0 and first["cache_hit"] is False
    assert cache.exists()
    code, second = run_json(capsys, argv)
    assert second["cache_hit"] is True


def test_csv_format(capsys):
    code = main(["classical", "-m", "1", "-n", "1", "-c", "3", "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    header = out[0].split(",")
    assert "value_re" in header
    values = out[1]
    assert str(-1.0) in values or "-0.99" in values


def test_text_format(capsys):
    code = main(["classical", "-m", "1", "-n", "1", "-c", "3", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value_re" in out
    assert "query.c" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_cli_import_leaves_numpy_out():
    """numpy is imported by the two verification scans that use it, not at
    start-up."""
    src = os.path.dirname(os.path.dirname(kloosterman.__file__))
    code = "import sys, kloosterman.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
