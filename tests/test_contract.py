"""The contract comparison of ``tests/contract.py``."""

from contract import compare


def _write(root, value, tag, code):
    root.mkdir()
    (root / "run.csv").write_text(f"sample,tau3,method\n1,{value},{tag}\n")
    (root / "run.json").write_text(f'{{"tau3": {value}, "count": 3}}')
    (root / "run.stdout").write_text(f"tau3up[1|2|3] = {value} ({tag})\n")
    (root / "run.exit").write_text(f"{code}\n")


def test_compare_reports_float_changes_and_fails_on_others(tmp_path, capsys):
    _write(tmp_path / "parent", "0.25", "rdl-line", 0)
    _write(tmp_path / "floats", "0.2500000001", "rdl-line", 0)
    _write(tmp_path / "tags", "0.25", "simplex-zero", 3)
    _write(tmp_path / "nan", "NaN", "rdl-line", 0)
    assert compare(tmp_path / "parent", tmp_path / "parent") == 0
    assert "non-numeric changes: 0" in capsys.readouterr().out
    assert compare(tmp_path / "parent", tmp_path / "floats") == 0
    out = capsys.readouterr().out
    for column in ("run.csv tau3", "run.json tau3", "run.stdout tau#up[#|#|#] = # (rdl-line)"):
        assert f"1.00e-10  {column}\n" in out
    assert "0 of    1  run.csv" in out and "1 of    1  run.exit" in out
    assert compare(tmp_path / "parent", tmp_path / "tags") == 1
    out = capsys.readouterr().out
    assert "non-numeric changes: 3" in out  # the CSV tag, the text tag, the exit code
    assert "'rdl-line' -> 'simplex-zero'" in out and "0 -> 3" in out
    assert compare(tmp_path / "parent", tmp_path / "nan") == 1
    assert "0.25 -> nan" in capsys.readouterr().out


def test_compare_counts_non_numeric_changes_by_kind(tmp_path, capsys):
    for name, tag, extra in (("parent", "pi-coincidence", ', "count": 0'), ("change", "simplex-zero", "")):
        root = tmp_path / name
        root.mkdir()
        (root / "run.csv").write_text(f"sample,method\n1,{tag}\n2,{tag}\n3,rdl-line\n")
        (root / "run.json").write_text(f'{{"method": "{tag}"{extra}}}')
        (root / "run.stdout").write_text(f"tau3up[1|2|3] = 0.0 ({tag})\ntau3up[1|2|4] = 0.5 ({tag})\n")
    (tmp_path / "change" / "run.exit").write_text("0\n")
    assert compare(tmp_path / "parent", tmp_path / "change") == 1
    out = capsys.readouterr().out
    assert "non-numeric changes: 7\n" in out
    kinds = out.split("non-numeric changes: 7\n")[1].splitlines()[:4]
    assert kinds == [
        "     3  'pi-coincidence' -> 'simplex-zero'",
        "     2  'tau#up[#|#|#] = # (pi-coincidence)' -> 'tau#up[#|#|#] = # (simplex-zero)'",
        f"     1  only in {tmp_path / 'change'}",  # ties in the order first seen
        "     1  # -> None",
    ]
    # The full list follows the kinds.
    assert "  run.json ('count',): 0 -> None\n" in out
