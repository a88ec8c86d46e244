"""identity.py's --check names each digest line that moved, and the
committed digests cover every output it prints."""

from __future__ import annotations

import identity


def test_check_names_each_differing_line(tmp_path, monkeypatch, capsys):
    want = ["aa  report x", "bb  report y", "cc  only before"]
    got = ["aa  report x", "bd  report y", "dd  only after"]
    assert identity.differing(want, got) == ["report y", "only before", "only after"]
    path = tmp_path / "digests"
    path.write_text("\n".join(want) + "\n")
    monkeypatch.setattr(identity, "digests", lambda: iter(got))
    assert identity.main(["--check", str(path)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("differs: ")] == [
        "differs: report y", "differs: only before", "differs: only after"]
    monkeypatch.setattr(identity, "digests", lambda: iter(want))
    assert identity.main(["--check", str(path)]) == 0
    assert identity.main(["--check"]) == 2


def test_committed_digests_are_one_line_per_output():
    lines = (identity.ROOT / "tests" / "identity.sha256").read_text().splitlines()
    assert len(lines) == 154
    names = [line.split("  ", 1)[1] for line in lines]
    assert len(set(names)) == len(names)
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
