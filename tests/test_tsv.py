import re
from pathlib import Path

import pytest

from recipetext.errors import DataError, ModelMismatchError
from recipetext.tsv import Header, check_widths, read_rows, write_lines

SRC = Path(__file__).parent.parent / "src" / "recipetext"


def _rows(tmp_path, text, **kwargs):
    path = tmp_path / "t.tsv"
    path.write_text(text, encoding="utf-8")
    return path, read_rows(path, **kwargs)


class TestReadRows:
    def test_magic_blank_and_comment_lines(self, tmp_path):
        path, rows = _rows(tmp_path, "#x\tv1\n\na\t1\n#k\tv\n  \nb\t2\n", magic="#x\tv1")
        assert rows == [["a", "1"], ["#k", "v"], ["b", "2"]]
        assert [row.lineno for row in rows] == [3, 4, 6]
        _, rows = _rows(tmp_path, "# note\na\tb\n", comments=True, error=DataError)
        assert rows == [["a", "b"]]

    @pytest.mark.parametrize("text", ["", "#x\tv2\na\n", "a\n#x\tv1\n"])
    def test_magic_must_open_the_file(self, tmp_path, text):
        path = tmp_path / "t.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ModelMismatchError, match=re.escape(f"{path}:1: ")):
            read_rows(path, magic="#x\tv1")

    def test_unreadable_file_raises_the_named_error(self, tmp_path):
        with pytest.raises(DataError, match="absent.tsv"):
            read_rows(tmp_path / "absent.tsv", error=DataError)
        (tmp_path / "bin.tsv").write_bytes(b"\xff\xfe\n")
        with pytest.raises(ModelMismatchError, match="bin.tsv"):
            read_rows(tmp_path / "bin.tsv")

    def test_write_lines_round_trip(self, tmp_path):
        path = tmp_path / "w.tsv"
        write_lines(path, ["a\t1", "b\t2"])
        assert path.read_bytes() == b"a\t1\nb\t2\n"
        assert read_rows(path) == [["a", "1"], ["b", "2"]]


class TestRow:
    def test_typed_cells(self, tmp_path):
        _, (row,) = _rows(tmp_path, "k\t7\t-0.5\t1e-3\n")
        assert (row[0], row.int(1), row.float(2), row.float(3)) == ("k", 7, -0.5, 1e-3)
        assert row.floats(1) == [7.0, -0.5, 1e-3] and row.floats(3) == [1e-3]
        assert row.floats(4) == []

    @pytest.mark.parametrize("cells,call", [
        ("k", lambda row: check_widths([row], 2)),
        ("k\t7", lambda row: check_widths([row], {"k": 3})),
        ("k\t1.2.3", lambda row: row.float(1)),
        ("k\tnan", lambda row: row.float(1)),
        ("k\t-inf", lambda row: row.float(1)),
        ("k\t2.5", lambda row: row.int(1)),
        ("k\t1\t2", lambda row: check_widths([row], {"j": 3})),
        ("k\t1\tx\t3", lambda row: row.floats(1)),
        ("k\t0.5", lambda row: check_widths([row], {"k": None}) and row.int(1)),
        ("k\t0.5\t1.2.3", lambda row: row.floats(1)),
        ("k\t0.5\tinf\t1", lambda row: row.floats(1)),
    ])
    def test_bad_cell_names_file_and_line(self, tmp_path, cells, call):
        path, (_, row) = _rows(tmp_path, f"first\n{cells}\n", error=DataError)
        with pytest.raises(DataError, match="^" + re.escape(f"{path}:2: ")):
            call(row)

    def test_bulk_parse_names_the_first_bad_cell(self, tmp_path):
        path, (row,) = _rows(tmp_path, "k\t1\tnan\tx\n")
        with pytest.raises(ModelMismatchError, match=re.escape(f"{path}:1: bad cell 3: nan")):
            row.floats(1)

    def test_stated_widths(self, tmp_path):
        path, rows = _rows(tmp_path, "a\t1\nb\t2\t3\nb\t4\t5\nc\n")
        assert check_widths(rows, {"a": 2, "b": 3, "c": 1}) is rows
        assert check_widths(rows, {"a": None, "b": 3, "c": None}) is rows
        with pytest.raises(ModelMismatchError, match=re.escape(f"{path}:1: expected 3 cells")):
            check_widths(rows, 3)
        with pytest.raises(ModelMismatchError, match=re.escape(f"{path}:4: unknown row kind 'c'")):
            check_widths(rows, {"a": 2, "b": 3})

    def test_put_rejects_a_repeated_key(self, tmp_path):
        path, (row,) = _rows(tmp_path, "k\t1\n")
        table = {}
        row.put(table, "k", 1)
        with pytest.raises(ModelMismatchError, match=re.escape(f"{path}:1: repeated key 'k'")):
            row.put(table, "k", 2)


class TestHeader:
    def test_split_keeps_data_rows_and_indexes_headers(self, tmp_path):
        path, rows = _rows(tmp_path, "#classes\ta,b\nx\t1\n#seed\t4\n")
        header, body = Header.split(rows, path, {"#classes": 2, "#seed": 2})
        assert body == [["x", "1"]]
        assert header["classes"][1] == "a,b" and header["seed"].int(1) == 4

    def test_missing_and_repeated_keys(self, tmp_path):
        path, rows = _rows(tmp_path, "#seed\t4\n#seed\t5\n")
        with pytest.raises(ModelMismatchError, match=re.escape(f"{path}:2: repeated key 'seed'")):
            Header.split(rows, path, {"#seed": 2})
        header, _ = Header.split(rows[:1], path, {"#seed": 2})
        with pytest.raises(ModelMismatchError, match=re.escape(f"{path}: no #classes line")):
            header["classes"]
        with pytest.raises(ModelMismatchError, match=re.escape(f"{path}:1: unknown row kind")):
            Header.split(rows[:1], path, {"#classes": 2})


# JSON and XML are not line formats: the config file and the model
# manifest are JSON documents read and written here, and the corpus XML
# goes through ElementTree, which needs no entry.
FRAMING = ("splitlines()", 'split("\\t")', "read_text(", "write_text(")
ALLOWED = {
    ("cli.py", 'raw = json.loads(path.read_text(encoding="utf-8"))'),
    ("cli.py", 'manifest = json.loads(path.read_text(encoding="utf-8"))'),
    ("cli.py", '(model_dir / "manifest.json").write_text(manifest + "\\n", encoding="utf-8")'),
}


def test_line_framing_lives_in_the_tsv_module():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tsv.py":
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if any(call in line for call in FRAMING):
                found.add((path.name, line.strip()))
    assert found == ALLOWED
