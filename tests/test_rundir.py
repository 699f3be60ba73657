from __future__ import annotations

import pytest

from blindeval.errors import RunDirectoryError
from blindeval.rundir import trees_identical
from blindeval.store import write_json


def make_tree(root, csv_bytes):
    (root / "records").mkdir(parents=True)
    write_json(root / "records" / "case1_R1_gpt_r1.json", {"case_id": "case1", "timestamp": str(root)})
    (root / "x.csv").write_bytes(csv_bytes)
    return root


def test_line_ends_are_compared_byte_for_byte(tmp_path):
    lf = make_tree(tmp_path / "lf", b"a,b\n1,2\n")
    crlf = make_tree(tmp_path / "crlf", b"a,b\r\n1,2\r\n")
    assert trees_identical(lf, make_tree(tmp_path / "lf2", b"a,b\n1,2\n")) == (True, [])
    assert trees_identical(lf, crlf) == (False, ["x.csv"])


def test_truncated_record_in_a_compared_tree_is_named(tmp_path):
    a = make_tree(tmp_path / "a", b"a,b\n")
    b = make_tree(tmp_path / "b", b"a,b\n")
    record = b / "records" / "case1_R1_gpt_r1.json"
    record.write_bytes(record.read_bytes()[:12])
    with pytest.raises(RunDirectoryError, match="case1_R1_gpt_r1.json"):
        trees_identical(a, b)


def test_non_utf8_text_file_in_a_compared_tree_is_named(tmp_path):
    a = make_tree(tmp_path / "a", b"a,b\n")
    b = make_tree(tmp_path / "b", b"a,b\n")
    (b / "n.txt").write_bytes(b"\xff\n")
    with pytest.raises(RunDirectoryError, match="n.txt"):
        trees_identical(a, b)
