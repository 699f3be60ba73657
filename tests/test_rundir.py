from __future__ import annotations

import json
import shutil
import tracemalloc

import pytest

import oracles
from blindeval.cli import main
from blindeval.errors import RunDirectoryError
from blindeval.rundir import snapshot, trees_identical
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


def test_record_truncated_alike_in_both_trees_is_named(tmp_path):
    # equal bytes on both sides must not stand in for reading the file
    a = make_tree(tmp_path / "a", b"a,b\n")
    b = make_tree(tmp_path / "b", b"a,b\n")
    for root in (a, b):
        record = root / "records" / "case1_R1_gpt_r1.json"
        record.write_bytes(record.read_bytes()[:12])
    with pytest.raises(RunDirectoryError, match="case1_R1_gpt_r1.json"):
        trees_identical(a, b)


def test_non_utf8_text_file_in_a_compared_tree_is_named(tmp_path):
    a = make_tree(tmp_path / "a", b"a,b\n")
    b = make_tree(tmp_path / "b", b"a,b\n")
    (b / "n.txt").write_bytes(b"\xff\n")
    with pytest.raises(RunDirectoryError, match="n.txt"):
        trees_identical(a, b)


@pytest.mark.parametrize("sides", ["a", "b", "both"])
@pytest.mark.parametrize("offset", [0, 200_000])
def test_non_utf8_text_file_is_named_wherever_it_is(tmp_path, sides, offset):
    # offset 200,000: the bad byte lies in a later piece than the first difference
    a = make_tree(tmp_path / "a", b"a,b\n")
    b = make_tree(tmp_path / "b", b"a,b\n")
    for root in (a, b):
        if sides in (root.name, "both"):
            (root / "n.txt").write_bytes(root.name.encode() + b"x" * offset + b"\xff\n")
    with pytest.raises(RunDirectoryError, match="n.txt"):
        trees_identical(a, b)


def test_a_missing_tree_is_named(tmp_path):
    a = make_tree(tmp_path / "a", b"a,b\n")
    for first, second in [(a, tmp_path / "missing"), (tmp_path / "missing", tmp_path / "gone")]:
        with pytest.raises(RunDirectoryError, match="missing"):
            trees_identical(first, second)


def test_a_character_split_across_read_pieces_is_read_whole(tmp_path):
    text = ("x" * 65_535 + "草木\r\n") * 3   # 草 straddles the first 64 KiB boundary
    a = make_tree(tmp_path / "a", text.encode("utf-8"))
    b = make_tree(tmp_path / "b", text.encode("utf-8"))
    assert trees_identical(a, b) == (True, [])
    assert snapshot(a)["x.csv"] == text
    (b / "x.csv").write_bytes(text.replace("木", "火").encode("utf-8"))
    assert trees_identical(a, b) == (False, ["x.csv"])


def test_lock_files_and_directory_symlinks_are_not_compared(tmp_path):
    a = make_tree(tmp_path / "a", b"a,b\n")
    b = make_tree(tmp_path / "b", b"a,b\n")
    (a / ".lock").write_text("123", encoding="ascii")
    (b / "records" / ".lock").write_text("456", encoding="ascii")
    (a / "linked").symlink_to(a / "records", target_is_directory=True)
    assert trees_identical(a, b) == (True, [])


# --- the streaming comparison against the whole-snapshot oracle ---------------------

@pytest.fixture(scope="module")
def demo_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo") / "run"
    assert main(["demo", str(root), "--seed", "7"]) == 0
    return root


def _add_file(root):
    # "report-extra/" sorts before "report/" by string, after it by path component
    (root / "report-extra").mkdir()
    (root / "report-extra" / "notes.txt").write_text("added\n", encoding="utf-8")


def _remove_file(root):
    (root / "records" / "case1_R1_gpt.json").unlink()


def _edit_json(path, key, value):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[key] = value
    write_json(path, doc)


def _edit_transcript_latency(root):
    _edit_json(next((root / "transcripts").iterdir()), "latency_s", 12.5)


def _edit_record_parse_mode(root):
    _edit_json(root / "records" / "case1_R1_gpt.json", "parse_mode", "prose_fallback")


def _crlf_csv(root):
    path = root / "report" / "scores.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


PERTURBATIONS = {
    "added_file": (_add_file, False),
    "removed_file": (_remove_file, False),
    "volatile_key_only": (_edit_transcript_latency, True),
    "non_volatile_value": (_edit_record_parse_mode, False),
    "crlf_csv": (_crlf_csv, False),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_streaming_comparison_matches_the_snapshot_oracle(demo_tree, tmp_path, name):
    perturb, expect_same = PERTURBATIONS[name]
    twin = tmp_path / "twin"
    shutil.copytree(demo_tree, twin)
    perturb(twin)
    expected = oracles.trees_identical_by_snapshot(demo_tree, twin)
    assert expected[0] is expect_same
    assert trees_identical(demo_tree, twin) == expected
    assert trees_identical(twin, demo_tree) == oracles.trees_identical_by_snapshot(twin, demo_tree)


def test_comparison_holds_one_file_pair_not_whole_trees(tmp_path):
    # two trees of 200 JSON files of ~50 KB: ~20 MB if either were held whole
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        for i in range(200):
            doc = {"index": i, "lines": [f"{side}{i:03d}-{j:02d} " + "x" * 1000 for j in range(50)]}
            (tmp_path / side / f"f{i:03d}.json").write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        same, diffs = trees_identical(tmp_path / "a", tmp_path / "b")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not same and len(diffs) == 200
    assert peak < 2 * 1024 * 1024, f"comparison peaked at {peak / 1e6:.1f} MB"


def test_comparison_reads_other_files_in_bounded_pieces(tmp_path):
    # a 4 MB CSV on each side: reading each side whole peaked at 12 MB
    text = "case,role,model,candidate,dimension,score,repeat\n" + "c,r,m,x,Clarity,3,0\n" * 200_000
    a = make_tree(tmp_path / "a", text.encode("utf-8"))
    b = make_tree(tmp_path / "b", text.encode("utf-8"))
    tracemalloc.start()
    try:
        same, diffs = trees_identical(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert same and diffs == []
    assert peak < 500_000, f"comparison peaked at {peak / 1e6:.2f} MB"
