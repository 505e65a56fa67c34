import ast
import contextlib
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetff import (
    InternalError,
    KkWitness,
    ParamError,
    Poset,
    PosetFFError,
    build_poset,
    canonical_dumps,
    certify,
    gen_interval_order,
    gen_kk_free,
    incomparability_graph,
    order_from_dict,
    pd_from_dict,
    poset_from_dict,
    poset_text,
    read_json,
    validate_path_decomposition,
    width_with_witness,
)
from posetff import cli, errors
from posetff.cli import main
from posetff.jsonio import MAX_ELEMENTS
from helpers import DOCUMENTS, posets, slide_order

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return main([str(a) for a in argv])


def instance_seed(row):
    return int(dict(kv.split("=") for kv in row["params"].split(";"))["instance_seed"])


def check_extend_report(report, poset_file, q_file, pd_file, k):
    """The report line's numbers equal the matching-based widths and the written pd."""
    m = re.fullmatch(r"width_q=(-?\d+) bound=(-?\d+) pd_width=(-?\d+)\n", report)
    assert m, report
    width_q, bound, pd_width = map(int, m.groups())
    w, _ = width_with_witness(poset_from_dict(read_json(poset_file)))
    wq, _ = width_with_witness(poset_from_dict(read_json(q_file)))
    assert width_q == wq
    assert bound == (2 * k - 3) * w
    assert pd_width == pd_from_dict(read_json(pd_file)).width


def check_bench_row(row, p, k):
    """width is width(p); pd_width + 1 is the width of the slide's interval order."""
    assert int(row["width"]) == width_with_witness(p)[0]
    wq, _ = width_with_witness(slide_order(p, certify(p, k)))
    assert int(row["pd_width"]) + 1 == wq


def test_gen_kierstead_files(tmp_path):
    poset_file = tmp_path / "p5.json"
    order_file = tmp_path / "p5.order.json"
    assert run(["gen", "kierstead", "--q", 5, "--out", poset_file,
                "--out-order", order_file]) == 0
    d = read_json(poset_file)
    assert d["n"] == 15
    assert d["meta"] == {"kind": "kierstead", "q": 5}
    assert read_json(order_file)["order"] == list(range(15))


def test_gen_stacked_files(tmp_path):
    poset_file = tmp_path / "q54.json"
    assert run(["gen", "stacked", "--k", 5, "--w", 4, "--out", poset_file]) == 0
    assert read_json(poset_file)["n"] == 30


def test_gen_interval_empty(tmp_path):
    out = tmp_path / "empty.json"
    assert run(["gen", "interval", "--n", 0, "--out", out]) == 0
    assert read_json(out) == {"meta": {"kind": "interval", "n": 0, "seed": 0},
                              "n": 0, "relations": []}


# sha256 of each written file, so the sampler and the k+k search cannot drift
KKFREE_FILE_DIGESTS = {
    (2, 14, 3): "4d281ca05a0534d9edb1c653ced9d54f7de4f251ded489036b4caa679608db88",
    (0, 20, 4): "0452e6a74e062a973f586767d899219ccb255864fb7700ddcfb0cf5745ac03a5",
    (7, 12, 2): "5ab55075980f5c8d569be9b9017d9845d410141dec2de374827f1a2335a6b2ed",
    (11, 18, 5): "e0487a737a239dc16ed5ce60f219ae0f1b6322793d21bb1710109b78a92deea7",
}


def test_gen_kkfree_file(tmp_path):
    for (seed, n, k), digest in KKFREE_FILE_DIGESTS.items():
        out = tmp_path / f"kk-{seed}-{n}-{k}.json"
        assert run(["gen", "kkfree", "--n", n, "--k", k, "--seed", seed, "--out", out]) == 0
        d = read_json(out)
        assert d["n"] == n
        assert d["meta"] == {"seed": seed, "kind": "kkfree", "n": n, "k": k, "density": 0.5}
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("flag", ["--max-tries", "--density"])
def test_gen_kkfree_has_no_tuning_flags(tmp_path, flag):
    out = tmp_path / "kk.json"
    assert run(["gen", "kkfree", "--n", 6, "--k", 3, flag, 1, "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "interval", "--n", 3, "--range", 10, "--out", "out.json"],
    ["extend", "--poset", "2+2.json", "--k", 2, "--out-witness", "out.json"],
    ["bench", "--k", 2, "--w", 1, "--trials", 1, "--orders", 1, "--csv", "bench.csv",
     "--out-witness", "out.json"],
    ["ff", "--poset", "2+2.json", "--order", "order.json", "--expect", 2, "--out", "out.json"],
], ids=["gen-range", "extend-out-witness", "bench-out-witness", "ff-expect"])
def test_retired_flags_are_refused(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "2+2.json").write_text('{"n": 4, "relations": [[0, 1], [2, 3]]}')
    assert run(argv) == 2
    assert [f.name for f in tmp_path.iterdir()] == ["2+2.json"]


# sha256 of `gen interval` files as written through a built Poset, so the span
# writer cannot drift from it
INTERVAL_FILE_DIGESTS = {
    (1, 300): "75e496aacedd42331a531bd739376831cb2d3d218093491276cc9910e35ac449",
}


@pytest.mark.parametrize("seed, n", sorted(INTERVAL_FILE_DIGESTS))
def test_gen_interval_file_matches_the_poset_writer(tmp_path, seed, n):
    out = tmp_path / "iv.json"
    assert run(["gen", "interval", "--n", n, "--seed", seed, "--out", out]) == 0
    p = gen_interval_order(seed, n)
    meta = {"seed": seed, "kind": "interval", "n": n}
    assert out.read_text() == poset_text(p, None, meta)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INTERVAL_FILE_DIGESTS[seed, n]


def test_gen_stdout(capsys):
    assert run(["gen", "interval", "--n", 3, "--seed", 1]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3


def test_bad_args_exit_2():
    assert run(["gen", "kierstead"]) == 2  # --q missing
    assert run(["nonsense"]) == 2


def test_ff_expected_count(tmp_path, capsys):
    poset_file = tmp_path / "p5.json"
    order_file = tmp_path / "ord.json"
    run(["gen", "kierstead", "--q", 5, "--out", poset_file, "--out-order", order_file])
    assert run(["ff", "--poset", poset_file, "--order", order_file,
                "--out", tmp_path / "ff.json"]) == 0
    assert capsys.readouterr().out == "ff chains=5 n=15\n"
    # validation always runs, so the option that asked for it is gone
    assert run(["ff", "--poset", poset_file, "--order", order_file, "--validate"]) == 2


@pytest.mark.parametrize("out", ["ff.json", "-"])
def test_ff_validation_failure_exits_2(tmp_path, capsys, monkeypatch, out):
    """A partition that fails the self-check is a bug: neither written nor reported."""
    poset_file = tmp_path / "p5.json"
    order_file = tmp_path / "ord.json"
    run(["gen", "kierstead", "--q", 5, "--out", poset_file, "--out-order", order_file])
    capsys.readouterr()
    monkeypatch.setattr(cli, "validate_ff_partition", lambda p, partition: False)
    target = out if out == "-" else tmp_path / out
    assert run(["ff", "--poset", poset_file, "--order", order_file, "--out", target]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: self-check failed: output is not a First-Fit chain partition\n")
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == sorted([order_file, poset_file])  # no ff.json, no temp


def test_ff_stacked_expectation(tmp_path):
    poset_file = tmp_path / "q.json"
    order_file = tmp_path / "q.order.json"
    out = tmp_path / "ff.json"
    run(["gen", "stacked", "--k", 5, "--w", 4, "--out", poset_file,
         "--out-order", order_file])
    assert run(["ff", "--poset", poset_file, "--order", order_file, "--out", out]) == 0
    assert len(read_json(out)["chains"]) == 12


def test_ff_writes_assignment(tmp_path):
    poset_file = tmp_path / "chain.json"
    order_file = tmp_path / "ord.json"
    out = tmp_path / "ff.json"
    poset_file.write_text('{"n": 2, "relations": [[0,1]]}')
    order_file.write_text('{"order": [1,0]}')
    assert run(["ff", "--poset", poset_file, "--order", order_file, "--out", out]) == 0
    assert read_json(out) == {"chains": [[0, 1]], "assignment": [1, 1]}
    assert out.read_text() == '{"assignment":[1,1],"chains":[[0,1]]}\n'


# each command with every document flag it takes; one flag at a time goes to
# stdout while the others write files
DOCUMENT_FLAGS = {
    "gen kierstead": (["gen", "kierstead", "--q", 3], ["--out", "--out-order"]),
    "gen stacked": (["gen", "stacked", "--k", 3, "--w", 2], ["--out", "--out-order"]),
    "gen interval": (["gen", "interval", "--n", 5, "--seed", 1], ["--out"]),
    "gen kkfree": (["gen", "kkfree", "--n", 6, "--k", 3, "--seed", 2], ["--out"]),
    "ff": (["ff", "--poset", "chain.json", "--order", "ord.json"], ["--out"]),
    "extend": (["extend", "--poset", "chain.json", "--k", 2],
               ["--out-order", "--out-intervals", "--out-pd"]),
}


@pytest.mark.parametrize("argv, flag, flags", [
    pytest.param(argv, flag, flags, id=f"{command} {flag}")
    for command, (argv, flags) in DOCUMENT_FLAGS.items() for flag in flags
])
def test_dash_prints_what_the_flag_writes_to_a_file(tmp_path, capsys, monkeypatch, argv, flag,
                                                     flags):
    monkeypatch.chdir(tmp_path)
    Path("chain.json").write_text('{"n": 3, "relations": [[0,1],[2,1]]}')
    Path("ord.json").write_text('{"order": [2, 0, 1]}')
    files = {f: f"{f[2:]}.json" for f in flags}
    assert run(argv + [a for f in flags for a in (f, files[f])]) == 0
    to_file = capsys.readouterr()
    assert to_file.err == ""
    written = Path(files[flag]).read_text()
    others = [a for f in flags if f != flag for a in (f, files[f])]
    runs = [others + [flag, "-"]]
    if flag == "--out":  # gen and ff print their --out document by default
        runs.append(others)
    for rest in runs:
        assert run(argv + rest) == 0
        captured = capsys.readouterr()
        assert captured.out == written
        assert captured.err == to_file.out  # the report line, if any, moves to stderr
        assert not Path("-").exists()


def test_ff_out_file_keeps_the_report_on_stdout(tmp_path, capsys):
    poset_file = tmp_path / "chain.json"
    order_file = tmp_path / "ord.json"
    poset_file.write_text('{"n": 2, "relations": [[0,1]]}')
    order_file.write_text('{"order": [1,0]}')
    assert run(["ff", "--poset", poset_file, "--order", order_file,
                "--out", tmp_path / "ff.json"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("ff chains=1 n=2\n", "")


def test_ff_missing_file_exit_2(tmp_path):
    assert run(["ff", "--poset", tmp_path / "nope.json",
                "--order", tmp_path / "nope2.json"]) == 2


@pytest.mark.parametrize("command", ["ff", "extend"])
def test_unwritable_output_prints_no_report(tmp_path, capsys, command):
    # the report line promises files that exist, so a failed write comes first
    poset_file = tmp_path / "chain.json"
    order_file = tmp_path / "ord.json"
    poset_file.write_text('{"n": 2, "relations": [[0,1]]}')
    order_file.write_text('{"order": [1,0]}')
    missing = tmp_path / "missing"
    argv = {
        "ff": ["ff", "--poset", poset_file, "--order", order_file, "--out", missing / "ff.json"],
        "extend": ["extend", "--poset", poset_file, "--k", 2, "--out-pd", missing / "pd.json"],
    }[command]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["extend", "extend --out-pd directory",
                                     "extend --out-pd trailing slash", "gen kierstead",
                                     "gen stacked", "gen stacked --out missing"])
def test_failed_write_leaves_no_file(tmp_path, capsys, command):
    # the files are all or none: a write that fails removes the ones before it
    poset_file = tmp_path / "chain.json"
    poset_file.write_text('{"n": 3, "relations": [[0,1],[1,2]]}')
    missing = tmp_path / "missing"
    directory = tmp_path / "directory"
    directory.mkdir()
    argv, target = {
        "extend": (["extend", "--poset", poset_file, "--k", 2, "--out-order", tmp_path / "q.json",
                    "--out-intervals", tmp_path / "iv.json", "--out-pd", missing / "pd.json"],
                   missing / "pd.json"),
        "extend --out-pd directory": (["extend", "--poset", poset_file, "--k", 2, "--out-order",
                                       tmp_path / "q.json", "--out-pd", directory], directory),
        # a trailing slash names a directory that does not exist: refused up
        # front, not by the rename after q.json is in place
        "extend --out-pd trailing slash": (["extend", "--poset", poset_file, "--k", 2,
                                            "--out-order", tmp_path / "q.json",
                                            "--out-pd", f"{tmp_path}/pd.json/"],
                                           f"{tmp_path}/pd.json/"),
        "gen kierstead": (["gen", "kierstead", "--q", 3, "--out", tmp_path / "p.json",
                           "--out-order", missing / "order.json"], missing / "order.json"),
        "gen stacked": (["gen", "stacked", "--k", 3, "--w", 2, "--out", tmp_path / "p.json",
                         "--out-order", missing / "order.json"], missing / "order.json"),
        "gen stacked --out missing": (["gen", "stacked", "--k", 3, "--w", 2,
                                       "--out", missing / "p.json",
                                       "--out-order", tmp_path / "order.json"], missing / "p.json"),
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert str(target) in captured.err  # the target is named, not a temporary file
    assert sorted(tmp_path.rglob("*")) == before  # no target and no temporary file


@pytest.mark.parametrize("argv", [
    ["extend", "--poset", "chain.json", "--k", 2, "--out-order", "same.json",
     "--out-pd", "same.json"],
    ["extend", "--poset", "chain.json", "--k", 2, "--out-intervals", "same.json",
     "--out-pd", "./same.json"],
    ["extend", "--poset", "chain.json", "--k", 2, "--out-order", "same.json",
     "--out-pd", "link.json"],
    ["gen", "kierstead", "--q", 3, "--out", "same.json", "--out-order", "same.json"],
    ["gen", "stacked", "--k", 3, "--w", 2, "--out", "same.json", "--out-order", "same.json"],
    ["extend", "--poset", "chain.json", "--k", 2, "--out-order", "-", "--out-pd", "-"],
    ["gen", "kierstead", "--q", 2, "--out", "-", "--out-order", "-"],
    ["gen", "stacked", "--k", 3, "--w", 2, "--out-order", "-"],
], ids=["extend", "extend ./", "extend symlink", "gen kierstead", "gen stacked", "extend stdout",
        "gen kierstead stdout", "gen stacked stdout by default"])
def test_output_path_named_twice_exits_2(tmp_path, capsys, monkeypatch, argv):
    # the second rename would replace the first document without a word, and a
    # second document on stdout would follow the first
    monkeypatch.chdir(tmp_path)
    Path("chain.json").write_text('{"n": 3, "relations": [[0,1],[1,2]]}')
    Path("link.json").symlink_to("same.json")
    before = sorted(tmp_path.iterdir())
    assert run(argv) == 2
    captured = capsys.readouterr()
    first = "-" if argv[-1] == "-" else "same.json"
    assert (captured.out, captured.err) == (
        "", f"error: output paths '{first}' and '{argv[-1]}' name one file\n")
    assert sorted(tmp_path.iterdir()) == before  # no target and no temporary file


def test_output_path_through_a_symlink_loop_is_written(tmp_path, capsys, monkeypatch):
    # realpath leaves a loop unresolved where Path.resolve would raise
    monkeypatch.chdir(tmp_path)
    Path("chain.json").write_text('{"n": 3, "relations": [[0,1],[1,2]]}')
    Path("a.json").symlink_to("b.json")
    Path("b.json").symlink_to("a.json")
    assert run(["extend", "--poset", "chain.json", "--k", 2, "--out-pd", "a.json",
                "--out-order", "b.json"]) == 0
    assert read_json("a.json")["bags"] and read_json("b.json")["n"] == 3


@pytest.mark.parametrize("argv", [
    ["extend", "--k", 2, "--out-order", ""],
    ["extend", "--k", 2, "--out-intervals", ""],
    ["extend", "--k", 2, "--out-pd", ""],
    ["gen", "stacked", "--k", 3, "--w", 2, "--out-order", ""],
    ["gen", "interval", "--n", 3, "--out", ""],
    ["ff", "--order", "ord.json", "--out", ""],
], ids=["extend --out-order", "extend --out-intervals", "extend --out-pd",
        "gen stacked --out-order", "gen interval --out", "ff --out"])
def test_empty_output_path_exits_2(tmp_path, capsys, monkeypatch, argv):
    # an empty path names the working directory: refused up front, never skipped as if unset
    monkeypatch.chdir(tmp_path)
    Path("chain.json").write_text('{"n": 3, "relations": [[0,1],[1,2]]}')
    Path("ord.json").write_text('{"order": [0, 1, 2]}')
    if argv[0] != "gen":
        argv = [argv[0], "--poset", "chain.json", *argv[1:]]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: output path '' is a directory\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["chain.json", "ord.json"]


def test_written_files_replace_their_targets(tmp_path, capsys):
    poset_file = tmp_path / "chain.json"
    poset_file.write_text('{"n": 3, "relations": [[0,1],[1,2]]}')
    q_file = tmp_path / "q.json"
    q_file.write_text("stale")
    assert run(["extend", "--poset", poset_file, "--k", 2, "--out-order", q_file]) == 0
    assert read_json(q_file)["n"] == 3
    assert sorted(f.name for f in tmp_path.iterdir()) == ["chain.json", "q.json"]


def test_extend_success(tmp_path, capsys):
    poset_file = tmp_path / "io.json"
    run(["gen", "interval", "--n", 30, "--seed", 7, "--out", poset_file])
    q_file = tmp_path / "q.json"
    iv_file = tmp_path / "iv.json"
    pd_file = tmp_path / "pd.json"
    assert run(["extend", "--poset", poset_file, "--k", 2, "--out-order", q_file,
                "--out-intervals", iv_file, "--out-pd", pd_file]) == 0
    check_extend_report(capsys.readouterr().out, poset_file, q_file, pd_file, 2)
    p = poset_from_dict(read_json(poset_file))
    pd = pd_from_dict(read_json(pd_file))
    assert validate_path_decomposition(incomparability_graph(p), pd)
    wq, _ = width_with_witness(poset_from_dict(read_json(q_file)))
    w, _ = width_with_witness(p)
    assert wq <= w
    assert len(read_json(iv_file)["intervals"]) == p.n


def test_extend_builds_one_poset(tmp_path, capsys, monkeypatch):
    """With or without --out-order, extend constructs only the input's Poset,
    and its report and shared files are the same.  Posets are counted on
    both paths: the checked constructor and the adopting ``_closed``."""
    poset_file = tmp_path / "stacked.json"
    run(["gen", "stacked", "--k", 4, "--w", 3, "--out", poset_file])
    doc = read_json(poset_file)
    p = poset_from_dict(doc)
    q = slide_order(p, certify(p, 4))
    q_reference = poset_text(q, doc["names"], None)
    built = []
    init = Poset.__init__
    closed = Poset._closed

    def counting_init(self, n, *args, **kwargs):
        built.append(n)
        init(self, n, *args, **kwargs)

    def counting_closed(n, *args, **kwargs):
        built.append(n)
        return closed(n, *args, **kwargs)

    monkeypatch.setattr(Poset, "__init__", counting_init)
    monkeypatch.setattr(Poset, "_closed", staticmethod(counting_closed))
    reports = []
    for name, extra in (("full", ["--out-order", tmp_path / "full" / "q.json"]), ("lean", [])):
        (tmp_path / name).mkdir()
        built.clear()
        assert run(["extend", "--poset", poset_file, "--k", 4, *extra,
                    "--out-intervals", tmp_path / name / "iv.json",
                    "--out-pd", tmp_path / name / "pd.json"]) == 0
        assert built == [p.n]
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert sorted(f.name for f in (tmp_path / "lean").iterdir()) == ["iv.json", "pd.json"]
    for name in ("iv.json", "pd.json"):
        assert (tmp_path / "lean" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
    assert (tmp_path / "full" / "q.json").read_text() == q_reference


def test_extend_order_keeps_names(tmp_path, capsys):
    poset_file = tmp_path / "named.json"
    poset_file.write_text('{"n": 3, "relations": [[0, 1]], "names": ["a", "b", "c"]}')
    q_file = tmp_path / "q.json"
    assert run(["extend", "--poset", poset_file, "--k", 2, "--out-order", q_file]) == 0
    assert read_json(q_file)["names"] == ["a", "b", "c"]


@pytest.mark.parametrize("doc, k", [
    ('{"n": 0, "relations": []}', 2),
    ('{"n": 6, "relations": []}', 2),
    ('{"n": 6, "relations": []}', 3),
    ('{"n": 4, "relations": [[0, 1], [1, 2], [2, 3]]}', 3),
])
def test_extend_report_on_small_inputs(tmp_path, capsys, doc, k):
    poset_file = tmp_path / "p.json"
    poset_file.write_text(doc)
    q_file, pd_file = tmp_path / "q.json", tmp_path / "pd.json"
    assert run(["extend", "--poset", poset_file, "--k", k, "--out-order", q_file,
                "--out-pd", pd_file]) == 0
    check_extend_report(capsys.readouterr().out, poset_file, q_file, pd_file, k)


DEEP = "[" * 100000  # nests past the JSON parser's recursion limit
LONG_INT = '{"n": ' + "1" * 5000 + ', "relations": []}'  # past the int digit limit
NOT_UTF8 = b'{"n": 2, "relations": []}\xff'
HUGE_N = '{"n": 1000000000, "relations": []}'  # past jsonio.MAX_ELEMENTS
BAD_POSETS = [
    '{"relations": [[0, 1]]}',
    '[1, 2]',
    '{"n": "2", "relations": []}',
    '{"n": 2.0, "relations": []}',
    '{"n": 2, "relations": [[0, 1, 1]]}',
    '{"n": 2, "relations": [[0, "1"]]}',
    '{"n": 2, "relations": [0, 1]}',
    '{"n": 2, "relations": {}}',
    '{"n": 2, "relations": [], "names": 5}',
    DEEP,
    LONG_INT,
    NOT_UTF8,
    HUGE_N,
]
BAD_ORDERS = ['[1, 2]', '{}', '{"order": 5}', '{"order": [0.0, 1]}', '{"order": [0, 0]}', DEEP,
              '{"order": [0]}']
GOOD_POSET, GOOD_ORDER = '{"n": 2, "relations": [[0, 1]]}', '{"order": [1, 0]}'
IDS = {DEEP: "deep", LONG_INT: "long-int", NOT_UTF8: "not-utf8", HUGE_N: "huge-n"}


def write_doc(path, doc):
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc)


@pytest.mark.parametrize("command, poset_doc, arg", [
    *[("ff", doc, GOOD_ORDER) for doc in BAD_POSETS],
    *[("ff", GOOD_POSET, doc) for doc in BAD_ORDERS],
    *[("extend", doc, 2) for doc in BAD_POSETS],
    ("extend", GOOD_POSET, 1),
], ids=IDS.get)
def test_malformed_input_exits_2(tmp_path, capsys, command, poset_doc, arg):
    # arg is the order document for ff and --k for extend
    poset_file = tmp_path / "p.json"
    write_doc(poset_file, poset_doc)
    if command == "extend":
        argv = [command, "--poset", poset_file, "--k", arg]
    else:
        order_file = tmp_path / "o.json"
        write_doc(order_file, arg)
        argv = [command, "--poset", poset_file, "--order", order_file]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def loaded(loader, doc):
    """What the loader makes of the document, or None if it refuses it."""
    try:
        return loader(doc)
    except PosetFFError:
        return None


def run_on_files(argv, docs):
    """Exit code, stdout and stderr of ``main`` with each document written to its flag's file."""
    with tempfile.TemporaryDirectory() as folder:
        for flag, doc in docs.items():
            path = Path(folder) / f"{flag}.json"
            path.write_text(json.dumps(doc))
            argv = [*argv, f"--{flag}", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_refused(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def fuzzed(data, valid, label):
    """An arbitrary value or document-shaped object, or half the time a valid
    document, as it reads back from JSON text."""
    return json.loads(json.dumps(data.draw(valid if data.draw(st.booleans()) else DOCUMENTS,
                                           label=label)))


VALID_POSETS = posets(max_n=8).map(lambda p: json.loads(poset_text(p, None, None)))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_ff_files_exit_0_or_2(data):
    poset_doc = fuzzed(data, VALID_POSETS, "poset")
    p = loaded(poset_from_dict, poset_doc)
    n = data.draw(st.integers(0, 4)) if p is None else p.n
    order_doc = fuzzed(data, st.permutations(range(n)).map(lambda order: {"order": order}), "order")
    order = loaded(order_from_dict, order_doc)
    code, out, err = run_on_files(["ff"], {"poset": poset_doc, "order": order_doc})
    if p is None or order is None or len(order) != p.n:
        assert_refused(code, out, err)
    else:
        assert (code, err) == (0, f"ff chains={len(json.loads(out)['chains'])} n={p.n}\n")


@given(data=st.data(), k=st.integers(2, 3))
@settings(max_examples=200, deadline=None)
def test_fuzzed_extend_files_exit_0_1_or_2(data, k):
    doc = fuzzed(data, VALID_POSETS, "poset")
    p = loaded(poset_from_dict, doc)
    code, out, err = run_on_files(["extend", "--k", k], {"poset": doc})
    if p is None:
        assert_refused(code, out, err)
    elif code == 0:
        # the slide may also get through a poset that holds a k+k
        assert err == "" and re.fullmatch(r"width_q=\d+ bound=\d+ pd_width=-?\d+\n", out)
    else:
        witness = json.loads(out)
        assert (code, err, witness["k"]) == (1, "", k)
        assert KkWitness(tuple(witness["a"]), tuple(witness["b"])).is_valid(p)


def test_library_raises_only_its_own_errors():
    # cli.main turns exactly OSError and PosetFFError into exit 2, so any other
    # raise in the package would reach the user as a traceback
    for path in sorted((SRC / "posetff").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare re-raise
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(errors, exc.id, None) if isinstance(exc, ast.Name) else None
            assert isinstance(cls, type) and issubclass(cls, PosetFFError), (
                f"{path.name}:{node.lineno} raises {ast.unparse(node.exc)}")


def test_library_imports_only_names_it_uses():
    # a deletion that leaves its import behind shows up here; star imports re-export
    for path in sorted((SRC / "posetff").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).partition(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
        assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_extend_witness_exit_1(tmp_path, capsys):
    poset_file = tmp_path / "bad.json"
    poset_file.write_text('{"n": 4, "relations": [[0,1],[2,3]]}')
    assert run(["extend", "--poset", poset_file, "--k", 2]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["k"] == 2
    assert out == canonical_dumps(payload)


def test_extend_witness_ignores_every_document_flag(tmp_path, capsys):
    # exit 1 means the witness alone on stdout, whatever the flags asked for
    poset_file = tmp_path / "bad.json"
    poset_file.write_text('{"n": 4, "relations": [[0,1],[2,3]]}')
    assert run(["extend", "--poset", poset_file, "--k", 2, "--out-order", "-",
                "--out-intervals", tmp_path / "iv.json", "--out-pd", tmp_path / "pd.json"]) == 1
    assert capsys.readouterr() == ('{"a":[0,1],"b":[2,3],"k":2}\n', "")
    assert list(tmp_path.iterdir()) == [poset_file]


@pytest.mark.parametrize("target, out, err", [
    ("doc.txt", "note\n", ""),
    ("-", "doc\n", "note\n"),
    (None, "note\n", ""),
], ids=["file", "stdout", "none"])
def test_write_files_puts_the_note_where_no_document_went(tmp_path, capsys, monkeypatch,
                                                         target, out, err):
    monkeypatch.chdir(tmp_path)
    cli._write_files([(target, lambda: "doc\n")], "note\n")
    assert capsys.readouterr() == (out, err)
    cli._write_files([(target, lambda: "doc\n")], "")
    assert capsys.readouterr() == ("doc\n" if target == "-" else "", "")
    assert [f.name for f in tmp_path.iterdir()] == (["doc.txt"] if target == "doc.txt" else [])


def test_write_files_prints_no_note_after_a_failed_write(tmp_path, capsys):
    with pytest.raises(OSError):
        cli._write_files([("-", lambda: "doc\n"), (f"{tmp_path}/missing/doc.txt",
                                                   lambda: "doc\n")], "note\n")
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []


def test_extend_ladder_with_k4(tmp_path, capsys):
    poset_file = tmp_path / "p5.json"
    run(["gen", "kierstead", "--q", 5, "--out", poset_file])
    pd_file = tmp_path / "pd.json"
    assert run(["extend", "--poset", poset_file, "--k", 4, "--out-pd", pd_file]) == 0
    pd = pd_from_dict(read_json(pd_file))
    assert pd.width <= (2 * 4 - 3) * 2 - 1


def test_bench_rows_respect_bound(tmp_path):
    csv_file = tmp_path / "bench.csv"
    assert run(["bench", "--k", 3, "--w", 3, "--trials", 4, "--orders", 10,
                "--seed", 1, "--csv", csv_file]) == 0
    with open(csv_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert int(row["ff_chains"]) <= int(row["bound"])
        assert int(row["bound"]) == 8 * 3 * int(row["width"])
        p = gen_kk_free(instance_seed(row), int(row["n"]), 3)
        check_bench_row(row, p, 3)
    seeds = [instance_seed(row) for row in rows]
    assert seeds == sorted(seeds)


def test_bench_k2_uses_interval_orders(tmp_path):
    csv_file = tmp_path / "bench2.csv"
    assert run(["bench", "--k", 2, "--w", 3, "--trials", 3, "--orders", 8,
                "--seed", 5, "--csv", csv_file]) == 0
    with open(csv_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["kind"] == "interval" for row in rows)
    for row in rows:
        assert int(row["ff_chains"]) <= 8 * int(row["width"])
        check_bench_row(row, gen_interval_order(instance_seed(row), int(row["n"])), 2)


def test_bench_zero_trials_header_only(tmp_path):
    csv_file = tmp_path / "empty.csv"
    assert run(["bench", "--k", 3, "--w", 2, "--trials", 0, "--orders", 5,
                "--csv", csv_file]) == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines == ["kind,params,n,width,k,ff_chains,bound,pd_width,seconds"]


@pytest.mark.parametrize("flag, value", [
    ("--k", 1), ("--w", 0), ("--w", -2), ("--trials", -1), ("--orders", 0), ("--orders", -1),
])
def test_bench_rejects_out_of_range_sizes(tmp_path, capsys, flag, value):
    csv_file = tmp_path / "rejected.csv"
    argv = {"--k": 3, "--w": 2, "--trials": 1, "--orders": 5}
    argv[flag] = value
    assert run(["bench", *[a for kv in argv.items() for a in kv], "--csv", csv_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bench needs {flag} >= ") and "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not csv_file.exists()


OVERSIZED = [
    (["gen", "interval", "--n", 65537, "--seed", 1], "n would be 65537"),
    (["gen", "kkfree", "--n", 65537, "--k", 3], "n would be 65537"),
    (["gen", "kierstead", "--q", 362], "n would be 65703"),
    (["gen", "stacked", "--k", 30, "--w", 152], "n would be 65685"),
    (["bench", "--k", 2, "--w", 8193, "--trials", 1, "--orders", 1], "n would be 65544"),
]


@pytest.mark.parametrize("argv, message", OVERSIZED,
                         ids=[" ".join(map(str, argv[:2])) for argv, _ in OVERSIZED])
def test_oversized_requests_exit_2_before_building(tmp_path, capsys, monkeypatch, argv, message):
    def never(*args):
        raise AssertionError("an oversized instance was built")

    for builder in ("kierstead", "stacked", "random_intervals", "gen_kk_free",
                    "gen_interval_order"):
        monkeypatch.setattr(cli, builder, never)
    out = tmp_path / "out"
    files = ["--csv", out] if argv[0] == "bench" else ["--out", out]
    if argv[1] in ("kierstead", "stacked"):
        files += ["--out-order", tmp_path / "order"]
    assert run(argv + files) == 2
    assert capsys.readouterr().err == f"error: {message}, above the limit of 65536 elements\n"
    assert list(tmp_path.iterdir()) == []


def test_size_check_leaves_parameter_errors_to_the_builders(capsys):
    assert run(["gen", "kierstead", "--q", -400]) == 2
    assert capsys.readouterr().err == "error: q must be at least 1\n"
    assert run(["gen", "stacked", "--k", -400, "--w", 3]) == 2
    assert capsys.readouterr().err == "error: k must be at least 3\n"


def test_size_limit_is_the_loaders():
    cli._check_size(MAX_ELEMENTS)
    with pytest.raises(ParamError):
        cli._check_size(MAX_ELEMENTS + 1)


def test_bench_violation_exits_1(tmp_path, capsys, monkeypatch):
    # First-Fit never beats the bound on k+k-free input, so a fake run reports
    # 1000 chains plus the order's first element: the worst order is the one
    # that starts highest
    monkeypatch.setattr(cli, "first_fit_chains",
                        lambda p, order: SimpleNamespace(chain_count=1000 + order.order[0]))
    csv_file = tmp_path / "bench.csv"
    assert run(["bench", "--k", 2, "--w", 1, "--trials", 2, "--orders", 5, "--seed", 3,
                "--csv", csv_file]) == 1
    out = capsys.readouterr().out
    violation = json.loads(out)
    assert out == canonical_dumps(violation)
    with open(csv_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    first = rows[0]
    assert sorted(violation) == ["bound", "ff_chains", "instance_seed", "order"]
    assert (violation["instance_seed"], violation["ff_chains"], violation["bound"]) == (
        instance_seed(first), int(first["ff_chains"]), int(first["bound"]))
    assert sorted(violation["order"]) == list(range(int(first["n"])))
    assert violation["ff_chains"] == 1000 + violation["order"][0] > violation["bound"]


BENCH = ["bench", "--k", 2, "--w", 1, "--trials", 2, "--orders", 3, "--seed", 4]


def test_bench_csv_dash_prints_the_file(tmp_path, capsys, monkeypatch):
    # a fixed clock makes the seconds column, and so the whole table, repeat
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    monkeypatch.chdir(tmp_path)
    assert run(BENCH + ["--csv", "bench.csv"]) == 0
    assert capsys.readouterr() == ("", "")
    assert run(BENCH + ["--csv", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == Path("bench.csv").read_bytes()
    assert captured.out.startswith(",".join(cli.CSV_COLUMNS) + "\r\n")
    assert captured.err == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bench.csv"]


def test_bench_violation_goes_to_stderr_with_the_csv_on_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    monkeypatch.setattr(cli, "first_fit_chains",
                        lambda p, order: SimpleNamespace(chain_count=1000 + order.order[0]))
    monkeypatch.chdir(tmp_path)
    assert run(BENCH + ["--csv", "bench.csv"]) == 1
    to_file = capsys.readouterr()
    assert run(BENCH + ["--csv", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out.encode() == Path("bench.csv").read_bytes()
    assert captured.err == to_file.out == canonical_dumps(json.loads(to_file.out))
    assert to_file.err == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bench.csv"]


def test_bench_csv_directory_exits_2(tmp_path, capsys):
    assert run(BENCH + ["--csv", tmp_path]) == 2
    assert capsys.readouterr() == ("", f"error: output path {str(tmp_path)!r} is a directory\n")
    assert list(tmp_path.iterdir()) == []


def test_bench_witness_on_generated_instance_exits_2(tmp_path, capsys, monkeypatch):
    # generated instances are k+k-free, so only a bug can make the slide return a witness
    witness = certify(build_poset(4, [(0, 1), (2, 3)]), 2)
    assert isinstance(witness, KkWitness)
    monkeypatch.setattr(cli, "certify", lambda p, k: witness)
    argv = ["bench", "--k", 2, "--w", 1, "--trials", 1, "--orders", 1,
            "--csv", tmp_path / "bench.csv"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    args = cli._build_parser().parse_args([str(a) for a in argv])
    with pytest.raises(InternalError):
        cli.cmd_bench(args)


def test_main_runs_the_cmd_attribute_of_the_module(tmp_path, monkeypatch):
    # the parser is built once, so dispatch must not bind the handlers into it
    poset_file = tmp_path / "p.json"
    assert run(["gen", "kierstead", "--q", 3, "--out", poset_file]) == 0
    seen = []

    def fake_extend(args):
        seen.append((args.poset, args.k))
        return 7

    monkeypatch.setattr(cli, "cmd_extend", fake_extend)
    assert run(["extend", "--poset", poset_file, "--k", 2]) == 7
    assert seen == [(str(poset_file), 2)]
    assert cli._build_parser() is cli._build_parser()


def test_console_entry_point_via_module(tmp_path):
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "posetff", "gen", "kierstead", "--q", "3",
         "--out", str(out)],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert read_json(out)["n"] == 6


def test_extend_reads_a_utf8_poset_file_under_an_ascii_locale(tmp_path):
    # the file's bytes are UTF-8 whatever the locale's preferred encoding
    poset_file, q_file = tmp_path / "p.json", tmp_path / "q.json"
    poset_file.write_bytes('{"n":1,"names":["\u00e9"],"relations":[]}'.encode())
    proc = subprocess.run(
        [sys.executable, "-m", "posetff", "extend", "--poset", str(poset_file), "--k", "2",
         "--out-order", str(q_file)],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "LC_ALL": "C", "PYTHONUTF8": "0"},
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert read_json(q_file)["names"] == ["\u00e9"]
