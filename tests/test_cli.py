import json

import pytest

from weakindex import catalog, cli
from weakindex.automata import IndexPair, index_of
from weakindex.cli import main
from weakindex.formats import parse_automaton, serialize_automaton, serialize_regular_tree
from weakindex.trees import constant_tree


@pytest.fixture
def all_a_file(tmp_path):
    p = tmp_path / "all_a.aut"
    p.write_text(serialize_automaton(catalog.all_a()))
    return str(p)


def write_catalog(tmp_path, name):
    p = tmp_path / f"{name}.aut"
    p.write_text(serialize_automaton(catalog.get(name)))
    return str(p)


def test_classify_text_output(all_a_file, capsys):
    assert main(["classify", all_a_file]) == 0
    out = capsys.readouterr().out
    assert "borel: Pi^0_1" in out
    assert "weak_alt_index: (0,1)" in out


def test_classify_split_min_reports_non_borel(tmp_path, capsys):
    path = write_catalog(tmp_path, "split_min")
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "borel: non-Borel" in out
    assert "non-weakly-recognizable" in out


def test_classify_json_round_trips(all_a_file, capsys):
    assert main(["classify", all_a_file, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["borel"] == "Pi^0_1"
    assert d["weak_alt_index"] == [[0, 1]]
    assert d["det_index"] == [0, 1]


def test_classify_witnesses_flag(tmp_path, capsys):
    path = write_catalog(tmp_path, "inf_b_left")
    assert main(["classify", path, "--witnesses"]) == 0
    assert "blocked" in capsys.readouterr().out


def test_malformed_file_exits_3(tmp_path, capsys):
    p = tmp_path / "bad.aut"
    p.write_text("alphabet a\nstate q mode A rank 0\nacceptance parity\n")
    assert main(["classify", str(p)]) == 3


def _exits_3_with_one_line(path, capsys):
    assert main(["classify", path]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_missing_file_exits_3(capsys):
    _exits_3_with_one_line("/nonexistent/xyz.aut", capsys)


def test_directory_exits_3(tmp_path, capsys):
    _exits_3_with_one_line(str(tmp_path), capsys)


def test_non_utf8_file_exits_3(tmp_path, capsys):
    p = tmp_path / "latin1.aut"
    p.write_bytes(b"# caf\xe9\nalphabet a\n")
    _exits_3_with_one_line(str(p), capsys)


def test_weaken_writes_automaton(tmp_path, capsys):
    path = write_catalog(tmp_path, "inf_b_left")
    out = tmp_path / "weak.aut"
    assert main(["weaken", path, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# construction:")
    a = parse_automaton(text)
    assert len(a.states) == 7
    assert index_of(a) == IndexPair(0, 2)


def test_weaken_gap_case_exits_4(tmp_path, capsys):
    path = write_catalog(tmp_path, "spine_fin_b")
    assert main(["weaken", path]) == 4
    assert "(0,3)" in capsys.readouterr().err


def test_weaken_non_borel_exits_5(tmp_path, capsys):
    path = write_catalog(tmp_path, "split_min")
    assert main(["weaken", path]) == 5


def test_a_name_of_two_words_exits_3(all_a_file, capsys):
    # the format's names are one token, so this file's name could not round-trip
    with open(all_a_file) as f:
        text = f.read().replace("name all_a", "name all a", 1)
    with open(all_a_file, "w") as f:
        f.write(text)
    for command in ("classify", "weaken", "patterns", "dot"):
        assert main([command, all_a_file]) == 3
        assert capsys.readouterr().err == "invalid input: line 1: name takes exactly one token\n"


def test_deterministic_with_tokens_exits_3(all_a_file, capsys):
    # such a file used to parse as deterministic and exit 0
    with open(all_a_file) as f:
        text = f.read()
    assert "\ndeterministic\n" in text
    with open(all_a_file, "w") as f:
        f.write(text.replace("\ndeterministic\n", "\ndeterministic yes please\n"))
    line = text[:text.index("\ndeterministic\n")].count("\n") + 2
    for command in ("classify", "weaken", "patterns", "dot"):
        assert main([command, all_a_file]) == 3
        assert capsys.readouterr().err == (
            f"invalid input: line {line}: deterministic takes no tokens\n")


def test_a_header_given_twice_exits_3(all_a_file, tmp_path, capsys):
    tree = tmp_path / "t.rt"
    tree.write_text("arity 2\nroot n\nroot n\nnode n a n n\n")
    for argv in (["member", all_a_file, str(tree)], ["dot", str(tree)]):
        assert main(argv) == 3
        assert capsys.readouterr().err == "invalid input: line 3: directive 'root' given twice\n"
    with open(all_a_file) as f:
        text = f.read()
    with open(all_a_file, "w") as f:
        f.write(text + "alphabet b\n")
    line = text.count("\n") + 1
    message = f"invalid input: line {line}: directive 'alphabet' given twice\n"
    for command in ("classify", "member", "dot"):
        assert main([command, all_a_file] + [str(tree)] * (command == "member")) == 3
        assert capsys.readouterr().err == message


def test_member_exit_codes(all_a_file, tmp_path):
    ta = tmp_path / "t_a.rt"
    ta.write_text(serialize_regular_tree(constant_tree("a")))
    tb = tmp_path / "t_b.rt"
    tb.write_text(serialize_regular_tree(constant_tree("b")))
    assert main(["member", all_a_file, str(ta)]) == 0
    assert main(["member", all_a_file, str(tb)]) == 1
    broken = tmp_path / "broken.rt"
    broken.write_text("arity 2\nroot n\n")  # no node lines
    assert main(["member", all_a_file, str(broken)]) == 3


def test_compare_self_passes(all_a_file, capsys):
    assert main(["compare", all_a_file, all_a_file, "--samples", "50"]) == 0
    assert "pass" in capsys.readouterr().out


def test_compare_mismatch_prints_tree(all_a_file, tmp_path, capsys):
    other = write_catalog(tmp_path, "ex_b_left")
    assert main(["compare", all_a_file, other, "--samples", "50"]) == 1
    out = capsys.readouterr().out
    assert "counterexample" in out and "node" in out


def test_patterns_listing(tmp_path, capsys):
    path = write_catalog(tmp_path, "inf_b_left")
    assert main(["patterns", path]) == 0
    out = capsys.readouterr().out
    assert "loop_tops q1: 1 2" in out
    assert "flower (1,2)" in out


def test_fixture_catalog_and_skurczynski(tmp_path, capsys):
    assert main(["fixture", "catalog", "all_a"]) == 0
    text = capsys.readouterr().out
    assert parse_automaton(text).name == "all_a"

    assert main(["fixture", "skurczynski", "0,2"]) == 0
    a = parse_automaton(capsys.readouterr().out)
    assert index_of(a) == IndexPair(0, 2)
    assert a.acceptance == "weak"

    assert main(["fixture", "catalog", "nope"]) == 2
    capsys.readouterr()
    assert main(["fixture", "skurczynski", "zz"]) == 2
    assert main(["fixture", "bogus", "x"]) == 2  # argparse refuses the kind


def test_fixture_skurczynski_at_a_deep_index(tmp_path, capsys):
    out = tmp_path / "f.aut"
    assert main(["fixture", "skurczynski", "0,600", "--out", str(out)]) == 0
    assert index_of(parse_automaton(out.read_text())) == IndexPair(0, 600)


def test_dot_export(all_a_file, tmp_path, capsys):
    assert main(["dot", all_a_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"p" -> "_bot"' in out

    tp = tmp_path / "t.rt"
    tp.write_text(serialize_regular_tree(constant_tree("a")))
    assert main(["dot", str(tp)]) == 0
    assert "digraph tree" in capsys.readouterr().out


def test_dot_invalid_automaton_reports_its_own_error(tmp_path, capsys):
    p = tmp_path / "bad.aut"
    p.write_text("alphabet a\nstart p\nstate p mode E rank 0\n"
                 "trans p a 0 p\ntrans p a 1 p\nacceptance parity\ndeterministic\n")
    assert main(["classify", str(p)]) == 3
    expected = capsys.readouterr().err
    assert "state p: deterministic automata are all-universal" in expected
    assert main(["dot", str(p)]) == 3
    assert capsys.readouterr().err == expected


def test_dot_malformed_tree_reports_tree_error(tmp_path, capsys):
    p = tmp_path / "bad.rt"
    p.write_text("arity 2\nroot n0\nnode n0 a n0\n")
    assert main(["dot", str(p)]) == 3
    err = capsys.readouterr().err
    assert "exactly 2 child ids" in err and "Traceback" not in err


def test_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_parser_is_built_once_and_prints_as_a_fresh_one(monkeypatch, capsys):
    """`--help` and a usage error print the same bytes and exit the same
    on a second call in one process, with no parser built for it, as a
    fresh `build_parser()` does."""
    fresh = cli.build_parser

    def refuse():
        raise AssertionError("main built a second parser")

    for argv, code in ((["--help"], 0), (["frobnicate"], 2)):
        first = (main(argv), *capsys.readouterr())
        monkeypatch.setattr(cli, "build_parser", refuse)
        second = (main(argv), *capsys.readouterr())
        monkeypatch.undo()
        with pytest.raises(SystemExit) as exit_:
            fresh().parse_args(argv)
        assert exit_.value.code == code
        assert first == second == (code, *capsys.readouterr())
        _, out, err = first
        assert err if code else out  # help on stdout, the usage error on stderr


def test_deterministic_reports(all_a_file, capsys):
    main(["classify", all_a_file, "--json"])
    first = capsys.readouterr().out
    main(["classify", all_a_file, "--json"])
    second = capsys.readouterr().out
    a, b = json.loads(first), json.loads(second)
    a.pop("trim_seconds"), a.pop("classify_seconds")
    b.pop("trim_seconds"), b.pop("classify_seconds")
    assert a == b

