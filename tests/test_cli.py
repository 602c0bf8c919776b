import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stretchfactor import (
    InputError,
    make_automorphism,
    parse_generator_expression,
    parse_map_text,
)
from stretchfactor.boundary import Budget
from stretchfactor.cli import run
from stretchfactor.measures import load_markov_spec, uniform_as_markov

from oracles import dump_markov_spec


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_length_nielsen():
    code, out = invoke(
        ["length", "--rank", "2", "--map", "a->a,b->ba", "--inverse", "a->a,b->bA"]
    )
    assert code == 0
    assert out.splitlines()[0] == "length = 7/6 (decimal approx 1.16666666667)"


def test_length_expression_needs_no_inverse():
    code, out = invoke(["length", "--rank", "2", "--map", "W2[a; b:RIGHT]"])
    assert code == 0
    assert "length = 7/6" in out


def test_missing_inverse_is_input_error():
    code, _ = invoke(["length", "--rank", "2", "--map", "a->a,b->ab"])
    assert code == 2


def test_not_inverse_is_input_error():
    code, _ = invoke(
        ["length", "--rank", "2", "--map", "a->a,b->ba", "--inverse", "a->a,b->ba"]
    )
    assert code == 2


def test_budget_exhaustion_exit_code():
    code, _ = invoke(
        [
            "preimage", "--rank", "2", "--map", "W2[a; b:RIGHT]",
            "--target", "ab", "--budget", "3",
        ]
    )
    assert code == 3


def test_output_is_deterministic():
    argv = ["pushforward", "--rank", "2", "--map", "W2[a; b:RIGHT]", "--depth", "2"]
    assert invoke(argv) == invoke(argv)


def test_json_round_trip():
    code, out = invoke(
        ["length", "--rank", "2", "--map", "W2[a; b:RIGHT]", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "7/6"
    assert doc["breakdown"]["a"] == "1/3"


def test_preimage_listing():
    code, out = invoke(
        ["preimage", "--rank", "2", "--map", "W2[a; b:RIGHT]", "--target", "a"]
    )
    assert code == 0
    assert out.splitlines()[1:3] == ["  aa", "  ab"]
    assert "uniform mass = 1/6" in out


def test_recenter_output():
    code, out = invoke(["recenter", "--rank", "2", "--map", "inner[ab]"])
    assert code == 0
    assert "v = ab" in out and "a->a,b->b" in out


def test_factorize_output():
    code, out = invoke(["factorize", "--rank", "2", "--map", "W2[a; b:RIGHT]"])
    assert code == 0
    assert "lengths = 1/1, 7/6" in out


_SPECTRUM_STDOUT = {
    "text": """\
1/1 (decimal approx 1) multiplicity 8 rep a,b
7/6 (decimal approx 1.16666666667) multiplicity 32 rep a,ab
13/9 (decimal approx 1.44444444444) multiplicity 32 rep a,aab
29/18 (decimal approx 1.61111111111) multiplicity 32 rep ab,aab
95/54 (decimal approx 1.75925925926) multiplicity 4 rep a,aaab
341/162 (decimal approx 2.1049382716) multiplicity 4 rep abb,abbb
119/54 (decimal approx 2.2037037037) multiplicity 4 rep ab,ababb
193/81 (decimal approx 2.38271604938) multiplicity 4 rep aab,aabab
min gap = 8/81
""",
    "csv": """\
length_num,length_den,multiplicity,representative
1,1,8,"a,b"
7,6,32,"a,ab"
13,9,32,"a,aab"
29,18,32,"ab,aab"
95,54,4,"a,aaab"
341,162,4,"abb,abbb"
119,54,4,"ab,ababb"
193,81,4,"aab,aabab"
""",
    "json": (
        '{"entries": ['
        '{"length": "1/1", "multiplicity": 8, "representative": "a,b"}, '
        '{"length": "7/6", "multiplicity": 32, "representative": "a,ab"}, '
        '{"length": "13/9", "multiplicity": 32, "representative": "a,aab"}, '
        '{"length": "29/18", "multiplicity": 32, "representative": "ab,aab"}, '
        '{"length": "95/54", "multiplicity": 4, "representative": "a,aaab"}, '
        '{"length": "341/162", "multiplicity": 4, "representative": "abb,abbb"}, '
        '{"length": "119/54", "multiplicity": 4, "representative": "ab,ababb"}, '
        '{"length": "193/81", "multiplicity": 4, "representative": "aab,aabab"}'
        '], "min_gap": "8/81"}\n'
    ),
}


@pytest.mark.parametrize("fmt", sorted(_SPECTRUM_STDOUT))
def test_spectrum_stdout_is_pinned(fmt):
    code, out = invoke(
        ["spectrum", "--rank", "2", "--max-factors", "3", "--format", fmt]
    )
    assert code == 0
    assert out == _SPECTRUM_STDOUT[fmt]


_RANK3_SPECTRUM_STDOUT = {
    "text": """\
1/1 (decimal approx 1) multiplicity 48 rep a,b,c
6/5 (decimal approx 1.2) multiplicity 24 rep a,b,ac
19/15 (decimal approx 1.26666666667) multiplicity 18 rep a,b,acA
min gap = 1/15
""",
    "json": (
        '{"entries": ['
        '{"length": "1/1", "multiplicity": 48, "representative": "a,b,c"}, '
        '{"length": "6/5", "multiplicity": 24, "representative": "a,b,ac"}, '
        '{"length": "19/15", "multiplicity": 18, "representative": "a,b,acA"}'
        '], "min_gap": "1/15"}\n'
    ),
}


@pytest.mark.parametrize("fmt", sorted(_RANK3_SPECTRUM_STDOUT))
def test_rank3_spectrum_stdout_is_pinned(fmt):
    # 48 of the 138 candidates are signed permutations, whose classes are
    # relabelled from the identity's plateau
    code, out = invoke(
        ["spectrum", "--rank", "3", "--max-factors", "1", "--format", fmt]
    )
    assert code == 0
    assert out == _RANK3_SPECTRUM_STDOUT[fmt]


_DEEP_SPECTRUM_CSV = {
    (2, 4): """\
length_num,length_den,multiplicity,representative
1,1,8,"a,b"
7,6,32,"a,ab"
13,9,32,"a,aab"
29,18,32,"ab,aab"
95,54,32,"a,aaab"
169,81,4,"a,aaaab"
341,162,32,"aab,aaab"
119,54,32,"ab,aabab"
193,81,32,"aab,aabab"
3797,1458,4,"abbb,abbbb"
461,162,4,"ab,abababb"
2185,729,4,"abb,abbabbb"
13895,4374,4,"aaab,aaabaab"
4829,1458,4,"aab,aabaabab"
2461,729,4,"aabab,aababab"
16055,4374,4,"ababb,ababbabb"
""",
    (3, 2): """\
length_num,length_den,multiplicity,representative
1,1,48,"a,b,c"
6,5,1152,"a,b,ac"
19,15,864,"a,b,acA"
7,5,120,"a,b,acb"
107,75,36,"a,b,aca"
22,15,144,"a,ab,abc"
37,25,24,"a,b,aac"
113,75,96,"a,b,abc"
38,25,72,"a,b,aacA"
118,75,96,"a,b,abcA"
122,75,72,"a,ab,BAc"
41,25,18,"a,b,aacAA"
42,25,96,"a,b,abcB"
127,75,96,"a,ab,BAcb"
43,25,96,"a,ab,abac"
131,75,72,"a,b,abcBA"
134,75,72,"a,ab,BAcab"
143,75,24,"ab,abb,abcb"
""",
}


@pytest.mark.parametrize("rank, max_factors", sorted(_DEEP_SPECTRUM_CSV))
def test_deeper_spectrum_csv_is_pinned(rank, max_factors):
    # deeper balls than the pins above: at every level below the last,
    # the classes first reached by a signed permutation are recorded but
    # not expanded
    code, out = invoke([
        "spectrum", "--rank", str(rank), "--max-factors", str(max_factors),
        "--format", "csv",
    ])
    assert code == 0
    assert out == _DEEP_SPECTRUM_CSV[rank, max_factors]


def test_spectrum_csv():
    code, out = invoke(
        ["spectrum", "--rank", "2", "--max-factors", "1", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == [
        "length_num,length_den,multiplicity,representative",
        '1,1,8,"a,b"',
        '7,6,4,"a,ab"',
    ]


def test_check_current_markov(tmp_path):
    path = tmp_path / "markov.json"
    path.write_text(dump_markov_spec(uniform_as_markov(2)))
    code, out = invoke(
        ["check-current", "--rank", "2", "--measure", f"markov:{path}", "--depth", "3"]
    )
    assert code == 0
    assert "criterion passes = True" in out
    assert "C1(a) = 1/3" in out


def test_check_current_reads_the_markov_spec_once(tmp_path, monkeypatch, capsys):
    from stretchfactor import measures

    read = measures.read_markov_file
    paths = []

    def counting(path):
        paths.append(path)
        return read(path)

    monkeypatch.setattr(measures, "read_markov_file", counting)
    path = tmp_path / "markov.json"
    path.write_text(dump_markov_spec(uniform_as_markov(2)))
    argv = ["check-current", "--measure", f"markov:{path}", "--depth", "3"]
    code, out = invoke(argv + ["--rank", "2"])
    assert code == 0 and "criterion passes = True" in out
    assert paths == [str(path)]
    code, _ = invoke(argv + ["--rank", "3"])
    assert code == 2
    assert "markov spec has rank 2, expected 3" in capsys.readouterr().err


def test_check_current_rational():
    code, out = invoke(
        ["check-current", "--rank", "2", "--measure", "rational:aab", "--depth", "3"]
    )
    assert code == 0
    assert "consistency depth 3 = pass" in out


@pytest.mark.parametrize("measure", ["uniform", "rational:aab"])
def test_check_current_json(measure):
    code, out = invoke(
        ["check-current", "--rank", "2", "--measure", measure, "--depth", "3",
         "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {"consistency": True}


def test_selftest_passes():
    code, out = invoke(["selftest", "--rank", "2", "--depth", "3"])
    assert code == 0
    assert "selftest passed" in out


_SELFTEST_STDOUT = {
    (2, 3): """\
ok disintegration identity on 2484 non-comparable pairs
ok additivity and shift invariance of the uniform measure to depth 3
ok translation lower bound on 100 random cylinder unions, |f| <= 3
ok separation witness: 1/12 >= 1/16
ok preimage partitions for 4 maps: exact masses and refinement
ok uniform-as-markov criterion constants
selftest passed
""",
    (3, 2): """\
ok disintegration identity on 1200 non-comparable pairs
ok additivity and shift invariance of the uniform measure to depth 2
ok translation lower bound on 100 random cylinder unions, |f| <= 3
ok separation witness: 1/30 >= 1/36
ok preimage partitions for 3 maps: exact masses and refinement
ok uniform-as-markov criterion constants
selftest passed
""",
}


@pytest.mark.parametrize("rank, depth", sorted(_SELFTEST_STDOUT))
def test_selftest_stdout_is_pinned(rank, depth):
    code, out = invoke(["selftest", "--rank", str(rank), "--depth", str(depth)])
    assert code == 0
    assert out == _SELFTEST_STDOUT[rank, depth]


_SELFTEST_WITH_FAULT = """
import sys
import stretchfactor.measures as m

exact = m.count_reduced_words
if sys.argv[1] == "fault":
    m.count_reduced_words = lambda n, k: exact(n, k) + (n == 3)
from stretchfactor.cli import run
sys.exit(run(["selftest", "--rank", "2", "--depth", "3"]))
"""


@pytest.mark.parametrize("mode, fails", [("exact", False), ("fault", True)])
def test_selftest_checks_survive_optimize_flag(mode, fails):
    # python -O strips assert statements; the selftest checks must not be them.
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _SELFTEST_WITH_FAULT, mode],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode != 0) == fails, result.stderr
    assert ("selftest passed" in result.stdout) != fails


# A two-atom expression is folded with one step on each side: the forward
# images are certified first (check 0), then the inverse images (check 1).
# The fault lengthens the first recomputed image of one side by its own
# last letter, so it stays reduced, before the step's round trip.
_LENGTH_WITH_PRODUCT_FAULT = """
import sys
import stretchfactor.automorphisms as A

round_trip = A._round_trip
checks = []
if sys.argv[1] != "exact":
    def corrupt_one_side(images, words, expected, letters):
        if len(checks) == {"fault": 0, "fault-inverse": 1}[sys.argv[1]]:
            x = letters[0]
            images[x - 1] = images[x - 1] + images[x - 1][-1:]
        checks.append(letters)
        round_trip(images, words, expected, letters)
    A._round_trip = corrupt_one_side
from stretchfactor.cli import run
sys.exit(run(["length", "--rank", "2", *sys.argv[2:]]))
"""


@pytest.mark.parametrize(
    "mode, argv, code, message",
    [
        ("exact", ["--map", "W2[a; b:RIGHT] * W2[b; a:LEFT]"], 0, ""),
        # a product of verified maps that fails its certificate is an engine bug
        ("fault", ["--map", "W2[a; b:RIGHT] * W2[b; a:LEFT]"], 1, "AssertionError: product certificate"),
        ("fault-inverse", ["--map", "W2[a; b:RIGHT] * W2[b; a:LEFT]"], 1, "AssertionError: product certificate"),
        # a wrong inverse from outside is an input error
        ("exact", ["--map", "a->a,b->ba", "--inverse", "a->a,b->ba"], 2, "error: inverse check failed"),
    ],
    ids=["product", "corrupted-product", "corrupted-inverse-product", "wrong-inverse"],
)
def test_engine_bugs_and_input_errors_exit_apart(mode, argv, code, message):
    # under python -O too: the certificate is not an assert statement
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _LENGTH_WITH_PRODUCT_FAULT, mode, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == code, result.stderr
    assert message in result.stderr


@pytest.mark.parametrize("rank", ["27", "1"])
def test_a_rank_outside_the_alphabet_is_an_input_error(rank, capsys):
    code, out = invoke(["length", "--rank", rank, "--map", "a->a", "--inverse", "a->a"])
    assert (code, out) == (2, "")
    assert f"rank must be between 2 and 26, got {rank}" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    # the package runs from a source checkout without installing
    root = Path(__file__).resolve().parent.parent
    argv = ["length", "--rank", "2", "--map", "W2[a; b:RIGHT]"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "stretchfactor", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == invoke(argv)[1]


def test_word_parse_error():
    code, _ = invoke(
        ["preimage", "--rank", "2", "--map", "W2[a; b:RIGHT]", "--target", "a1"]
    )
    assert code == 2


def test_target_outside_the_rank_is_an_input_error():
    code, out = invoke(
        ["preimage", "--rank", "2", "--map", "W2[a; b:RIGHT]", "--target", "c"]
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_selftest_refuses_depth_below_one(depth):
    code, out = invoke(["selftest", "--rank", "2", "--depth", depth])
    assert code == 2
    assert out == ""


def test_estimate_deterministic():
    argv = [
        "estimate", "--rank", "2", "--map", "W2[a; b:RIGHT]",
        "--n", "200", "--trials", "20", "--seed", "5",
    ]
    code, out = invoke(argv)
    assert code == 0
    assert "mean = " in out and "stderr = " in out
    assert invoke(argv) == (code, out)


def test_eta_length_via_measure_selector():
    code, out = invoke(
        ["length", "--rank", "2", "--map", "W2[a; b:RIGHT]", "--measure", "rational:b"]
    )
    assert code == 0
    assert out.splitlines()[0].startswith("length = 2/1")


def test_reduce_flag_for_word_arguments():
    argv = [
        "preimage", "--rank", "2", "--map", "W2[a; b:RIGHT]", "--target", "abB",
    ]
    code, _ = invoke(argv)
    assert code == 2
    code, out = invoke(argv + ["--reduce"])
    assert code == 0
    assert "preimage of Cyl(a):" in out


def test_descent_stuck_exit_code(monkeypatch):
    from stretchfactor.errors import DescentStuckError
    from stretchfactor import cli

    def boom(*args, **kwargs):
        raise DescentStuckError("injected")

    monkeypatch.setattr(cli.whitehead, "factorize", boom)
    code, _ = invoke(["factorize", "--rank", "2", "--map", "W2[a; b:RIGHT]"])
    assert code == 4


def test_emitted_map_reparses():
    code, out = invoke(["recenter", "--rank", "2", "--map", "W2[a; b:RIGHT]"])
    assert code == 0
    text = out.splitlines()[1].split("= ", 1)[1]
    parse_map_text(2, text)


@pytest.mark.parametrize("entry, named", [("a b", "'a b'"), ("c->a", "'c'")])
def test_bad_perm_entry_is_input_error(capsys, entry, named):
    code, _ = invoke(["length", "--rank", "2", "--map", f"perm[{entry}]"])
    assert code == 2
    assert named in capsys.readouterr().err


def test_w2_entry_without_colon_is_input_error(capsys):
    code, _ = invoke(["length", "--rank", "2", "--map", "W2[a; b]"])
    assert code == 2
    assert "'b'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expression",
    [
        "W2[a; c:RIGHT]",
        "W2[a; b:RIGHT, c:LEFT]",
        "W2[a; b:RIGHT, b:CONJ]",
        "perm[a->b, a->b, b->a]",
    ],
)
def test_entry_outside_the_rank_or_named_twice_is_input_error(expression):
    # at rank 2 there is no letter c, and no letter may be named twice
    with pytest.raises(InputError):
        parse_generator_expression(2, expression)
    code, _ = invoke(["length", "--rank", "2", "--map", expression])
    assert code == 2


@pytest.mark.parametrize("expression", ["", "*", "W2[a; b:RIGHT] *"])
def test_an_empty_atom_is_an_input_error(expression):
    # splitting on '*' always gives an atom, so an empty expression is
    # one empty atom; through the CLI, text without '[' is read as a raw map
    with pytest.raises(InputError, match="^cannot parse '': expected W2"):
        parse_generator_expression(2, expression)
    assert invoke(["length", "--rank", "2", "--map", expression]) == (2, "")


def _readme_examples():
    """(argv, stdout) of every `$ stretchfactor ...` example in README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n\$ stretchfactor (.*?)\n(.*?)^```$", text, re.M | re.S)
    return [(shlex.split(command), out) for command, out in blocks]


@pytest.mark.parametrize(
    "argv, stdout", [pytest.param(*example, id=example[0][0]) for example in _readme_examples()]
)
def test_readme_examples_print_what_the_readme_shows(argv, stdout):
    assert invoke(argv) == (0, stdout)


def test_the_readme_shows_three_examples():
    assert [argv[0] for argv, _ in _readme_examples()] == ["length", "factorize", "spectrum"]


def _parse_map(rank, text):
    """A map from `--map` text at the API: an expression or a raw map."""
    if "[" in text:
        return parse_generator_expression(rank, text)
    return make_automorphism(rank, parse_map_text(rank, text), parse_map_text(rank, _INVERSE))


_INVERSE = "a->a,b->bA"


@pytest.mark.parametrize(
    "text, same_as",
    [
        ("perm[]", "perm[a->a]"),
        ("perm[a->b,b->a,]", "perm[a->b,b->a]"),
        ("inner[]", "perm[a->a]"),
        ("W2[a]", "perm[a->a]"),
        ("W2[a; b:RIGHT,]", "W2[a; b:RIGHT]"),
        ("a->a,,b->ba", "W2[a; b:RIGHT]"),
    ],
)
def test_empty_entries_are_skipped_in_every_syntax(text, same_as):
    assert _parse_map(2, text) == parse_generator_expression(2, same_as)
    code, out = invoke(["length", "--rank", "2", "--map", text, "--inverse", _INVERSE])
    assert code == 0
    assert out == invoke(["length", "--rank", "2", "--map", same_as])[1]


@pytest.mark.parametrize(
    "text, named",
    [
        # an uppercase key
        ("A->a,b->b", "'A->a'"),
        ("perm[A->b]", "'A->b'"),
        ("W2[a; B:RIGHT]", "'B:RIGHT'"),
        # a key outside the rank
        ("a->a,b->ba,c->a", "'c->a'"),
        ("perm[c->a]", "'c'"),
        ("W2[a; c:RIGHT]", "'c:RIGHT'"),
        ("W2[a; b:RIGHT, c:LEFT]", "'c:LEFT'"),
        # a key named twice
        ("a->a,a->a,b->ba", "'a->a'"),
        ("perm[a->b,a->b,b->a]", "'a->b'"),
        ("perm[a->b, a->b, b->a]", "'a->b'"),
        ("W2[a; b:RIGHT, b:CONJ]", "'b:CONJ'"),
        # a missing separator
        ("a->a,b ba", "'b ba'"),
        ("perm[a b]", "'a b'"),
        ("W2[a; b]", "'b'"),
        # a W2 key equal to the multiplier
        ("W2[a; a:RIGHT]", "'a:RIGHT'"),
        ("W2[A; a:LEFT]", "'a:LEFT'"),
        # a perm image or a W2 multiplier that is no letter of the rank
        ("perm[a->c]", "'c'"),
        ("W2[c; b:RIGHT]", "'c' is not one of the letters a, A, b, B"),
        ("W2[ab; b:RIGHT]", "'ab' is not one of the letters a, A, b, B"),
        # a W2 type that is no type, and a perm image given twice
        ("W2[a; b:BOGUS]", "'b:BOGUS': type 'BOGUS' is not one of FIX, RIGHT, LEFT, CONJ"),
        ("perm[a->a,b->a]", "'b->a': image 'a' is given twice"),
    ],
)
def test_bad_entry_is_named_in_every_syntax(capsys, text, named):
    with pytest.raises(InputError, match=named):
        _parse_map(2, text)
    code, _ = invoke(["length", "--rank", "2", "--map", text, "--inverse", _INVERSE])
    assert code == 2
    assert named in capsys.readouterr().err


def test_negative_budget_is_input_error():
    # a signed permutation spends nothing, so a budget of 0 admits it and
    # only the sign check refuses -1
    argv = ["length", "--rank", "2", "--map", "perm[a->b,b->a]", "--budget"]
    code, out = invoke(argv + ["0"])
    assert code == 0 and out.splitlines()[-1] == "nodes = 0"
    code, _ = invoke(argv + ["-1"])
    assert code == 2
    with pytest.raises(InputError):
        Budget(-1)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--rank", "2", "--max-factors", "1"],
        ["pushforward", "--rank", "3", "--map", "perm[a->b,b->a]", "--depth", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_signed_permutations_depth2_table_spends_nothing(argv):
    # a depth-2 table walks the depth-1 families as they are, and a
    # signed permutation's are the identity's, relabelled; so a budget of
    # 0 admits the table, and the output is the unbudgeted one
    code, out = invoke(argv)
    assert code == 0
    assert invoke(argv + ["--budget", "0"]) == (0, out)


@pytest.mark.parametrize(
    "good, bad", [('"1/4"', '"1/x"'), ('"rank": 2', '"rank": "two"')]
)
def test_malformed_markov_entry_is_input_error(tmp_path, capsys, good, bad):
    text = dump_markov_spec(uniform_as_markov(2)).replace(good, bad, 1)
    assert bad in text
    path = tmp_path / "markov.json"
    path.write_text(text)
    code, _ = invoke(
        ["check-current", "--rank", "2", "--measure", f"markov:{path}", "--depth", "2"]
    )
    assert code == 2
    assert bad.split(": ")[-1].strip('"') in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [(None, []), ("p", []), ("P", []), ("P", {"a": 3}), ("rank", 2.9), ("rank", True)],
)
def test_markov_field_of_the_wrong_json_type_is_input_error(tmp_path, capsys, field, value):
    # field None replaces the whole document
    doc = json.loads(dump_markov_spec(uniform_as_markov(2)))
    text = json.dumps(value if field is None else dict(doc, **{field: value}))
    with pytest.raises(InputError):
        load_markov_spec(text)
    path = tmp_path / "markov.json"
    path.write_text(text)
    for argv in (
        ["check-current", "--rank", "2", "--measure", f"markov:{path}", "--depth", "2"],
        ["length", "--rank", "2", "--map", "W2[a; b:RIGHT]", "--measure", f"markov:{path}"],
    ):
        code, _ = invoke(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: markov spec") and "Traceback" not in err


def test_missing_markov_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "absent.json"
    code, _ = invoke(
        ["length", "--rank", "2", "--map", "W2[a; b:RIGHT]", "--measure", f"markov:{path}"]
    )
    assert code == 2
    assert str(path) in capsys.readouterr().err


def test_engine_value_error_is_not_an_input_error(monkeypatch):
    from stretchfactor import cli

    def boom(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(cli.length, "eta_length", boom)
    # run() lets it propagate, so the process exits 1 with a traceback
    with pytest.raises(ValueError, match="injected"):
        invoke(["length", "--rank", "2", "--map", "W2[a; b:RIGHT]"])


def test_budget_admits_feasible_rank8_move():
    # one transvection: one dict each for its graft, its difference and
    # its merge, 3 nodes at any rank, and a budget of exactly that much
    # suffices; nothing refuses it up front from a whole-tree estimate
    argv = ["length", "--rank", "8", "--map", "W2[a; b:RIGHT]"]
    code, out = invoke(argv)
    assert code == 0
    assert out.splitlines()[0].startswith("length = 133/120 ")
    assert out.splitlines()[-1] == "nodes = 3"
    assert invoke(argv + ["--budget", "3"]) == (code, out)
    code, _ = invoke(argv + ["--budget", "2"])
    assert code == 3


@pytest.mark.parametrize(
    "rank, expression, nodes",
    [
        pytest.param(rank, expression, nodes, id=f"{rank}-{expression}")
        # the id names the input only, so re-pinning a count keeps the name
        for rank, expression, nodes in [
            (3, "W2[a; c:CONJ]", 6),
            (4, "inner[a]", 0),
            (2, "W2[a; b:CONJ] * inner[ab] * W2[b; a:LEFT]", 3),
        ]
    ],
)
def test_node_counts_are_pinned(rank, expression, nodes):
    # Node counts are deterministic: a change here changes the work done.
    code, out = invoke(["length", "--rank", str(rank), "--map", expression])
    assert code == 0
    assert f"nodes = {nodes}" in out.splitlines()


_MAP = ["--map", "W2[a; b:RIGHT]"]


@pytest.mark.parametrize(
    "argv",
    [
        ["length", *_MAP, "--no-cache"],
        ["length", *_MAP, "--cache-dir", "cache"],
        ["estimate", *_MAP, "--budget", "5"],
        ["estimate", *_MAP, "--reduce"],
        ["recenter", *_MAP, "--reduce"],
        ["factorize", *_MAP, "--reduce"],
        ["spectrum", "--reduce"],
        ["spectrum", "--emit", "spectrum.csv"],
        ["check-current", "--measure", "uniform", "--budget", "5"],
        ["selftest", "--budget", "5"],
        ["selftest", "--reduce"],
        ["selftest", "--format", "json"],
    ],
    ids=lambda argv: f"{argv[0]} {[a for a in argv if a.startswith('--')][-1]}",
)
def test_removed_flags_are_usage_errors(argv, tmp_path, monkeypatch):
    # a command takes only the options it reads; anything else exits 2
    monkeypatch.chdir(tmp_path)
    code, out = invoke([argv[0], "--rank", "2", *argv[1:]])
    assert code == 2
    assert out == ""
    assert not any(tmp_path.iterdir())
