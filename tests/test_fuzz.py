"""Seeded line fuzzing of triangulation and QP files through the CLI, in process.

Each case deletes, swaps, splices or edits lines of a seed file, then runs
commands on it: `validate`, `qp --order 4` and `flip` on a triangulation;
`mutate`, `dim`, `rigid`, `check involution` and `explore --depth 1` on the
QP text of a seed triangulation built at order 6.  The seeds are the corpus
files, and in a second pair of fuzzers surfaces from `bench/gen.py`.  Every command must exit
0 or 2 without a traceback (1 only for a failed `check` or `explore`), an
accepted file must round-trip through its text, and one digest per fuzzer
pins every exit code, message and output.
"""

import hashlib
import io
import random
import warnings

import pytest

from qpsurf import cli
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.potential import qp_of_triangulation
from qpsurf.qp import QP
from qpsurf.surface import Triangulation

CASES = 1000
QP_CASES = 800
GENERATED_CASES = 300
GENERATED_QP_CASES = 200
TRIANGULATIONS = [example_text(name).splitlines() for name in CORPUS]
QP_TEXTS = [qp_of_triangulation(Triangulation.from_text("\n".join(lines)), 6)
            .to_text().splitlines() for lines in TRIANGULATIONS]


def keyword(words):
    """A triangulation line's kind and its first token that may be edited."""
    return words[:1], 1


def qp_keyword(words):
    """A QP line's kind; a term line may have its coefficient edited too."""
    if words[:1] in (["v"], ["a"], ["truncation:"], ["potential:"]):
        return words[:1], 1
    return ["term"], 0


def fuzzed(rng, files=TRIANGULATIONS, kind=keyword):
    """One of the files with one to three seeded line mutations."""
    lines = list(rng.choice(files))
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        words = lines[i].split()
        key, first = kind(words)
        op = rng.randrange(6) if len(words) > first else rng.randrange(3)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 2:
            lines.insert(i, rng.choice(rng.choice(files)))
        else:
            k = rng.randrange(first, len(words))
            if op == 3:  # a token another line of the same kind has there
                words[k] = rng.choice([w[k] for w in map(str.split, lines)
                                       if kind(w)[0] == key and len(w) > k])
            elif op == 4:
                k2 = rng.randrange(first, len(words))
                words[k], words[k2] = words[k2], words[k]
            else:
                words[k] = "".join(rng.choice("012") if c.isdigit() else c for c in words[k])
            lines[i] = " ".join(words)
        if not lines:
            lines = [rng.choice(rng.choice(files))]
    return "\n".join(lines) + "\n"


def run(argv, text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue(), capsys.readouterr().err


def share_parser(monkeypatch):
    # argparse takes most of a `main` call to build its parser; parsing
    # leaves the parser as it was, so the cases share one
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)


def fuzz_triangulations(files, seed, cases, monkeypatch, capsys):
    """Run `validate`, `qp` and `flip` on fuzzed files; the digest of the runs."""
    share_parser(monkeypatch)
    rng = random.Random(seed)
    h = hashlib.sha256()
    accepted = 0
    for case in range(cases):
        text = fuzzed(rng, files)
        sides = [w[1] for w in map(str.split, text.splitlines())
                 if w[:1] in (["arc"], ["bseg"]) and len(w) > 1]
        arc = rng.choice(sides) if sides else "1"
        for argv in (["validate"], ["qp", "--order", "4"], ["flip", "-", arc]):
            code, out, err = run(argv, text, monkeypatch, capsys)
            assert code in (0, 2), (case, argv, text, err)
            assert "Traceback" not in err, (case, argv, text, err)
            h.update(repr((case, argv[0], code, err, out)).encode())
            if code == 0 and argv[0] == "validate":
                accepted += 1
                once = Triangulation.from_text(text).to_text()
                assert Triangulation.from_text(once).to_text() == once, (case, text)
    assert accepted > cases // 10
    return h.hexdigest()


def fuzz_qp_texts(files, seed, cases, monkeypatch, capsys):
    """Run `mutate`, `dim`, `rigid`, `check involution` and `explore` on fuzzed
    QP texts; the digest of the runs."""
    share_parser(monkeypatch)
    rng = random.Random(seed)
    h = hashlib.sha256()
    accepted = 0
    for case in range(cases):
        text = fuzzed(rng, files, qp_keyword)
        names = [w[1] for w in map(str.split, text.splitlines()) if w[:1] == ["v"] and len(w) > 1]
        k = rng.choice(names) if names else "1"
        for argv in (["mutate", "-", k], ["dim", "--order", "4"], ["rigid", "--order", "4"],
                     ["check", "involution", "-", k, "--order", "4"],
                     ["explore", "--depth", "1", "--order", "4"]):
            code, out, err = run(argv, text, monkeypatch, capsys)
            assert code in (0, 2) or code == 1 and argv[0] in ("check", "explore"), (
                case, argv, text, err)
            assert "Traceback" not in err, (case, argv, text, err)
            h.update(repr((case, argv[0], code, err, out)).encode())
        try:
            once = QP.from_text(text).to_text()
        except ValueError:
            continue
        accepted += 1
        assert QP.from_text(once).to_text() == once, (case, text)
    assert accepted > cases // 10
    return h.hexdigest()


def test_fuzzed_triangulations_exit_cleanly(monkeypatch, capsys):
    digest = fuzz_triangulations(TRIANGULATIONS, 2024, CASES, monkeypatch, capsys)
    assert digest == "f48c8b2db9cb6a8339510f71c97c11ad25744718c0d6e6fae5084e6be0b451b4"


def test_fuzzed_qp_texts_exit_cleanly(monkeypatch, capsys):
    digest = fuzz_qp_texts(QP_TEXTS, 2025, QP_CASES, monkeypatch, capsys)
    # recorded before explore read reverse edges off canonical vertex orders
    assert digest == "667b0e7ffb370820f7309d63cdc74b77cc3c8f4f126945bb6e64be4af9eb3b28"


@pytest.fixture(scope="module")
def generated(gen):
    """`bench/gen.py` triangulations built at order 6 and their QP texts at
    order 6: polygons (7, 0), (5, 1) and (6, 2) and tori with 1 and 2 added
    punctures, seeds 0-1, ranks 4 to 9."""
    shapes = [("polygon", 7, 0), ("polygon", 5, 1), ("polygon", 6, 2),
              ("torus", 0, 1), ("torus", 0, 2)]
    tris = [gen.surface(kind, size, punctures, seed, 6)
            for kind, size, punctures in shapes for seed in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qps = [qp_of_triangulation(tri, 6).to_text().splitlines() for tri in tris]
    return [tri.to_text().splitlines() for tri in tris], qps


def test_fuzzed_generated_triangulations_exit_cleanly(generated, monkeypatch, capsys):
    digest = fuzz_triangulations(generated[0], 2026, GENERATED_CASES, monkeypatch, capsys)
    assert digest == "3913d090d3ed664625bc62631cca87b700f4a258d6d6e49e2329c045ffe2088f"


def test_fuzzed_generated_qp_texts_exit_cleanly(generated, monkeypatch, capsys):
    digest = fuzz_qp_texts(generated[1], 2027, GENERATED_QP_CASES, monkeypatch, capsys)
    # recorded when a double mutation that may have lost a term of degree 5
    # began to refuse `check involution --order 4` (cases 50, 183 and 185)
    assert digest == "265e1dbdd7b0d513c58d6f157c49f6f8eb25a9a54a2e457172ad98c021e1ffce"
