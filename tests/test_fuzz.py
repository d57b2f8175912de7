"""Seeded line fuzzing of triangulation and QP files through the CLI, in process.

Each case deletes, swaps, splices or edits lines of a corpus file, then runs
commands on it: `validate`, `qp --order 4` and `flip` on a triangulation;
`mutate`, `dim`, `rigid`, `check involution` and `explore --depth 1` on the
QP text of a corpus triangulation built at order 6.  Every command must exit
0 or 2 without a traceback (1 only for a failed `check` or `explore`), an
accepted file must round-trip through its text, and one digest per fuzzer
pins every exit code, message and output.
"""

import hashlib
import io
import random

from qpsurf import cli
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.potential import qp_of_triangulation
from qpsurf.qp import QP
from qpsurf.surface import Triangulation

CASES = 1000
QP_CASES = 800
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


def test_fuzzed_triangulations_exit_cleanly(monkeypatch, capsys):
    share_parser(monkeypatch)
    rng = random.Random(2024)
    h = hashlib.sha256()
    accepted = 0
    for case in range(CASES):
        text = fuzzed(rng)
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
    assert accepted > CASES // 10
    assert h.hexdigest() == "f48c8b2db9cb6a8339510f71c97c11ad25744718c0d6e6fae5084e6be0b451b4"


def test_fuzzed_qp_texts_exit_cleanly(monkeypatch, capsys):
    share_parser(monkeypatch)
    rng = random.Random(2025)
    h = hashlib.sha256()
    accepted = 0
    for case in range(QP_CASES):
        text = fuzzed(rng, QP_TEXTS, qp_keyword)
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
    assert accepted > QP_CASES // 10
    # recorded before explore read reverse edges off canonical vertex orders
    assert h.hexdigest() == "667b0e7ffb370820f7309d63cdc74b77cc3c8f4f126945bb6e64be4af9eb3b28"
