"""Seeded line fuzzing of triangulation files through the CLI, in process.

Each case deletes, swaps, splices or edits lines of a corpus file, then runs
`validate`, `qp --order 4` and `flip` on it.  Every command must exit 0 or 2
without a traceback, an accepted file must round-trip through its text, and
one digest pins every exit code, message and output.
"""

import hashlib
import io
import random

from qpsurf import cli
from qpsurf.examples_data import CORPUS, example_text
from qpsurf.surface import Triangulation

CASES = 1000


def fuzzed(rng):
    """One corpus file with one to three seeded line mutations."""
    files = [example_text(name).splitlines() for name in CORPUS]
    lines = list(rng.choice(files))
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        words = lines[i].split()
        op = rng.randrange(6) if len(words) > 1 else rng.randrange(3)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 2:
            lines.insert(i, rng.choice(rng.choice(files)))
        else:
            k = rng.randrange(1, len(words))
            if op == 3:  # a token another line of the same kind has there
                words[k] = rng.choice([w[k] for w in map(str.split, lines)
                                       if w[:1] == words[:1] and len(w) > k])
            elif op == 4:
                k2 = rng.randrange(1, len(words))
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


def test_fuzzed_triangulations_exit_cleanly(monkeypatch, capsys):
    # argparse takes most of a `main` call to build its parser; parsing
    # leaves the parser as it was, so the cases share one
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
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
