"""Built-in triangulation files.

All triples are clockwise for the surface orientation; the once-punctured
square ships in its four triangulated forms (puncture valence 4, 3, and 2,
and the self-folded form).
"""

from . import QpsurfError

TORUS = """\
surface genus=1 boundary=0
marked p puncture
arc 1 p p
arc 2 p p
arc 3 p p
tri 1 2 3
tri 1 2 3
"""

PENTAGON = """\
surface genus=0 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
marked D boundary=0
marked E boundary=0
bseg AB A B on=0
bseg BC B C on=0
bseg CD C D on=0
bseg DE D E on=0
bseg EA E A on=0
arc 1 A C
arc 2 A D
tri AB BC 1
tri 1 CD 2
tri 2 DE EA
"""

HEXAGON_FAN = """\
surface genus=0 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
marked D boundary=0
marked E boundary=0
marked F boundary=0
bseg AB A B on=0
bseg BC B C on=0
bseg CD C D on=0
bseg DE D E on=0
bseg EF E F on=0
bseg FA F A on=0
arc 1 A C
arc 2 A D
arc 3 A E
tri AB BC 1
tri 1 CD 2
tri 2 DE 3
tri 3 EF FA
"""

HEXAGON_CENTRAL = """\
surface genus=0 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
marked D boundary=0
marked E boundary=0
marked F boundary=0
bseg AB A B on=0
bseg BC B C on=0
bseg CD C D on=0
bseg DE D E on=0
bseg EF E F on=0
bseg FA F A on=0
arc 1 A C
arc 2 C E
arc 3 E A
tri AB BC 1
tri CD DE 2
tri EF FA 3
tri 1 2 3
"""

ANNULUS = """\
surface genus=0 boundary=2
marked A boundary=0
marked B boundary=1
bseg o A A on=0
bseg i B B on=1
arc 1 A B
arc 2 A B
tri 2 i 1
tri o 1 2
"""

PUNCTURED_SQUARE_4 = """\
surface genus=0 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
marked D boundary=0
marked p puncture
bseg AB A B on=0
bseg BC B C on=0
bseg CD C D on=0
bseg DA D A on=0
arc 1 p A
arc 2 p B
arc 3 p C
arc 4 p D
tri 1 AB 2
tri 2 BC 3
tri 3 CD 4
tri 4 DA 1
"""

PUNCTURED_SQUARE_3 = """\
surface genus=0 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
marked D boundary=0
marked p puncture
bseg AB A B on=0
bseg BC B C on=0
bseg CD C D on=0
bseg DA D A on=0
arc 1 p A
arc 2 p B
arc 3 p C
arc 4 A C
tri 1 AB 2
tri 2 BC 3
tri 3 4 1
tri CD DA 4
"""

PUNCTURED_SQUARE_2 = """\
surface genus=0 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
marked D boundary=0
marked p puncture
bseg AB A B on=0
bseg BC B C on=0
bseg CD C D on=0
bseg DA D A on=0
arc 1 p A
arc 2 p C
arc 3 A C
arc 4 A C
tri 1 3 2
tri 2 4 1
tri AB BC 3
tri 4 CD DA
"""

PUNCTURED_SQUARE_SF = """\
surface genus=0 boundary=1
marked A boundary=0
marked B boundary=0
marked C boundary=0
marked D boundary=0
marked p puncture
bseg AB A B on=0
bseg BC B C on=0
bseg CD C D on=0
bseg DA D A on=0
arc f A p
arc L A A
arc x A C
arc y A C
tri L f f
tri x y L
tri AB BC x
tri y CD DA
"""

EXAMPLES = {
    "torus": TORUS,
    "pentagon": PENTAGON,
    "hexagon-fan": HEXAGON_FAN,
    "hexagon-central": HEXAGON_CENTRAL,
    "hexagon": HEXAGON_CENTRAL,
    "annulus": ANNULUS,
    "punctured-square-4": PUNCTURED_SQUARE_4,
    "punctured-square-3": PUNCTURED_SQUARE_3,
    "punctured-square-2": PUNCTURED_SQUARE_2,
    "punctured-square-sf": PUNCTURED_SQUARE_SF,
    "once-punctured-square": PUNCTURED_SQUARE_2,
}

CORPUS = [
    "torus",
    "pentagon",
    "hexagon-fan",
    "hexagon-central",
    "annulus",
    "punctured-square-4",
    "punctured-square-3",
    "punctured-square-2",
    "punctured-square-sf",
]


def example_text(name):
    if name not in EXAMPLES:
        raise QpsurfError("unknown example %r; known: %s" % (name, ", ".join(sorted(EXAMPLES))))
    return EXAMPLES[name]
