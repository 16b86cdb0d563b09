"""The closed sets of names the library accepts and the CLI offers.

They live in a module that imports nothing, so the CLI builds its parser
without loading the modules that use them.
"""

WALLS = ("absorbing", "reflecting")

# the acceptance criteria each ``validate`` suite runs
SUITES = {
    "all": tuple(range(1, 16)),
    "painleve": (1, 2, 3),
    "dgop": (6, 7, 13),
    "watermelon": (4, 5, 12, 14),
    "asym": (8, 9, 10, 11),
    "psi": (15,),
}
