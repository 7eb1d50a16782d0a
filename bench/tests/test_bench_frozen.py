"""The known answers regenerate exactly as frozen for the default seed."""

import freeze
import run


def test_frozen_answers_regenerate():
    assert freeze.differences() == []


def test_importtime_attribution():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        150 |       re",
        "import time:      1000 |       1150 |     goedel_logics.formula",
        "import time:       500 |        500 |     goedel_logics.decide",
        "import time:       200 |       1850 |   goedel_logics",
        "import time:       300 |        300 |   argparse",
        "import time:       400 |       2550 | goedel_logics.cli",
    ])
    got = run.parse_importtime(text)
    assert got == {"formula": 1.15, "decide": 0.5, "cli": 0.7}
