import dataclasses
import re
from pathlib import Path

import hotspots
from hotspots.config import Defaults

SRC = Path(hotspots.__file__).parent


def test_every_default_is_read_by_the_library():
    """A setting that no module reads has no effect on any verdict."""
    read = set()
    for path in SRC.glob("*.py"):
        if path.name != "config.py":
            read.update(re.findall(r"\bDEFAULTS\.(\w+)", path.read_text()))
    unread = [f.name for f in dataclasses.fields(Defaults) if f.name not in read]
    assert not unread, f"Defaults fields read nowhere: {unread}"
