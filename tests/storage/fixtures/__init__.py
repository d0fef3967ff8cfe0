"""Stores older binaries split over four page files (see
``make_sharded.py`` for how each was made), and what the object layer
answered about each."""

import json
import os
import tarfile

from repro.core.oid import Oid

HERE = os.path.dirname(os.path.abspath(__file__))

#: Every fixture: formats 6 (closed cleanly, and killed with a loser in
#: its log), 4, 5 and 2.
NAMES = ("clean4", "crashed4", "v4_4", "v5_4", "v2_4")


def unpack(name, directory):
    """Unpack fixture *name* into *directory*; returns ``(path of its
    main file, {"versioned": Oid, "watched": Oid, "answers": ...})``."""
    with tarfile.open(os.path.join(HERE, name + ".tar.xz")) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(str(directory), filter="data")
        else:
            tar.extractall(str(directory))
    with open(os.path.join(HERE, name + ".json")) as handle:
        meta = json.load(handle)
    for role in ("versioned", "watched"):
        meta[role] = Oid("FoldItem", meta[role])
    return os.path.join(str(directory), "f.odb"), meta


def comparable(answers):
    """*answers* as the JSON the fixtures store them in."""
    return json.loads(json.dumps(answers, default=repr))


def extra_files(path):
    """The files besides the main file and its log a store at *path*
    occupies."""
    directory, base = os.path.split(path)
    return sorted(name for name in os.listdir(directory)
                  if name.startswith(base + ".s"))
