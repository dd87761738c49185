"""Atomic file output, hashing and the run manifest.

Commands never leave partial files behind: content is written to a temporary
sibling and renamed into place only on success.  Every command writes its
outputs and then its manifest through one function, :func:`write_run`.  The
manifest (no timestamps, nothing machine-specific) lists the argument vector,
input digests, output paths and output digests, so replaying it can be
checked to reproduce every output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .errors import InputError


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def write_run(out: str, texts: dict[str, str], head: dict) -> None:
    """Write each ``out + suffix`` atomically, then the manifest ``out + ".manifest.json"``.

    The manifest is ``head`` (command, inputs, seed, defaults) followed by the
    output paths, its own path last, and the sha256 of each output's bytes; it
    holds no digest of itself.  An output or manifest path that resolves to one of
    ``head``'s inputs raises ``InputError`` before anything is written.
    """
    manifest = out + ".manifest.json"
    inputs = {os.path.realpath(entry["path"]) for entry in head["inputs"]}
    for path in [*(out + suffix for suffix in texts), manifest]:
        if os.path.realpath(path) in inputs:
            raise InputError(f"output {path} would overwrite an input of the command")
    digests = {}
    for suffix, text in texts.items():
        atomic_write_text(out + suffix, text)
        digests[out + suffix] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    atomic_write_text(manifest, json_text(
        {**head, "outputs": [*digests, manifest], "output_sha256": digests}))
