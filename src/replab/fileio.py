"""Atomic file output, hashing and the run manifest.

Commands never leave partial files behind: content is written to a temporary
sibling and renamed into place only on success.  Every command also writes a
manifest (no timestamps, nothing machine-specific) listing its argument
vector, input digests, output paths and output digests, so replaying the
manifest can be checked to reproduce every output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field


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


@dataclass
class RunManifest:
    """Reproducibility record of one command invocation."""

    command: list[str]
    inputs: list[dict] = field(default_factory=list)
    seed: int | None = None
    defaults: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    output_sha256: dict[str, str] = field(default_factory=dict)

    def add_input(self, path: str) -> None:
        self.inputs.append({"path": path, "sha256": sha256_file(path)})

    def add_output(self, path: str) -> None:
        if path not in self.outputs:
            self.outputs.append(path)

    def write_output(self, path: str, text: str) -> None:
        """Write one output atomically and record its path and the sha256 of its bytes."""
        atomic_write_text(path, text)
        self.add_output(path)
        self.output_sha256[path] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    def write(self, path: str) -> None:
        """Write the manifest itself; it lists its own path but holds no digest of itself."""
        self.add_output(path)
        atomic_write_text(path, json_text({
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "defaults": self.defaults,
            "outputs": self.outputs,
            "output_sha256": self.output_sha256,
        }))

    @staticmethod
    def load(path: str) -> dict:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
