"""Regenerate braid_goldens.json: the Kauffman bracket of every word in
the braid-laurent catalogue, computed by the exhaustive state-sum oracle
(2^c states per word, about 10 minutes in all on one core).

    python3 perfbench/make_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from framedskein import diagram, oracle  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    goldens = {}
    for letters in workloads.braid_catalogue():
        text = workloads.word_text(letters)
        bracket = oracle.bracket_statesum(diagram.parse_diagram(text, "braid"))
        goldens[text] = {str(d): c for d, c in sorted(bracket.terms.items())}
        print(len(goldens), len(letters), flush=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(goldens, indent=0) + "\n")


if __name__ == "__main__":
    main()
