"""Regenerate bench/golden.json: the exact toughness of each frontier base
graph by the naive all-subsets oracle, and the digest of the
``verify-corpus`` table at the default seed.  Takes about a minute.

    python3 bench/make_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from toughlab import cli, families, naive_toughness  # noqa: E402
from workloads import DEFAULT_SEED, FRONTIER_GRAPHS  # noqa: E402


def main() -> None:
    frontier_t = {}
    for spec, _ in FRONTIER_GRAPHS:
        g = families.build(families.parse_family_spec(spec))
        frontier_t[spec] = str(naive_toughness(g).t)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-corpus", "--seed", str(DEFAULT_SEED)])
    if code != 0:
        raise SystemExit(f"verify-corpus exited {code}")
    golden = {
        "corpus_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "frontier_t": frontier_t,
    }
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")


if __name__ == "__main__":
    main()
