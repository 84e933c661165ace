"""Time and memory of a dense failing six-dendriform check at scale.

For each n, a fresh interpreter builds `helpers.dense_six(random.Random(5),
n)`, checks it under the symmetric sq15 reading (`check_kind`) and writes the
report as the CLI does, streamed in chunks (`files.json_stream` of
`Report.payload()`), into a sha256 of the chunks.  It prints one line per n:
the violation count, the evaluation and writing seconds, the peak RSS of that
interpreter and the sha256 of the report text.  Each n runs
in its own process, so that the peak RSS of one does not hide the next.  It
needs only the standard library, and pytest does not collect it:

    python tests/check_dense_fail.py [n ...]     (default: 6 8 10)

At n = 10 the check holds about 400,000 violations; the process needs a few
hundred MB.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(n: int) -> str:
    """The result line for dimension n, measured in this process."""
    import hashlib
    import random
    import resource
    import time

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from helpers import dense_six
    from homsplit.axioms import check_kind
    from homsplit.files import json_stream

    bundle = dense_six(random.Random(5), n)
    start = time.perf_counter()
    report = check_kind(bundle, sq15="symmetric")
    evaluated = time.perf_counter()
    digest = hashlib.sha256()
    json_stream(report.payload(), lambda chunk: digest.update(chunk.encode("utf-8")))
    written = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (
        f"n={n} violations={len(report.entries)} evaluation_s={evaluated - start:.2f} "
        f"write_s={written - evaluated:.2f} peak_rss_mb={peak_mb:.0f} "
        f"sha256={digest.hexdigest()}"
    )


def main(argv: list) -> int:
    if argv[:1] == ["--one"]:
        print(measure(int(argv[1])))
        return 0
    print(f"Python {sys.version.split()[0]}")
    for n in [int(arg) for arg in argv] or [6, 8, 10]:
        result = subprocess.run(
            [sys.executable, __file__, "--one", str(n)], capture_output=True, text=True
        )
        if result.returncode:
            print(f"n={n} failed:\n{result.stderr}")
            return 1
        print(result.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
