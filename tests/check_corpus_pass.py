"""Time and layer counts of an in-process `corpus verify-all` pass.

A fresh interpreter runs `homsplit corpus verify-all --report ...
--discrepancies ...` through `cli.main` a number of times (default 30), with
each corpus entry timed around `corpus.verify_entry`, and then one more pass
with counters on `read_json` (as the corpus package calls it), on
`axioms._Compiled` (one per template evaluation) and on
`poly.IntegerForm.scaled` (one per op or map converted).  It prints the
median pass time, the p50 of the per-entry times over all timed passes and
the three counts of the counted pass.  It needs only the standard library,
and pytest does not collect it:

    python tests/check_corpus_pass.py [passes]
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(passes: int) -> str:
    """The result line of `passes` timed passes and one counted pass, measured
    in this process."""
    import contextlib
    import io
    import statistics
    import tempfile
    import time

    sys.path[:0] = [str(ROOT / "src")]
    from homsplit import axioms, cli, corpus, poly

    entry_s: list = []
    verify_entry = corpus.verify_entry

    def timed_entry(*args, **kwargs):
        start = time.perf_counter()
        try:
            return verify_entry(*args, **kwargs)
        finally:
            entry_s.append(time.perf_counter() - start)

    corpus.verify_entry = timed_entry
    with tempfile.TemporaryDirectory() as out:
        argv = ["corpus", "verify-all", "--report", f"{out}/corpus.json",
                "--discrepancies", f"{out}/DISCREPANCIES.md"]

        def one_pass() -> float:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            return time.perf_counter() - start

        pass_s = [one_pass() for _ in range(passes)]
        corpus.verify_entry = verify_entry
        counts = dict.fromkeys(("read_json", "compiled", "scaled"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        corpus.read_json = counted("read_json", corpus.read_json)
        axioms._Compiled.__init__ = counted("compiled", axioms._Compiled.__init__)
        poly.IntegerForm.scaled = counted("scaled", poly.IntegerForm.scaled)
        one_pass()
    return (
        f"passes={passes} pass_median_ms={statistics.median(pass_s) * 1e3:.2f} "
        f"entry_p50_ms={statistics.median(entry_s) * 1e3:.3f} "
        f"read_json={counts['read_json']} compiled={counts['compiled']} "
        f"scaled={counts['scaled']}"
    )


def main(argv: list) -> int:
    if argv[:1] == ["--one"]:
        print(measure(int(argv[1])))
        return 0
    passes = int(argv[0]) if argv else 30
    print(f"Python {sys.version.split()[0]}")
    result = subprocess.run(
        [sys.executable, __file__, "--one", str(passes)], capture_output=True, text=True
    )
    if result.returncode:
        print(f"failed:\n{result.stderr}")
        return 1
    print(result.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
