"""``python -m repro.analysis [PATH...]`` — run the invariant linter.

Exit codes: 0 when every finding is suppressed, 1 when unsuppressed
findings exist, 2 on usage errors, unreadable files or missing targets.
"""

from repro.analysis.framework import main

if __name__ == "__main__":
    raise SystemExit(main())
