"""``python -m bench``: the same command line as ``bench/run.py``."""

from bench.run import main

raise SystemExit(main())
