"""Make the benchmark and the program importable, with checkout-local caches."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
os.environ.setdefault("REPRO_NO_CACHE", "1")
os.environ.setdefault("REPRO_NATIVE_DIR", str(ROOT / ".bench_build" / "native"))
