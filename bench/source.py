"""Put the checkout's own package source first on sys.path.

The benchmark measures the code of the checkout it lives in, never an
installed copy: without src/fareysub next to it, it stops.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    package = SRC / "fareysub"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import fareysub

    if Path(fareysub.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported fareysub from {fareysub.__file__}, not {package}")
