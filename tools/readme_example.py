"""Run the Python block under README.md's ``## Library`` heading, as a user
would paste it.  ``tests/test_surface.py`` and CI's minimal install both run
it through this file, so the rule that finds the block is written once.

    PYTHONPATH=src python tools/readme_example.py

Standard library only.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
block = re.search(r"^## Library\n\n```python\n(.*?)^```",
                  README.read_text(encoding="utf-8"), re.S | re.M)
exec(compile(block.group(1), str(README), "exec"), {})
