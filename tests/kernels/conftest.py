"""The numpy backend's unit suite: skipped wholesale without numpy."""

import pytest

pytest.importorskip("numpy")
