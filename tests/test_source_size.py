import tokenize
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "mbcr").glob("*.py"))

# CPython 3.11's peak memory while compiling one module steps up by about
# 170-250 KB once the module passes 4,096 tokens (tracemalloc around
# compile(): subspace.py padded to 4,080 tokens peaked at 1,514 KB, padded
# to 4,100 at 1,686 KB). Tokens are counted as here. The benchmark runs from
# source without bytecode caches, so it compiles every module on every run,
# and a module past the step shows in its peak_rss_MB. Split or trim a module
# before it gets there.
TOKEN_STEP = 4096
NOT_CODE = {tokenize.NL, tokenize.COMMENT, tokenize.ENCODING}


def code_tokens(path: Path) -> int:
    with path.open("rb") as f:
        return sum(t.type not in NOT_CODE for t in tokenize.tokenize(f.readline))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_stays_under_the_compile_token_step(path):
    assert code_tokens(path) < TOKEN_STEP
