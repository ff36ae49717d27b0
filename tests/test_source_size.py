"""A guard on the size of each source module, in parser tokens."""

from __future__ import annotations

import pathlib
import tokenize

import pytest

import qflab

# CPython 3.11's parser grows its token array by doubling, so compiling a
# module of 2^14 tokens or more peaks about 0.9 MB higher
PARSER_TOKEN_STEP = 1 << 14
MODULES = sorted(pathlib.Path(qflab.__file__).parent.rglob("*.py"))


def _parser_tokens(path: pathlib.Path) -> int:
    """The tokens the parser reads: tokenize's, without the encoding,
    comments and non-logical newlines."""
    with path.open("rb") as fh:
        return sum(tok.type not in (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.tokenize(fh.readline))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_stays_below_the_parser_token_step(path):
    tokens = _parser_tokens(path)
    assert tokens < PARSER_TOKEN_STEP, (
        f"{path.name} holds {tokens} parser tokens, past {PARSER_TOKEN_STEP}: importing it "
        "then makes CPython 3.11's compile peak about 0.9 MB higher, and a draft that "
        "crossed this step raised perfbench peak_rss_mb in 10 of 10 pairs; split the "
        "module or shorten it")
