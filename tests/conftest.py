import random
import time
from dataclasses import dataclass

import pytest

from csq.text_core import Text, build_bundle, bundle_of

# Wall-clock anchor used by the acceptance suite's runtime budget check.
SESSION_T0 = time.monotonic()

# Worked example used across the suite: the 19-symbol text whose nine arrays
# are known exactly.
FIG_ASCII = "bbabaababababaababa"

FIG_SA = [19, 14, 5, 17, 12, 3, 15, 10, 8, 6, 18, 13, 4, 16, 11, 2, 9, 7, 1]
FIG_ISA = [19, 16, 6, 13, 3, 10, 18, 9, 17, 8, 15, 5, 12, 2, 7, 14, 4, 11, 1]
FIG_LCP = [0, 1, 6, 1, 3, 8, 3, 5, 5, 7, 0, 2, 7, 2, 4, 9, 4, 6, 1]
FIG_PLCP = [1, 9, 8, 7, 6, 7, 6, 5, 4, 5, 4, 3, 2, 1, 3, 2, 1, 0, 0]
FIG_BWT = "bbbbbbabbaaaaaabaaa"
FIG_LF = [11, 12, 13, 14, 15, 16, 2, 17, 18, 3, 4, 5, 6, 7, 8, 19, 9, 10, 1]
FIG_ILF = [19, 7, 10, 11, 12, 13, 14, 15, 17, 18, 1, 2, 3, 4, 5, 6, 8, 9, 16]
FIG_PHI = [7, 11, 12, 13, 14, 8, 9, 10, 2, 15, 16, 17, 18, 19, 3, 4, 5, 6, 1]
FIG_INV_PHI = [19, 9, 15, 16, 17, 18, 1, 6, 7, 8, 2, 3, 4, 5, 10, 11, 12, 13, 14]


@pytest.fixture(scope="session")
def fig_text() -> Text:
    return Text.from_ascii(FIG_ASCII)


@pytest.fixture(scope="session")
def fig_bundle(fig_text):
    return build_bundle(fig_text)


def random_text(rng: random.Random, n: int, sigma: int) -> Text:
    return Text.from_symbols([rng.randrange(sigma) for _ in range(n)], sigma)


# ---------------------------------------------------------------------------
# The terminated text, built in full: a reference for build_ilf_index, which
# reads the terminated rows off the original text's SA and ISA instead.

# Shifting must keep symbols within the 32-bit width the format promises.
_SYMBOL_WIDTH_LIMIT = 2**31 - 1


@dataclass(frozen=True)
class TerminatedText:
    """A text plus its copy shifted up by one with a fresh 0 terminator.

    i_first and i_last are ISA[1] and ISA[n] of the *original* text: the
    suffix-order positions of the full text and of its last symbol.
    """

    original: Text
    shifted: Text
    i_first: int
    i_last: int


def append_terminator(text: Text) -> TerminatedText:
    """Shift the alphabet up by one and append a unique smallest 0.

    The terminator suffix sorts first and leaves the relative order of all
    other suffixes unchanged, so the shifted text's suffix array is [n+1]
    followed by the original one, and i_first/i_last are the original
    text's ISA[1] and ISA[n].  Appending costs at most 3 extra BWT runs,
    which build_ilf_index checks on every build.
    """
    n = text.n
    if n == 0:
        raise ValueError("cannot terminate an empty text")
    if text.sigma >= _SYMBOL_WIDTH_LIMIT:
        raise ValueError(
            f"alphabet size {text.sigma} leaves no room to shift within the symbol width"
        )
    isa = bundle_of(text).isa
    return TerminatedText(
        original=text,
        shifted=Text.from_symbols([c + 1 for c in text.symbols] + [0], text.sigma + 1),
        i_first=isa[1],
        i_last=isa[n],
    )
