"""Built-in English stopword list and a loader for user-supplied lists."""

from __future__ import annotations

from pathlib import Path

from .errors import FormatError
from .table import open_text

# Compact general-purpose English list; override with load_stopwords() for
# domain-specific filtering.
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by can cannot could did do does
    doing down during each few for from further had has have having he her
    here hers herself him himself his how i if in into is it its itself just
    me more most my myself no nor not now of off on once only or other our
    ours ourselves out over own same she should so some such than that the
    their theirs them themselves then there these they this those through to
    too under until up very was we were what when where which while who whom
    why will with would you your yours yourself yourselves
    i'm i've i'll i'd you're you've you'll you'd he's she's it's we're we've
    we'll they're they've they'll isn't aren't wasn't weren't don't doesn't
    didn't won't wouldn't can't couldn't shouldn't that's there's what's
    let's
    """.split()
)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file with one lowercase token per line.

    Blank lines are skipped. A token containing uppercase characters is a
    format error: matching in preprocess() is done against lowercased text.
    """
    words = []
    with open_text(path, newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            if token != token.lower():
                raise FormatError(f"{path}: line {lineno}: stopword {token!r} is not lowercase")
            words.append(token)
    return frozenset(words)
