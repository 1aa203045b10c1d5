"""Registrable-domain (eTLD+1) resolution against a pinned public-suffix snapshot.

The snapshot ships with the package in standard PSL text format and is the
only rule set, so a discovery run can be replayed.  The registrable domain
depends on the host alone and is memoized per host in a bounded LRU cache.

The host is taken from the URL on every call, so a malformed URL raises
``UrlError`` every time.  A plain ``http(s)://host`` URL, whose host of
ASCII letters, digits, dots and hyphens ends the URL or is followed by
``/``, ``?`` or ``#``, has its host read by one anchored regex
(``_PLAIN_URL_RE``); it is the host ``urlsplit`` gives.  Every other URL
(userinfo, a port, brackets, ``%``, whitespace or control characters,
non-ASCII, another scheme) goes through ``urlsplit``.
"""

from __future__ import annotations

import ipaddress
import re
from functools import lru_cache
from urllib.parse import urlsplit

from .datalists import content_lines, data_text
from .errors import UrlError


@lru_cache(maxsize=1)
def _rules() -> tuple[set[str], set[str], set[str]]:
    """The snapshot's (exact, wildcard, exception) rule sets."""
    exact, wildcard, exception = set(), set(), set()
    for line in content_lines(data_text("public_suffix_snapshot.dat"), "//"):
        if line.startswith("!"):
            exception.add(line[1:])
        elif line.startswith("*."):
            wildcard.add(line[2:])
        else:
            exact.add(line)
    return exact, wildcard, exception


# the scheme, "://", and a host that no urlsplit rule changes but lowering
_PLAIN_URL_RE = re.compile(r"[hH][tT][tT][pP][sS]?://([A-Za-z0-9.-]+)(?=[/?#]|\Z)")


def _host_of(url: str) -> str:
    plain = _PLAIN_URL_RE.match(url) if isinstance(url, str) else None
    if plain is not None:
        return plain.group(1).lower().rstrip(".")
    try:
        parts = urlsplit(url)
    except ValueError as exc:   # a bracketed IPv4 host or an unclosed "["
        raise UrlError(f"{exc}: {url!r}") from None
    if not parts.scheme or not parts.netloc:
        raise UrlError(f"not an absolute URL: {url!r}")
    host = parts.hostname
    if not host:
        raise UrlError(f"URL has no host: {url!r}")
    return host.rstrip(".").lower()


def _is_ip_literal(host: str) -> bool:
    literal = host.strip("[]")
    # an IPv4 literal starts with a digit and an IPv6 one holds a colon;
    # anything else would only make ip_address raise, which is slow
    if not literal[:1].isdigit() and ":" not in literal:
        return False
    try:
        ipaddress.ip_address(literal)
        return True
    except ValueError:
        return False


def public_suffix(host: str) -> str:
    """Longest matching public suffix of ``host`` per the PSL algorithm.

    Unlisted TLDs fall back to the implicit ``*`` rule (the TLD itself).
    """
    exact, wildcard, exception = _rules()
    labels = host.split(".")
    match_len = 1  # implicit "*" rule
    for i in range(len(labels)):
        candidate = ".".join(labels[i:])
        if candidate in exception:
            # exception rule wins outright: suffix is the rule minus its first label
            return ".".join(labels[i + 1:])
        n = len(labels) - i
        if candidate in exact and n > match_len:
            match_len = n
        parent = ".".join(labels[i + 1:])
        if parent and parent in wildcard and n + 0 > match_len:
            # "*.foo" makes "<anything>.foo" a public suffix
            match_len = n
    return ".".join(labels[-match_len:])


def root_domain(url: str) -> str:
    """Registrable domain (public suffix + one label) of an absolute URL.

    IP-literal hosts are returned verbatim. A host that *is* a public suffix
    has no registrable domain and is returned as-is.
    """
    return _registrable(_host_of(url))


@lru_cache(maxsize=1 << 14)
def _registrable(host: str) -> str:
    if _is_ip_literal(host):
        return host
    suffix = public_suffix(host)
    if host == suffix:
        return host
    n_suffix = len(suffix.split("."))
    labels = host.split(".")
    return ".".join(labels[-(n_suffix + 1):])
