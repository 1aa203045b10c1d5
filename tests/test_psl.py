"""root_domain on adversarial URLs: the regex host and the per-host cache
against plain parsing."""

import ipaddress
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from scamscout.errors import UrlError
from scamscout.psl import _host_of, _is_ip_literal, public_suffix, root_domain


def _reference_host(url: str) -> str:
    """The host as ``urlsplit`` gives it, with no regex in between."""
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        raise UrlError(f"{exc}: {url!r}") from None
    if not parts.scheme or not parts.netloc:
        raise UrlError(f"not an absolute URL: {url!r}")
    host = parts.hostname
    if not host:
        raise UrlError(f"URL has no host: {url!r}")
    return host.rstrip(".").lower()


def _reference_root(url: str) -> str:
    """The registrable domain from scratch, with no cache in between."""
    host = _reference_host(url)
    if _is_ip_literal(host):
        return host
    suffix = public_suffix(host)
    if host == suffix:
        return host
    return ".".join(host.split(".")[-(len(suffix.split(".")) + 1):])


def _plain_is_ip(host: str) -> bool:
    try:
        ipaddress.ip_address(host.strip("[]"))
        return True
    except ValueError:
        return False


_LABELS = ["www", "Shop", "SHOP", "a-b", "xn--bcher-kva", "bücher", "例え",
           "co", "uk", "com", "ck", "www", "1", "0x1", "ſ", "K", "İ", "sh%6Fp",
           "a_b"]
_SUFFIXES = ["com", "co.uk", "CO.UK", "anything.ck", "www.ck", "xn--p1ai",
             "рф", "unlisted", "github.io", "COM"]
_IPS = ["1.2.3.4", "255.255.255.255", "1.2.3", "01.2.3.4", "[::1]",
        "[2001:DB8::1]", "[fe80::1%25eth0]", "[::ffff:1.2.3.4]", "[1.2.3.4]"]


@st.composite
def _urls(draw):
    scheme = draw(st.sampled_from(["http", "https", "HTTP", "HTTPS", "hTtPs",
                                   "ftp", "httpx", "http:"]))
    userinfo = draw(st.sampled_from(["", "", "user@", "u:p@", "a@b@"]))
    kind = draw(st.sampled_from(["name", "name", "ip", "dots"]))
    if kind == "ip":
        host = draw(st.sampled_from(_IPS))
    elif kind == "dots":
        host = draw(st.sampled_from(["", ".", "..", "..."]))
    else:
        labels = draw(st.lists(st.sampled_from(_LABELS), max_size=3))
        host = ".".join(labels + [draw(st.sampled_from(_SUFFIXES))])
        host += draw(st.sampled_from(["", ".", ".."]))
    port = draw(st.sampled_from(["", "", ":80", ":8080", ":"]))
    path = draw(st.sampled_from(["", "/", "/x?q=1", "?q=1", "#frag", "/a b",
                                 "\\x"]))
    url = f"{scheme}://{userinfo}{host}{port}{path}"
    # whitespace and C0 controls, which urlsplit strips or removes
    lead = draw(st.sampled_from(["", "", " ", "\x00", "\x1f", "\t"]))
    tail = draw(st.sampled_from(["", "", "\n", " ", "\r\n"]))
    inner = draw(st.sampled_from(["", "", "\t", "\n", "\r"]))
    at = draw(st.integers(0, len(url)))
    return lead + url[:at] + inner + url[at:] + tail


def _outcome(fn, url):
    """The result, or the type and message of the error raised."""
    try:
        return fn(url)
    except UrlError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_urls())
def test_root_domain_equals_uncached_reference(url):
    assert _outcome(_host_of, url) == _outcome(_reference_host, url)
    want = _outcome(_reference_root, url)
    assert _outcome(root_domain, url) == want
    assert _outcome(root_domain, url) == want    # a host is now in the cache
    host = _outcome(_host_of, url)
    if isinstance(host, str):
        assert _is_ip_literal(host) == _plain_is_ip(host)


@pytest.mark.parametrize("url, host", [
    ("https://.../", ""), ("HTTPS://SHOP.Example.COM", "shop.example.com"),
    ("http://shop.com.?q=1", "shop.com"), ("http://shop.com..#top", "shop.com"),
    ("http://shop.com\n", "shop.com"), ("\x00http://shop.com/", "shop.com"),
    ("http://sh\top.com/", "shop.com"), ("http://u@shop.com/", "shop.com"),
    ("http://shop.com:8080/", "shop.com"), ("http://bücher.de/", "bücher.de"),
])
def test_host_equals_the_urlsplit_host(url, host):
    assert _host_of(url) == _reference_host(url) == host


@pytest.mark.parametrize("bad", ["shop.com/x", "/relative", "http://", "http:///x",
                                 "http://user@/", "http://:80/", "mailto:a@shop.com",
                                 "http://[1.2.3.4]/", "http://[::1"])
def test_malformed_url_raises_on_every_call(bad):
    root_domain("http://shop.com/")          # the cache holds a host already
    for _ in range(3):
        with pytest.raises(UrlError):
            root_domain(bad)


@pytest.mark.parametrize("host", ["1.2.3.4", "[::1]", "::1", "fe80::1%eth0",
                                  "1.2.3", "a::b", "shop.com", "", "١.٢.٣.٤",
                                  "[]", "1a.b", "[1.2.3.4]", "x:1"])
def test_ip_literal_shortcut_agrees_with_ipaddress(host):
    assert _is_ip_literal(host) == _plain_is_ip(host)
