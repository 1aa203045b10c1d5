"""root_domain on adversarial URLs: the per-host cache against plain parsing."""

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from scamscout.errors import UrlError
from scamscout.psl import _host_of, _is_ip_literal, public_suffix, root_domain


def _reference_root(url: str) -> str:
    """The registrable domain from scratch, with no cache in between."""
    host = _host_of(url)
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
           "co", "uk", "com", "ck", "www", "1", "0x1", "ſ", "K", "İ"]
_SUFFIXES = ["com", "co.uk", "CO.UK", "anything.ck", "www.ck", "xn--p1ai",
             "рф", "unlisted", "github.io"]
_IPS = ["1.2.3.4", "255.255.255.255", "1.2.3", "01.2.3.4", "[::1]",
        "[2001:DB8::1]", "[fe80::1%25eth0]", "[::ffff:1.2.3.4]", "[1.2.3.4]"]


@st.composite
def _urls(draw):
    scheme = draw(st.sampled_from(["http", "https", "HTTP", "ftp"]))
    userinfo = draw(st.sampled_from(["", "user@", "u:p@", "a@b@"]))
    if draw(st.booleans()):
        host = draw(st.sampled_from(_IPS))
    else:
        labels = draw(st.lists(st.sampled_from(_LABELS), max_size=3))
        host = ".".join(labels + [draw(st.sampled_from(_SUFFIXES))])
        host += draw(st.sampled_from(["", ".", ".."]))
    port = draw(st.sampled_from(["", ":80", ":8080", ":"]))
    path = draw(st.sampled_from(["", "/", "/x?q=1", "#frag"]))
    return f"{scheme}://{userinfo}{host}{port}{path}"


def _outcome(fn, url):
    """The result, or the type of the error raised."""
    try:
        return fn(url)
    except UrlError as exc:
        return type(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_urls())
def test_root_domain_equals_uncached_reference(url):
    want = _outcome(_reference_root, url)
    assert _outcome(root_domain, url) == want
    assert _outcome(root_domain, url) == want    # a host is now in the cache
    host = _outcome(_host_of, url)
    if isinstance(host, str):
        assert _is_ip_literal(host) == _plain_is_ip(host)


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
