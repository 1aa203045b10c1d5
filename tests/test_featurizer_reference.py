"""The content features against the extractor they replaced.

``_ref_content_features`` and ``_ref_visible_text`` below are the previous
implementation, kept verbatim (only renamed) as the reference for the
current one, which lowers each string once, runs the case-insensitive
patterns on the lowered text where that is exact, and works out each
distinct tag once per memo.  Every feature must come out exactly equal, on
pages built to hit the quirks: unclosed tags, nested and uppercase scripts,
tags and comments inside attributes and comments, ``>`` inside quoted values,
unclosed and mixed quotes, a tag joined across a removed comment (the tag
regex here is the one the unrolled ``_TAG_RE`` replaced), and non-ASCII text, both
where IGNORECASE differs from lowering (``ſ``, ``ı``, ``İ``) and where it
does not (``©``, ``—``, ``é``, ``K``).  Pages that share one memo must each
get the vector a fresh memo gives them.
"""

import re
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from scamscout.corpus import DomainSnapshot, read_snapshots
from scamscout.featurizer import extract
from scamscout.featurizer.extract import _content_features
from scamscout.psl import _is_ip_literal, root_domain

# --- reference: the previous extractor, verbatim ------------------------------

_SOCIAL_DOMAINS = {
    "facebook_profile_linked": {"facebook.com", "fb.com", "fb.me"},
    "twitter_profile_linked": {"twitter.com", "x.com"},
    "instagram_profile_linked": {"instagram.com", "instagr.am"},
    "youtube_profile_linked": {"youtube.com", "youtu.be"},
    "pinterest_profile_linked": {"pinterest.com", "pin.it"},
    "tiktok_profile_linked": {"tiktok.com"},
    "linkedin_profile_linked": {"linkedin.com", "lnkd.in"},
    "telegram_profile_linked": {"t.me", "telegram.me", "telegram.org"},
}

_REVIEW_DOMAINS = {
    "trustpilot.com", "reviews.io", "reviews.co.uk", "sitejabber.com",
    "feefo.com", "yelp.com", "resellerratings.com", "bazaarvoice.com",
}

_APP_STORE_DOMAINS = {"apps.apple.com", "itunes.apple.com", "play.google.com"}

_REVIEW_WIDGET_MARKERS = (
    "trustpilot-widget", "tp-widget", "yotpo", "judge.me", "judgeme",
    "stamped.io", "loox", "okendo", "reviews-widget", "feefo-widget",
)

_COOKIE_MARKERS = (
    "cookie consent", "we use cookies", "cookie policy", "accept cookies",
    "cookiebot", "onetrust", "cookie_notice", "cookie-notice", "gdpr",
)

_DISCOUNT_RE = re.compile(
    r"\b(discount|sale|clearance|coupon|promo code|% off|percent off|"
    r"save up to|best price|lowest price|free shipping|outlet)\b",
    re.IGNORECASE,
)

_URGENCY_RE = re.compile(
    r"\b(hurry|limited time|limited stock|act now|last chance|today only|"
    r"only \d+ left|while stocks last|don't miss|flash sale|ends soon|"
    r"selling fast|almost gone)\b",
    re.IGNORECASE,
)

_COUNTDOWN_RE = re.compile(
    r"(countdown|time remaining|expires in|offer ends in|\b\d{1,2}:\d{2}:\d{2}\b)",
    re.IGNORECASE,
)

_COPYRIGHT_RE = re.compile(r"(©|&copy;|\bcopyright\b)", re.IGNORECASE)
_CURRENCY_RE = re.compile(r"[$€£¥₹]|&(?:euro|pound|yen|dollar);")

# --- forgiving HTML scanning ------------------------------------------------

_TAG_RE = re.compile(
    r"<\s*(/?)([a-zA-Z][a-zA-Z0-9]*)((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)>",
    re.DOTALL,
)
_ATTR_RE = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)\s*=\s*(\"([^\"]*)\"|'([^']*)'|([^\s>]+))"
)
_SCRIPT_STYLE_RE = re.compile(
    r"<\s*(script|style)\b.*?</\s*\1\s*>", re.IGNORECASE | re.DOTALL
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_WS_RE = re.compile(r"\s+")


@dataclass
class _Tag:
    name: str
    attrs: dict[str, str]


def _scan_tags(html: str) -> Iterable[_Tag]:
    for match in _TAG_RE.finditer(html):
        closing, name, attr_blob = match.groups()
        if closing:
            continue
        attrs: dict[str, str] = {}
        for am in _ATTR_RE.finditer(attr_blob):
            key = am.group(1).lower()
            value = am.group(3) or am.group(4) or am.group(5) or ""
            if key not in attrs:
                attrs[key] = value
        yield _Tag(name.lower(), attrs)


def _ref_visible_text(html: str) -> str:
    """Strip script/style bodies, comments and tags; collapse whitespace."""
    stripped = _SCRIPT_STYLE_RE.sub(" ", html)
    stripped = _COMMENT_RE.sub(" ", stripped)
    stripped = _TAG_RE.sub(" ", stripped)
    return _WS_RE.sub(" ", stripped).strip()


def _href_host(href: str) -> Optional[str]:
    try:
        parts = urlsplit(href)
    except ValueError:
        return None
    if parts.scheme in ("http", "https") and parts.hostname:
        return parts.hostname.lower().rstrip(".")
    return None


def _matches_domain(host: str, domains: set[str]) -> bool:
    return any(host == d or host.endswith("." + d) for d in domains)


def _path_mentions(href: str, words: tuple[str, ...]) -> bool:
    lowered = href.lower()
    return any(w in lowered for w in words)




def _ref_content_features(snapshot: DomainSnapshot) -> dict:
    html = snapshot.html
    names = [
        "facebook_profile_linked", "twitter_profile_linked",
        "instagram_profile_linked", "youtube_profile_linked",
        "pinterest_profile_linked", "tiktok_profile_linked",
        "linkedin_profile_linked", "telegram_profile_linked",
        "presence_of_contact_link", "num_mailto_links", "num_telephone_links",
        "num_whatsapp_links", "review_system_linked", "has_app_store",
        "has_review_widget", "trustpilot_present", "num_links",
        "num_internal_links", "num_external_links", "num_external_http_links",
        "num_links_with_ip", "num_img_tags", "num_iframe_tags",
        "num_script_tags", "num_external_scripts", "num_style_tags",
        "num_meta_tags", "num_h1_tags", "num_h1_h6_tags", "num_css_classes",
        "num_forms", "num_input_fields", "has_password_field",
        "has_meta_description", "has_favicon", "has_title", "title_length",
        "html_length", "text_length", "num_words", "has_copyright_notice",
        "has_privacy_policy_link", "has_terms_link", "has_refund_policy_link",
        "has_shipping_info_link", "has_faq_link", "presence_work_with_us_link",
        "presence_cookie_consent_notice", "has_currency_symbol",
        "discount_mention_count", "urgency_word_count", "has_countdown_timer",
    ]
    if not html:
        return {name: None for name in names}

    own_root = snapshot.root_domain()
    lower_html = html.lower()
    text = _ref_visible_text(html)

    counts = {name: 0 for name in names}
    counts["html_length"] = len(html)
    counts["text_length"] = len(text)
    counts["num_words"] = len(text.split())

    css_classes: set[str] = set()
    title_text = ""
    title_match = re.search(r"<\s*title[^>]*>(.*?)</\s*title\s*>", html,
                            re.IGNORECASE | re.DOTALL)
    if title_match:
        title_text = _WS_RE.sub(" ", title_match.group(1)).strip()

    for tag in _scan_tags(html):
        cls = tag.attrs.get("class")
        if cls:
            css_classes.update(cls.split())
        name = tag.name
        if name == "img":
            counts["num_img_tags"] += 1
        elif name == "iframe":
            counts["num_iframe_tags"] += 1
        elif name == "script":
            counts["num_script_tags"] += 1
            src_host = _href_host(tag.attrs.get("src", ""))
            if src_host and not _is_ip_literal(src_host):
                if root_domain("http://" + src_host) != own_root:
                    counts["num_external_scripts"] += 1
            elif src_host:
                counts["num_external_scripts"] += 1
        elif name == "style":
            counts["num_style_tags"] += 1
        elif name == "meta":
            counts["num_meta_tags"] += 1
            if tag.attrs.get("name", "").lower() == "description":
                counts["has_meta_description"] = 1
        elif name == "form":
            counts["num_forms"] += 1
        elif name == "input":
            counts["num_input_fields"] += 1
            if tag.attrs.get("type", "").lower() == "password":
                counts["has_password_field"] = 1
        elif name == "h1":
            counts["num_h1_tags"] += 1
            counts["num_h1_h6_tags"] += 1
        elif name in ("h2", "h3", "h4", "h5", "h6"):
            counts["num_h1_h6_tags"] += 1
        elif name == "link":
            rel = tag.attrs.get("rel", "").lower()
            if "icon" in rel:
                counts["has_favicon"] = 1
        elif name == "a":
            href = tag.attrs.get("href")
            if href is None:
                continue
            counts["num_links"] += 1
            lowered = href.lower()
            if lowered.startswith("mailto:"):
                counts["num_mailto_links"] += 1
                continue
            if lowered.startswith("tel:"):
                counts["num_telephone_links"] += 1
                continue
            if lowered.startswith("whatsapp:"):
                counts["num_whatsapp_links"] += 1
                continue
            host = _href_host(href)
            if host is None:
                counts["num_internal_links"] += 1  # relative link
            elif _is_ip_literal(host):
                counts["num_links_with_ip"] += 1
                counts["num_external_links"] += 1
                if lowered.startswith("http:"):
                    counts["num_external_http_links"] += 1
            else:
                if _matches_domain(host, {"wa.me", "api.whatsapp.com", "whatsapp.com"}):
                    counts["num_whatsapp_links"] += 1
                link_root = root_domain("http://" + host)
                if link_root == own_root:
                    counts["num_internal_links"] += 1
                else:
                    counts["num_external_links"] += 1
                    if lowered.startswith("http:"):
                        counts["num_external_http_links"] += 1
                for feature, domains in _SOCIAL_DOMAINS.items():
                    if _matches_domain(host, domains):
                        counts[feature] = 1
                if _matches_domain(host, _REVIEW_DOMAINS):
                    counts["review_system_linked"] = 1
                if host in _APP_STORE_DOMAINS:
                    counts["has_app_store"] = 1
            if _path_mentions(href, ("contact",)):
                counts["presence_of_contact_link"] = 1
            if _path_mentions(href, ("privacy",)):
                counts["has_privacy_policy_link"] = 1
            if _path_mentions(href, ("terms", "conditions")):
                counts["has_terms_link"] = 1
            if _path_mentions(href, ("refund", "returns", "return-policy")):
                counts["has_refund_policy_link"] = 1
            if _path_mentions(href, ("shipping", "delivery")):
                counts["has_shipping_info_link"] = 1
            if _path_mentions(href, ("faq",)):
                counts["has_faq_link"] = 1
            if _path_mentions(href, ("career", "jobs", "work-with-us", "join-us")):
                counts["presence_work_with_us_link"] = 1

    counts["num_css_classes"] = len(css_classes)
    counts["has_title"] = int(bool(title_text))
    counts["title_length"] = len(title_text)
    counts["trustpilot_present"] = int("trustpilot" in lower_html)
    if any(marker in lower_html for marker in _REVIEW_WIDGET_MARKERS):
        counts["has_review_widget"] = 1
    if any(marker in lower_html for marker in _COOKIE_MARKERS):
        counts["presence_cookie_consent_notice"] = 1
    counts["has_copyright_notice"] = int(bool(_COPYRIGHT_RE.search(html)))
    counts["has_currency_symbol"] = int(bool(_CURRENCY_RE.search(text)))
    counts["discount_mention_count"] = len(_DISCOUNT_RE.findall(text))
    counts["urgency_word_count"] = len(_URGENCY_RE.findall(text))
    counts["has_countdown_timer"] = int(bool(_COUNTDOWN_RE.search(lower_html)))
    return counts



# --- generated pages ----------------------------------------------------------

FETCHED = datetime(2024, 3, 1, 12, 0, tzinfo=timezone.utc)

_HREFS = [
    "/about", "/Contact-Us", "/PRIVACY", "/terms-and-conditions", "/return-policy",
    "/Shipping", "/faq", "/careers", "/jobs", "/join-us", "#top", "",
    "mailto:a@shop.com", "MAILTO:b@x.org", "tel:+1555", "whatsapp:+1555",
    "https://wa.me/1555", "http://api.whatsapp.com/send", "https://web.whatsapp.com/",
    "https://whatsapp.com.evil.io/", "https://www.pinterest.com./p",
    "https://www.facebook.com/shop", "https://fb.me/x", "http://notfacebook.com/",
    "https://x.com/a", "https://uk.trustpilot.com/review", "https://apps.apple.com/app/1",
    "https://play.google.com/store", "http://1.2.3.4/promo", "http://[::1]/x",
    "http://[bad/", "https://shop.com/faq", "HTTP://SHOP.COM/JOBS",
    "https://sub.shop.com./delivery", "https://other.co.uk/Refund", "//cdn.shop.com/x",
    "https://t.me/chan", "https://www.tiktok.com/@s", "https://lnkd.in/q",
    "http://user:pw@linkedin.com:8080/in/x", "javascript:void(0)",
]

_WORDS = [
    "Discount", "SALE", "ſale", "clearance", "Coupon", "promo code", "50% off", "% OFF",
    "percent off", "save up to", "best price", "lowest price", "free shipping",
    "outlet", "wholesale", "hurry", "Limited Time", "limited stocK", "act now",
    "last chance", "today only", "only 3 left", "ONLY 12 LEFT", "while stocks last",
    "don't miss", "flash sale", "ends soon", "selling fast", "almost gone",
    "countdown", "Time Remaining", "expires in", "offer ends in", "12:34:56",
    "1:02:03", "a1:23:45:67", "123:45:67", "9:99:99x", "©", "&copy;", "&COPY;",
    "Copyright", "copyrighted", "İstanbul", "İ", "café", "$9.99", "€5",
    "Sıte", "ıs", "—", "ÀCT NOW", "Flash Sale —", "Ünïcödé",
    "&euro;", "trustpilot", "Cookie Policy", "we use cookies", "yotpo", "GDPR",
    "shop", "the", "a", " ", " ", "\x1c", "\t", "\n", "  ",
]

_TAGS = ["a", "A", "div", "p", "img", "IMG", "iframe", "script", "SCRIPT", "style",
         "meta", "form", "input", "h1", "H2", "h6", "h7", "link", "title", "span"]

_ATTRS = [
    ("href", _HREFS), ("HREF", _HREFS), ("src", ["https://cdn.other.com/x.js",
     "https://static.shop.com/a.js", "http://5.6.7.8/t.js", "/local.js", ""]),
    ("class", ["a b", "A  a", "x", "", "c<d"]), ("Class", ["dup"]),
    ("name", ["description", "Description", "keywords"]),
    ("type", ["password", "PASSWORD", "text"]), ("rel", ["icon", "shortcut Icon", "stylesheet"]),
    ("title", ["<!-- not a comment -->", "a > b", "<b>"]),
]


@st.composite
def _attr(draw):
    key, values = draw(st.sampled_from(_ATTRS))
    value = draw(st.sampled_from(values))
    quote = draw(st.sampled_from(['"', "'", ""]))
    if not quote and (not value or any(c in value for c in " >'\"")):
        quote = '"'
    spacing = draw(st.sampled_from(["", " ", "\n"]))
    return f"{key}{spacing}={spacing}{quote}{value}{quote}"


@st.composite
def _tag(draw):
    name = draw(st.sampled_from(_TAGS))
    attrs = draw(st.lists(_attr(), max_size=3))
    blob = "".join(" " + a for a in attrs)
    end = draw(st.sampled_from([">", " />", "", ">"]))   # "" leaves it unclosed
    lead = draw(st.sampled_from(["<", "< ", "<"]))
    closing = draw(st.sampled_from(["", "", f"</{name}>", f"</ {name.upper()} >"]))
    return f"{lead}{name}{blob}{end}{closing}"


_FRAGMENTS = st.one_of(
    _tag(), _tag(),
    st.sampled_from(_WORDS), st.sampled_from(_WORDS),
    st.sampled_from([
        "<!--", "-->", "<!-- <a href='/faq'>x</a> -->", "<script>", "</script>",
        "<script>var s = '<a href=\"/privacy\">';</script>",
        "<SCRIPT type='x'><script>nested</script> tail</SCRIPT>",
        "<style>.a{}</style>", "<title>", "</title>", "<title>Big İ Sale</title>",
        "<TITLE>  Mega\n Shop </TITLE>", "<", ">", "'", '"', "</ a>", "<a",
    ]),
    st.text(alphabet="ab <>/=\"'-:!1ſKİ", max_size=6),
)

_PAGES = st.lists(_FRAGMENTS, max_size=30).map(" ".join)


def _snap(html: str) -> DomainSnapshot:
    return DomainSnapshot(url="http://shop.com/", fetched_at=FETCHED,
                          http_status=200, final_url="http://shop.com/", html=html)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_PAGES)
def test_content_features_equal_the_reference_on_generated_pages(html):
    assert _content_features(_snap(html)) == _ref_content_features(_snap(html))
    assert " ".join(extract._visible_words(html)) == _ref_visible_text(html)


@pytest.mark.parametrize("html", [
    "<p>ſale and limited stocK</p>",          # folded only by IGNORECASE
    "<p>İ COPYRIGHT 12:34:56 Sale</p>",            # 'İ'.lower() is two code points
    "<p>Sıte ıs on SALE — Lımıted Tıme</p>",        # 'ı' matches 'i' by IGNORECASE
    "<p>Limited StocK — 50% OFF © 2024 Café</p>",  # 'K'.lower() is 'k'
    "<p>© 2024</p><!-- <a href='/terms'> --><script><a href=/faq></script>",
    "<p>&COPY; 50% OFF <a href='HTTP://WA.ME/1'>x</a> 1:02:03</p>",
    "<p>a1:23:45:67 and 123:45:67 copyrighted wholesale</p>",
    "<p>Only 3 left! Hurry\x1c now</p>",
    "<p>50% off% off% OFF, sale-sale and 1:02:03:04 or 12:34:56</p>",  # adjacent matches
    "<SCRIPT>x</script><style>y</STYLE><div class='a b' Class='c'>z</div>",
    "<a href='https://api.whatsapp.com.'>a</a><a href='https://fb.me'>b</a>",
    "<a href='https://web.whatsapp.com/'>a</a><a href='https://m.youtube.com/'>b</a>",
    # the tag regex: ">" inside quoted values, unclosed quotes, mixed quotes
    "<a href=\"/faq?a>b\" title='x > y'>FAQ</a><img alt=\"1>0\">",
    "<a href=\"/privacy>Privacy</a><p class=\"k\">text</p>",
    "<img alt='it>s <p>lost</p><a href='/terms'>Terms</a>",
    "<a title=\"it's\" href='say \"hi\"' class=\"q'\">x</a><div class='a\"b'>y</div>",
    "<a href=\"/x\"title='y'\"z\">t</a><input type='password'\"a\"'b'>",
    # a tag joined across a removed comment, and "-->" inside a script body
    "<<!-- c -->div class=\"k\">x</div> <a<!-- -->href='/faq'>y</a>",
    "<script>var s = '-->';</script><!-- <script> --> <a href='/faq'>x</a> -->",
    "<!-- <script>a--></script> --> <p>Sale</p><script>b</script -->",
])
def test_content_features_equal_the_reference_on_quirks(html):
    assert _content_features(_snap(html)) == _ref_content_features(_snap(html))
    assert " ".join(extract._visible_words(html)) == _ref_visible_text(html)


@pytest.mark.parametrize("html", [
    "<div " + 'x="y" ' * 8334,              # no ">" after many quoted values
    "<a title='" + "x" * 50000,              # an unclosed quote
    "<p class=" + "a b=c " * 8332,           # no ">" and no quote
])
def test_an_unterminated_50k_tag_featurizes_in_linear_time(html):
    assert len(html) >= 50000
    start = time.perf_counter()
    got = _content_features(_snap(html))
    assert time.perf_counter() - start < 0.5
    assert got == _ref_content_features(_snap(html))


# --- one tag memo across pages ----------------------------------------------------

# page domains that the generated links and scripts name, and one they do not
_PAGE_URLS = ["http://shop.com/", "https://sub.shop.com/", "http://other.co.uk/",
              "https://cdn.other.com/", "http://5.6.7.8/", "https://elsewhere.net/"]

_LINKS = st.one_of(
    _tag(),
    st.sampled_from(_HREFS).map(lambda href: f'<a href="{href}">'),
    st.sampled_from(dict(_ATTRS)["src"]).map(lambda src: f'<script src="{src}">'),
)


@st.composite
def _sites(draw):
    """(url, html) pages on several domains, built from the page strategy's
    fragments and a few tags, links and scripts that recur across the
    pages, byte for byte."""
    shared = st.sampled_from(draw(st.lists(_LINKS, min_size=1, max_size=4)))
    page = st.lists(st.one_of(shared, shared, _FRAGMENTS), max_size=30).map(" ".join)
    return draw(st.lists(st.tuples(st.sampled_from(_PAGE_URLS), page), max_size=6))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_sites())
def test_a_shared_tag_memo_gives_each_page_its_fresh_vector(pages):
    snaps = [DomainSnapshot(url=url, fetched_at=FETCHED, http_status=200,
                            html=html) for url, html in pages]
    fresh = [extract.extract_features(snap).values for snap in snaps]
    for order in (1, -1):
        memo: dict = {}
        got = [extract.extract_features(snap, memo=memo).values
               for snap in snaps[::order]]
        assert got == fresh[::order]


# --- when the lowered-text path is exact ---------------------------------------


def test_lowered_path_patterns_hold_no_uppercase_letter():
    for pattern in (extract._LOWERED_DISCOUNT_RE, extract._LOWERED_URGENCY_RE,
                    extract._LOWERED_COPYRIGHT_RE, extract._CLOCK_RE):
        assert pattern.pattern == pattern.pattern.lower()
    for words in (extract._DISCOUNT_PREFILTER, extract._URGENCY_PREFILTER,
                  extract._COUNTDOWN_WORDS):
        assert all(w == w.lower() for w in words)


def test_fold_exceptions_are_the_only_code_points_where_lowering_differs():
    """Off the exceptions, lowering keeps the length, and every lowercase
    literal and \\w, \\d, \\s match the lowered text where IGNORECASE
    matches the text (and the lowered text)."""
    chars = [chr(cp) for cp in range(0x110000)
             if not 0xD800 <= cp <= 0xDFFF and chr(cp) not in extract._FOLD_EXCEPTIONS]
    text = "".join(chars)
    lowered = "".join(c.lower() for c in chars)
    assert len(lowered) == len(text)

    def starts(pattern, s, flags=0):
        return [m.start() for m in re.finditer(pattern, s, flags)]

    for literal in [a for a in map(chr, range(128)) if a == a.lower()] + ["©"]:
        want = starts(re.escape(literal), lowered)
        assert starts(re.escape(literal), text, re.IGNORECASE) == want, literal
        assert starts(re.escape(literal), lowered, re.IGNORECASE) == want, literal
    for cls in (r"\w", r"\d", r"\s"):
        assert starts(cls, text) == starts(cls, lowered), cls
    # and each exception is needed
    assert len("\u0130".lower()) == 2
    assert re.fullmatch("i", "\u0131", re.IGNORECASE) and "\u0131".lower() != "i"
    assert re.fullmatch("s", "\u017f", re.IGNORECASE) and "\u017f".lower() != "s"


class _Unused:
    def __getattr__(self, name):
        raise AssertionError("an IGNORECASE pattern ran")


def test_fixture_pages_take_the_lowered_path(fixtures_dir, monkeypatch):
    # every fixture page holds a non-ASCII '—' and none of the exceptions
    snaps = [s for _, s in read_snapshots(fixtures_dir / "snapshots.jsonl") if s.html]
    assert snaps and not any(s.html.isascii() for s in snaps)
    want = [_ref_content_features(s) for s in snaps]
    for name in ("_COPYRIGHT_RE", "_DISCOUNT_RE", "_URGENCY_RE", "_COUNTDOWN_RE"):
        monkeypatch.setattr(extract, name, _Unused())
    assert [_content_features(s) for s in snaps] == want
