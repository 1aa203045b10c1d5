"""Turn an archived domain snapshot into the 103-entry feature vector.

Every feature is computed from the snapshot alone, so extraction is
deterministic and replayable.  When a source is absent (no WHOIS record, no
rank entry, empty HTML) the affected features become MISSING (None) rather
than a guessed default.

Content features lower the HTML and the visible text once each.  The
case-insensitive patterns (discount, urgency, countdown, copyright) then run
without IGNORECASE on the lowered strings, and only when the string holds a
substring that every match contains.  The patterns hold no uppercase letter,
so this gives IGNORECASE's matches on every page free of the three
characters where lowering and IGNORECASE part ways: ``ſ`` (U+017F) and ``ı``
(U+0131) lower to themselves, yet IGNORECASE matches them to ``s`` and
``i``, and ``'İ'.lower()`` is two code points long.  A page holding any of
them keeps the IGNORECASE patterns.  ASCII pages and pages with ``©``,
``—``, ``€``, accented letters or ``K`` (U+212A, which lowers to ``k``) take
the lowered path.  There the discount and urgency patterns are tried only
where the literal start of one of their words stands (``_count_matches``),
and the clock pattern is led by its first colon, so that the regex engine
skips ahead to colons.

The HTML walks keep their quirks: tags are counted wherever they stand, in
comments and scripts too, while the visible text strips script/style
bodies, then comments, then tags, in that order.  ``_TAG_RE`` reads a tag's
attributes as an unrolled loop: a run of characters other than ``>`` and
quotes, then quoted strings each followed by another such run.  Each piece
starts on characters no other piece starts on, so a text has one parse: the
regex matches what the per-character alternation
``(?:"[^"]*"|'[^']*'|[^>"'])*`` matches, without a branch per character, and
a tag with no closing ``>`` fails in one linear pass.  Possessive
quantifiers or an atomic group would say the same more briefly, but they
need Python 3.11 and the package supports 3.10.

Each distinct tag is worked out once per command.  A command passes one
``memo`` dict to ``extract_features`` for every snapshot it featurizes; the
memo maps an opening tag's text to its ``_TagEffect``: the counters it adds
to, the flags it sets, its class tokens, and for a link or script to a
named host that host's root domain.  A page's tags are counted by their
text, and a tag's parts are read only when it first enters the memo;
closing tags never do.  Whether a root is the page's own is still decided
per page.  The memo lives as long as the command's dict, so no
state is kept between commands.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from typing import Optional
from urllib.parse import urlsplit

from ..corpus import DomainSnapshot
from ..datalists import read_list
from ..psl import public_suffix, root_domain, _host_of, _is_ip_literal, _registrable
from .schema import (CONTENT, DNS, FEATURE_GROUPS, FEATURE_NAMES, RANKING,
                     WHOIS, FeatureVector)
from .segment import count_subwords

# --- config lists -----------------------------------------------------------


@lru_cache(maxsize=None)
def cheap_tlds() -> frozenset[str]:
    return read_list("cheap_tlds.txt")


@lru_cache(maxsize=None)
def cheap_registrars() -> frozenset[str]:
    return read_list("cheap_registrars.txt")


@lru_cache(maxsize=None)
def free_email_providers() -> frozenset[str]:
    return read_list("free_email_providers.txt")


# social platforms whose profile links the content features look for
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

# each marker list as (substring, the markers holding it, the rest), so
# that one test of the substring skips its markers on most pages
_REVIEW_WIDGET_MARKERS = (
    "widget",
    ("trustpilot-widget", "tp-widget", "reviews-widget", "feefo-widget"),
    ("yotpo", "judge.me", "judgeme", "stamped.io", "loox", "okendo"),
)

_COOKIE_MARKERS = (
    "cookie",
    ("cookie consent", "we use cookies", "cookie policy", "accept cookies",
     "cookiebot", "cookie_notice", "cookie-notice"),
    ("onetrust", "gdpr"),
)

_DISCOUNT_WORDS = (
    "discount", "sale", "clearance", "coupon", "promo code", "% off",
    "percent off", "save up to", "best price", "lowest price", "free shipping",
    "outlet",
)
_DISCOUNT_RE = re.compile(r"\b(" + "|".join(_DISCOUNT_WORDS) + r")\b", re.IGNORECASE)

_URGENCY_WORDS = (
    "hurry", "limited time", "limited stock", "act now", "last chance",
    "today only", r"only \d+ left", "while stocks last", "don't miss",
    "flash sale", "ends soon", "selling fast", "almost gone",
)
_URGENCY_RE = re.compile(r"\b(" + "|".join(_URGENCY_WORDS) + r")\b", re.IGNORECASE)

_COUNTDOWN_WORDS = ("countdown", "time remaining", "expires in", "offer ends in")
_COUNTDOWN_RE = re.compile(
    "(" + "|".join(_COUNTDOWN_WORDS) + r"|\b\d\d?:\d{2}:\d{2}\b)", re.IGNORECASE)

_COPYRIGHT_RE = re.compile(r"(©|&copy;|\bcopyright\b)", re.IGNORECASE)
_CURRENCY_RE = re.compile(r"[$€£¥₹]|&(?:euro|pound|yen|dollar);")

# the characters where a lowercase pattern run without IGNORECASE on lowered
# text and the same pattern run with it on the text can differ (the tests
# check every other code point)
_FOLD_EXCEPTIONS = "\u0130\u0131\u017f"   # İ ı ſ

# lowered-text fast path: the patterns above without IGNORECASE, each run
# only where the text holds a substring that every match holds (for a word
# list, the literal start of some word; ``_count_matches`` tries the pattern
# only where one stands)
_LOWERED_DISCOUNT_RE = re.compile(_DISCOUNT_RE.pattern)
_LOWERED_URGENCY_RE = re.compile(_URGENCY_RE.pattern)
_LOWERED_COPYRIGHT_RE = re.compile(_COPYRIGHT_RE.pattern)
_DISCOUNT_PREFILTER = tuple(w.partition("\\")[0] for w in _DISCOUNT_WORDS)
_URGENCY_PREFILTER = tuple(w.partition("\\")[0] for w in _URGENCY_WORDS)
# the clock alternative of _COUNTDOWN_RE led by its first colon, so that the
# regex engine skips ahead to colons; lookbehinds check the one or two digits
# before it and the \b before them
_CLOCK_RE = re.compile(
    r":(?<=\d:)(?:(?<!\w\d:)|(?<=\d\d:)(?<!\w\d\d:))\d{2}:\d{2}\b")

# --- forgiving HTML scanning ------------------------------------------------

# the attribute blob as an unrolled loop (see the module docstring)
_ATTR_BLOB = r"[^>\"']*(?:(?:\"[^\"]*\"|'[^']*')[^>\"']*)*"
_TAG_RE = re.compile(r"<\s*(/?)([a-zA-Z][a-zA-Z0-9]*)(" + _ATTR_BLOB + ")>",
                     re.DOTALL)
# the same tags without groups, so that ``findall`` yields each tag's text
_TAG_TEXT_RE = re.compile(r"<\s*/?[a-zA-Z][a-zA-Z0-9]*" + _ATTR_BLOB + ">",
                          re.DOTALL)
_ATTR_RE = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)\s*=\s*(\"([^\"]*)\"|'([^']*)'|([^\s>]+))"
)
_SCRIPT_STYLE_RE = re.compile(
    r"<\s*(script|style)\b.*?</\s*\1\s*>", re.IGNORECASE | re.DOTALL
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_WS_RE = re.compile(r"\s+")


def _attributes(attr_blob: str) -> dict[str, str]:
    """The attributes of one tag by lowered name; the first of a name wins."""
    attrs: dict[str, str] = {}
    if "=" in attr_blob:   # an attribute without "=" is not recorded
        for am in _ATTR_RE.finditer(attr_blob):
            key = am.group(1).lower()
            if key not in attrs:
                attrs[key] = am.group(3) or am.group(4) or am.group(5) or ""
    return attrs


def _visible_words(html: str) -> list[str]:
    stripped = _SCRIPT_STYLE_RE.sub(" ", html)
    stripped = _COMMENT_RE.sub(" ", stripped)
    return _TAG_RE.sub(" ", stripped).split()


def _href_host(href: str) -> Optional[str]:
    try:
        parts = urlsplit(href)
    except ValueError:
        return None
    if parts.scheme in ("http", "https") and parts.hostname:
        return parts.hostname.lower().rstrip(".")
    return None


def _domain_suffixes(host: str) -> list[str]:
    """``host`` and each tail of it after a dot: the domains it belongs to."""
    labels = host.split(".")
    return [".".join(labels[i:]) for i in range(len(labels))]


_WHATSAPP_DOMAINS = frozenset({"wa.me", "api.whatsapp.com", "whatsapp.com"})

# link domain -> the presence features a link to it (or a subdomain) sets
_DOMAIN_FLAGS: dict[str, tuple[str, ...]] = {}
for _feature, _domains in [*_SOCIAL_DOMAINS.items(),
                           ("review_system_linked", _REVIEW_DOMAINS)]:
    for _domain in _domains:
        _DOMAIN_FLAGS[_domain] = _DOMAIN_FLAGS.get(_domain, ()) + (_feature,)

# a link sets the feature when its lowered href contains one of the words
_PATH_WORDS = (
    ("presence_of_contact_link", ("contact",)),
    ("has_privacy_policy_link", ("privacy",)),
    ("has_terms_link", ("terms", "conditions")),
    ("has_refund_policy_link", ("refund", "returns", "return-policy")),
    ("has_shipping_info_link", ("shipping", "delivery")),
    ("has_faq_link", ("faq",)),
    ("presence_work_with_us_link", ("career", "jobs", "work-with-us", "join-us")),
)


def _contains_any(text: str, words: tuple[str, ...]) -> bool:
    return any(map(text.__contains__, words))


def _contains_marker(text: str, markers) -> bool:
    common, holding, rest = markers
    return (common in text and _contains_any(text, holding)
            or _contains_any(text, rest))


# the counters one opening tag adds one to, by lowered tag name
_TAG_COUNTERS = {
    "img": ("num_img_tags",), "iframe": ("num_iframe_tags",),
    "script": ("num_script_tags",), "style": ("num_style_tags",),
    "meta": ("num_meta_tags",), "form": ("num_forms",),
    "input": ("num_input_fields",), "h1": ("num_h1_tags", "num_h1_h6_tags"),
    **dict.fromkeys(("h2", "h3", "h4", "h5", "h6"), ("num_h1_h6_tags",)),
}

# a link whose lowered href starts with the scheme adds one to the counter
_SCHEME_COUNTERS = (("mailto:", "num_mailto_links"), ("tel:", "num_telephone_links"),
                    ("whatsapp:", "num_whatsapp_links"))

# What one opening tag does to its page's counts: (CSS class tokens,
# counters it adds one to, flags it sets, root domain or None, counters
# added when that root is the page's own, counters added when it is not).
# All of it follows from the tag's text, so it can be shared across pages.
_TagEffect = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...],
                  Optional[str], tuple[str, ...], tuple[str, ...]]


def _tag_effect(name: str, attr_blob: str) -> _TagEffect:
    name = name.lower()
    attrs = _attributes(attr_blob)
    adds = list(_TAG_COUNTERS.get(name, ()))
    sets: list[str] = []
    root, if_own, if_other = None, (), ()
    if name == "script":
        src_host = _href_host(attrs.get("src", ""))
        if src_host and not _is_ip_literal(src_host):
            root = root_domain("http://" + src_host)
            if_other = ("num_external_scripts",)
        elif src_host:
            adds.append("num_external_scripts")
    elif name == "meta":
        if attrs.get("name", "").lower() == "description":
            sets.append("has_meta_description")
    elif name == "input":
        if attrs.get("type", "").lower() == "password":
            sets.append("has_password_field")
    elif name == "link":
        if "icon" in attrs.get("rel", "").lower():
            sets.append("has_favicon")
    elif name == "a" and "href" in attrs:
        href = attrs["href"]
        lowered = href.lower()
        adds.append("num_links")
        scheme = [c for prefix, c in _SCHEME_COUNTERS if lowered.startswith(prefix)]
        if scheme:
            adds += scheme
        else:
            http = ("num_external_http_links",) if lowered.startswith("http:") else ()
            host = _href_host(href)
            if host is None:
                adds.append("num_internal_links")  # relative link
            elif _is_ip_literal(host):
                adds += ("num_links_with_ip", "num_external_links", *http)
            else:
                domains = _domain_suffixes(host)
                if not _WHATSAPP_DOMAINS.isdisjoint(domains):
                    adds.append("num_whatsapp_links")
                root = root_domain("http://" + host)
                if_own, if_other = ("num_internal_links",), ("num_external_links", *http)
                sets += [f for domain in domains for f in _DOMAIN_FLAGS.get(domain, ())]
                if host in _APP_STORE_DOMAINS:
                    sets.append("has_app_store")
            sets += [f for f, words in _PATH_WORDS if _contains_any(lowered, words)]
    return (tuple(attrs.get("class", "").split()), tuple(adds), tuple(sets),
            root, if_own, if_other)


def _count_matches(pattern: re.Pattern, text: str, starts: tuple[str, ...]) -> int:
    """``len(pattern.findall(text))`` for a pattern whose every match begins
    with one of the literals ``starts``.  The pattern is tried only where one
    of them stands, left to right from the end of the last match, as findall
    tries it."""
    at: set[int] = set()
    for start in starts:
        i = text.find(start)
        while i >= 0:
            at.add(i)
            i = text.find(start, i + 1)
    count = end = 0
    for i in sorted(at):
        if i >= end:
            match = pattern.match(text, i)
            if match is not None:
                count += 1
                end = match.end()
    return count


def _text_matches(html: str, lower_html: str, text: str) -> tuple:
    """(copyright, discount count, urgency count, countdown) of one page."""
    if _contains_any(html, _FOLD_EXCEPTIONS):
        return (_COPYRIGHT_RE.search(html) is not None,
                len(_DISCOUNT_RE.findall(text)),
                len(_URGENCY_RE.findall(text)),
                _COUNTDOWN_RE.search(lower_html) is not None)
    lower_text = text.lower()
    copyright_ = _contains_any(lower_html, ("©", "&copy;")) or (
        "copyright" in lower_html
        and _LOWERED_COPYRIGHT_RE.search(lower_html) is not None)
    discount = _count_matches(_LOWERED_DISCOUNT_RE, lower_text, _DISCOUNT_PREFILTER)
    urgency = _count_matches(_LOWERED_URGENCY_RE, lower_text, _URGENCY_PREFILTER)
    countdown = _contains_any(lower_html, _COUNTDOWN_WORDS) or (
        _CLOCK_RE.search(lower_html) is not None)
    return copyright_, discount, urgency, countdown


# --- per-group extraction ----------------------------------------------------


def _group(group: str) -> tuple[str, ...]:
    return tuple(name for name in FEATURE_NAMES if FEATURE_GROUPS[name] == group)


_RANKING_NAMES = _group(RANKING)
_DNS_NAMES = _group(DNS)
_WHOIS_NAMES = _group(WHOIS)
_CONTENT_NAMES = _group(CONTENT)


def _ranking_features(snapshot: DomainSnapshot) -> dict:
    return {name: getattr(snapshot.ranks, name) for name in _RANKING_NAMES}


_DNS_TYPES = ("mx", "cname", "dname", "hinfo", "aaaa", "ns", "rp", "soa", "txt", "a")

_VERIFICATION_RE = re.compile(
    r"(site-verification|domain-verification|verification=|-verification|_verify)",
    re.IGNORECASE,
)


def _dns_features(snapshot: DomainSnapshot) -> dict:
    dns = snapshot.dns
    if not dns:
        # a captured, resolving domain always has at least one record type;
        # an empty map means DNS was never queried for this snapshot
        return dict.fromkeys(_DNS_NAMES)
    out: dict = {}
    records = {k.lower(): list(v) for k, v in dns.items()}
    for rtype in _DNS_TYPES:
        values = records.get(rtype, [])
        out[f"dns_has_{rtype}"] = int(bool(values))
        out[f"dns_num_{rtype}"] = len(values)
    txt = records.get("txt", [])
    out["dns_domain_verification_count"] = sum(
        1 for v in txt if _VERIFICATION_RE.search(v)
    )
    out["dns_has_spf"] = int(any(v.strip().lower().startswith("v=spf1") for v in txt))
    out["dns_has_dmarc"] = int(any("v=dmarc1" in v.lower() for v in txt))
    return out


def _url_features(snapshot: DomainSnapshot) -> dict:
    url = snapshot.final_url or snapshot.url
    host = _host_of(url)
    out: dict = {"url_length": len(url)}
    parts = urlsplit(url)
    segments = [p for p in parts.path.split("/") if p]
    out["url_path_depth"] = len(segments)
    if _is_ip_literal(host):
        out.update({
            "tld": None, "cheap_tld": None, "domain_subwords": None,
            "url_has_hyphen": 0, "url_has_digit": 1,
            "url_subdomain_count": 0, "domain_label_length": len(host),
            "url_num_hyphens": 0, "url_num_digits": sum(c.isdigit() for c in host),
            "url_has_punycode": 0,
        })
        return out
    suffix = public_suffix(host)
    registrable = _registrable(host)
    label = registrable[: -(len(suffix) + 1)] if registrable != suffix else registrable
    prefix = host[: -(len(registrable) + 1)] if host != registrable else ""
    out["tld"] = suffix
    out["cheap_tld"] = int(suffix in cheap_tlds())
    out["domain_subwords"] = count_subwords(label)
    out["url_has_hyphen"] = int("-" in label)
    out["url_has_digit"] = int(any(c.isdigit() for c in label))
    out["url_subdomain_count"] = len([p for p in prefix.split(".") if p])
    out["domain_label_length"] = len(label)
    out["url_num_hyphens"] = label.count("-")
    out["url_num_digits"] = sum(c.isdigit() for c in label)
    out["url_has_punycode"] = int(any(p.startswith("xn--") for p in host.split(".")))
    return out


def _whois_features(snapshot: DomainSnapshot) -> dict:
    whois = snapshot.whois
    if whois.is_empty:
        return {**dict.fromkeys(_WHOIS_NAMES), "whois_available": 0}
    out = {"whois_available": 1}
    fetched = snapshot.fetched_at.date()
    out["domain_age"] = (fetched - whois.created).days if whois.created else None
    out["time_to_expiry"] = (whois.expires - fetched).days if whois.expires else None
    if whois.created and whois.expires:
        out["registration_period_days"] = (whois.expires - whois.created).days
    else:
        out["registration_period_days"] = None
    registrar = whois.registrar.strip().lower() if whois.registrar else None
    out["registrar_name"] = registrar
    if registrar is None:
        out["is_cheap_registrar"] = None
    else:
        out["is_cheap_registrar"] = int(
            any(tok in registrar for tok in cheap_registrars())
        )
    out["registrar_country"] = whois.registrar_country.strip().upper() if whois.registrar_country else None
    out["registrant_country"] = whois.registrant_country.strip().upper() if whois.registrant_country else None
    out["privacy_protected"] = None if whois.privacy is None else int(whois.privacy)
    if whois.registrant_email_domain is None:
        out["free_email_provider"] = None
    else:
        out["free_email_provider"] = int(
            whois.registrant_email_domain.strip().lower() in free_email_providers()
        )
    return out


def _content_features(snapshot: DomainSnapshot, memo=None) -> dict:
    """The content group; ``memo`` maps the text of each opening tag found on
    earlier pages to its ``_TagEffect``, and gains this page's new ones."""
    if memo is None:
        memo = {}
    html = snapshot.html
    if not html:
        return dict.fromkeys(_CONTENT_NAMES)

    own_root = snapshot.root_domain()
    lower_html = html.lower()
    words = _visible_words(html)
    # str.split() and re's \s agree on what whitespace is, for every code point
    text = " ".join(words)

    counts = dict.fromkeys(_CONTENT_NAMES, 0)
    counts["html_length"] = len(html)
    counts["text_length"] = len(text)
    counts["num_words"] = len(words)

    css_classes: set[str] = set()
    title_text = ""
    title_match = re.search(r"<\s*title[^>]*>(.*?)</\s*title\s*>", html,
                            re.IGNORECASE | re.DOTALL)
    if title_match:
        title_text = _WS_RE.sub(" ", title_match.group(1)).strip()

    # a tag that stands n times on the page has its effect applied once, n-fold
    for tag, n in Counter(_TAG_TEXT_RE.findall(html)).items():
        if tag[1] == "/" or tag[1].isspace() and tag[1:].lstrip()[0] == "/":
            continue   # a closing tag
        effect = memo.get(tag)
        if effect is None:
            _, name, attr_blob = _TAG_RE.match(tag).groups()
            effect = memo[tag] = _tag_effect(name, attr_blob)
        classes, adds, sets, root, if_own, if_other = effect
        css_classes.update(classes)
        for feature in adds:
            counts[feature] += n
        for feature in sets:
            counts[feature] = 1
        if root is not None:
            for feature in if_own if root == own_root else if_other:
                counts[feature] += n

    counts["num_css_classes"] = len(css_classes)
    counts["has_title"] = int(bool(title_text))
    counts["title_length"] = len(title_text)
    counts["trustpilot_present"] = int("trustpilot" in lower_html)
    if _contains_marker(lower_html, _REVIEW_WIDGET_MARKERS):
        counts["has_review_widget"] = 1
    if _contains_marker(lower_html, _COOKIE_MARKERS):
        counts["presence_cookie_consent_notice"] = 1
    copyright_, discount, urgency, countdown = _text_matches(html, lower_html, text)
    counts["has_copyright_notice"] = int(copyright_)
    counts["has_currency_symbol"] = int(bool(_CURRENCY_RE.search(text)))
    counts["discount_mention_count"] = discount
    counts["urgency_word_count"] = urgency
    counts["has_countdown_timer"] = int(countdown)
    return counts


def extract_features(snapshot: DomainSnapshot, memo=None) -> FeatureVector:
    """The feature vector of one snapshot.  A command featurizing many
    snapshots passes them all one ``memo`` dict, so that each distinct tag is
    worked out once; a call without one starts a fresh memo."""
    values: dict = {}
    values.update(_ranking_features(snapshot))
    values.update(_dns_features(snapshot))
    values.update(_url_features(snapshot))
    values.update(_whois_features(snapshot))
    values.update(_content_features(snapshot, memo))
    vector = FeatureVector([values[name] for name in FEATURE_NAMES])
    vector.validate()
    return vector
