"""Feature schema, extraction, subword segmentation, and dataset encoding."""

import itertools
import json
from datetime import date, datetime, timezone
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scamscout.corpus import DomainSnapshot, RankSignals, WhoisRecord
from scamscout.errors import SchemaError
from scamscout.featurizer import (
    FEATURE_NAMES,
    FEATURES,
    NUM_FEATURES,
    SCHEMA_VERSION,
    DatasetEncoder,
    FeatureVector,
    extract_features,
)
from scamscout.featurizer.encode import CATEGORICAL_COLUMNS, feature_columns
from scamscout.featurizer.segment import (
    costs_from_counts,
    count_subwords,
    default_word_costs,
    normalize_label,
    segment_label,
)
from scamscout.oracle import train_gbdt
from scamscout.oracle.baseline import _dense

from conftest import encode_dataset

FETCHED = datetime(2024, 3, 1, 12, 0, tzinfo=timezone.utc)


def _snap(**kwargs) -> DomainSnapshot:
    defaults = dict(url="http://shop.com/", fetched_at=FETCHED, http_status=200,
                    final_url="http://shop.com/", html="<html></html>")
    defaults.update(kwargs)
    return DomainSnapshot(**defaults)


# --- schema ---------------------------------------------------------------------


def test_schema_has_103_features():
    assert NUM_FEATURES == 103
    assert len(FEATURE_NAMES) == len(set(FEATURE_NAMES)) == 103


def test_schema_matches_checked_in_file():
    shipped = json.loads(
        resources.files("scamscout.data").joinpath("schema.json").read_text())
    assert shipped == {
        "version": SCHEMA_VERSION,
        "features": [{"name": name, "kind": kind, "group": group}
                     for name, kind, group in FEATURES]}


def test_feature_vector_validates_kinds():
    vec = FeatureVector([None] * NUM_FEATURES)
    vec.validate()  # all-MISSING is legal
    bad = [None] * NUM_FEATURES
    bad[FEATURE_NAMES.index("dns_has_mx")] = 2  # boolean slot
    with pytest.raises(SchemaError):
        FeatureVector(bad).validate()
    with pytest.raises(SchemaError):
        FeatureVector([0] * 5)  # wrong length


# --- extraction examples ----------------------------------------------------------


def test_dns_counts():
    vec = extract_features(_snap(dns={"MX": ["m1", "m2"], "a": ["1.2.3.4"]}))
    assert vec["dns_has_mx"] == 1
    assert vec["dns_num_mx"] == 2
    assert vec["dns_has_a"] == 1
    assert vec["dns_num_a"] == 1
    assert vec["dns_has_cname"] == 0
    assert vec["dns_num_cname"] == 0


def test_dns_spf_dmarc_verification():
    vec = extract_features(_snap(dns={"txt": [
        "v=spf1 include:_spf.google.com ~all",
        "v=DMARC1; p=reject",
        "google-site-verification=abc123",
    ]}))
    assert vec["dns_has_spf"] == 1
    assert vec["dns_has_dmarc"] == 1
    assert vec["dns_domain_verification_count"] == 1


def test_empty_dns_map_means_missing():
    vec = extract_features(_snap(dns={}))
    assert vec["dns_has_mx"] is None
    assert vec["dns_num_txt"] is None


def test_url_lexical_features():
    vec = extract_features(_snap(url="http://best-shoes4u.com/",
                                 final_url="http://best-shoes4u.com/"))
    assert vec["url_has_hyphen"] == 1
    assert vec["url_has_digit"] == 1
    assert vec["url_subdomain_count"] == 0
    assert vec["tld"] == "com"
    assert vec["domain_label_length"] == len("best-shoes4u")
    assert vec["url_num_hyphens"] == 1
    assert vec["url_num_digits"] == 1


def test_url_subdomains_and_cheap_tld():
    vec = extract_features(_snap(url="https://a.b.deal.xyz/p/q",
                                 final_url="https://a.b.deal.xyz/p/q"))
    assert vec["url_subdomain_count"] == 2
    assert vec["cheap_tld"] == 1
    assert vec["url_path_depth"] == 2


def test_whois_date_arithmetic():
    whois = WhoisRecord(created=date(2024, 1, 1), expires=date(2025, 1, 1),
                        registrar="NameCheap, Inc.", privacy=True,
                        registrant_email_domain="gmail.com")
    vec = extract_features(_snap(whois=whois))
    assert vec["domain_age"] == 60
    assert vec["time_to_expiry"] == 306
    assert vec["registration_period_days"] == 366
    assert vec["whois_available"] == 1
    assert vec["is_cheap_registrar"] == 1
    assert vec["privacy_protected"] == 1
    assert vec["free_email_provider"] == 1


def test_absent_whois_degrades_to_missing():
    vec = extract_features(_snap(whois=WhoisRecord()))
    assert vec["whois_available"] == 0
    assert vec["domain_age"] is None
    assert vec["registrar_name"] is None
    assert vec["privacy_protected"] is None


def test_ranking_signals_pass_through():
    vec = extract_features(_snap(ranks=RankSignals(tranco=1234, majestic=99)))
    assert vec["tranco"] == 1234
    assert vec["majestic"] == 99
    assert vec["cisco"] is None


_RICH_HTML = """
<html><head>
<title>Mega Shop</title>
<meta name="description" content="deals">
<link rel="icon" href="/favicon.ico">
</head><body>
<h1>Welcome</h1><h2>Sub</h2>
<a href="/about">about</a>
<a href="http://shop.com/contact">contact us</a>
<a href="https://other.com/x">partner</a>
<a href="http://insecure.org/y">old</a>
<a href="mailto:sales@shop.com">mail</a>
<a href="tel:+123456">call</a>
<a href="https://wa.me/5551234">chat</a>
<a href="https://www.facebook.com/megashop">fb</a>
<a href="https://twitter.com/megashop">tw</a>
<a href="https://uk.trustpilot.com/review/shop.com">reviews</a>
<a href="https://apps.apple.com/app/id1">app</a>
<a href="http://1.2.3.4/promo">ip link</a>
<a href="/privacy-policy">privacy</a>
<a href="/terms">terms</a>
<a href="/refund">refunds</a>
<a href="/shipping">shipping</a>
<a href="/faq">faq</a>
<a href="/careers">work with us</a>
<form><input type="text"><input type="password"></form>
<img src="a.png"><img src="b.png">
<iframe src="x.html"></iframe>
<script src="https://cdn.other.com/lib.js"></script>
<script>var x = 1;</script>
<p class="promo big">Save up to 70%! Hurry, limited time offer ends soon. Only $9.99</p>
<p>&copy; 2024 Mega Shop. We use cookies.</p>
</body></html>
"""


def test_content_features_exact_counts():
    vec = extract_features(_snap(html=_RICH_HTML))
    assert vec["has_title"] == 1
    assert vec["title_length"] == len("Mega Shop")
    assert vec["has_meta_description"] == 1
    assert vec["has_favicon"] == 1
    assert vec["num_h1_tags"] == 1
    assert vec["num_h1_h6_tags"] == 2
    assert vec["num_links"] == 18
    assert vec["num_mailto_links"] == 1
    assert vec["num_telephone_links"] == 1
    assert vec["num_whatsapp_links"] == 1
    assert vec["num_links_with_ip"] == 1
    assert vec["facebook_profile_linked"] == 1
    assert vec["twitter_profile_linked"] == 1
    assert vec["instagram_profile_linked"] == 0
    assert vec["review_system_linked"] == 1
    assert vec["trustpilot_present"] == 1
    assert vec["has_app_store"] == 1
    assert vec["presence_of_contact_link"] == 1
    assert vec["has_privacy_policy_link"] == 1
    assert vec["has_terms_link"] == 1
    assert vec["has_refund_policy_link"] == 1
    assert vec["has_shipping_info_link"] == 1
    assert vec["has_faq_link"] == 1
    assert vec["presence_work_with_us_link"] == 1
    assert vec["num_forms"] == 1
    assert vec["num_input_fields"] == 2
    assert vec["has_password_field"] == 1
    assert vec["num_img_tags"] == 2
    assert vec["num_iframe_tags"] == 1
    assert vec["num_script_tags"] == 2
    assert vec["num_external_scripts"] == 1
    assert vec["num_css_classes"] == 2
    assert vec["has_copyright_notice"] == 1
    assert vec["presence_cookie_consent_notice"] == 1
    assert vec["has_currency_symbol"] == 1
    assert vec["discount_mention_count"] == 1  # "save up to"
    assert vec["urgency_word_count"] == 3  # hurry, limited time, ends soon
    # internal: /about, contact, privacy, terms, refund, shipping, faq,
    # careers; external: other.com, insecure.org, wa.me, fb, tw, trustpilot,
    # apple, 1.2.3.4
    assert vec["num_internal_links"] == 8
    assert vec["num_external_links"] == 8
    assert vec["num_external_http_links"] == 2  # insecure.org and the IP link


def test_empty_html_means_content_missing():
    vec = extract_features(_snap(html=""))
    assert vec["num_links"] is None
    assert vec["has_title"] is None
    assert vec["html_length"] is None


def test_extraction_is_pure():
    snap = _snap(html=_RICH_HTML, dns={"mx": ["m"]},
                 whois=WhoisRecord(created=date(2024, 1, 1)))
    assert extract_features(snap).values == extract_features(snap).values


_SHARED_TAGS = ('<a href="https://shop-a.com/x">x</a>'
                '<script src="https://cdn.shop-a.com/s.js"></script>')


@pytest.mark.parametrize("order", [1, -1], ids=["own-first", "other-first"])
def test_shared_memo_decides_internal_per_page(order):
    """One tag memo across pages keeps the own-root comparison per page."""
    own = _snap(url="https://shop-a.com/", final_url=None, html=_SHARED_TAGS)
    other = _snap(url="https://shop-b.com/", final_url=None, html=_SHARED_TAGS)
    memo: dict = {}
    got = {snap.url: extract_features(snap, memo=memo)
           for snap in [own, other][::order]}
    assert len(memo) == 2   # the two opening tags, each worked out once
    for snap, internal, external in [(own, 1, 0), (other, 0, 1)]:
        vec = got[snap.url]
        assert (vec["num_internal_links"], vec["num_external_links"],
                vec["num_external_scripts"]) == (internal, external, external)
        assert vec.values == extract_features(snap).values


def test_a_redirected_page_counts_links_against_its_landing_domain():
    """The content features describe the landing page, and a link is
    internal to the landing page's domain, the key of its features.csv row,
    not to the domain that redirected there."""
    snap = _snap(url="http://old-name.com/", final_url="https://new-shop.store/",
                 html='<a href="https://new-shop.store/cart">cart</a>'
                      '<a href="https://new-shop.store/faq">faq</a>'
                      '<a href="http://old-name.com/">old</a>')
    assert snap.root_domain() == "new-shop.store"
    vec = extract_features(snap)
    assert (vec["num_internal_links"], vec["num_external_links"]) == (2, 1)


def test_adding_img_tag_increments_only_that_count():
    base = extract_features(_snap(html="<html><body><img src=a></body></html>",
                                  dns={"mx": ["m"]}))
    more = extract_features(_snap(html="<html><body><img src=a><img src=b></body></html>",
                                  dns={"mx": ["m"]}))
    assert more["num_img_tags"] == base["num_img_tags"] + 1
    for name in FEATURE_NAMES:
        if name.startswith("dns_") or name in ("domain_age", "whois_available"):
            assert more[name] == base[name], name


# --- subword segmentation ----------------------------------------------------------


_TOY_WORDS = [
    "cheap", "nike", "shoes", "shoe", "air", "max", "store", "best", "buy",
    "online", "outlet", "sale", "top", "new", "free", "ship", "shipping",
    "watch", "watches", "bag", "bags", "deal", "deals", "big", "red", "run",
    "running", "sport", "sports", "gear", "kids", "men", "women", "pro",
    "plus", "mini", "one", "two", "ten", "hot", "cool", "fast", "easy",
    "shop", "mart", "mall", "zone", "hub", "lab", "labs", "net", "web",
    "site", "page", "home", "world", "city", "land", "king", "star", "sun",
    "moon", "sky", "sea", "tech", "soft", "hard", "ware", "wear", "fit",
    "fitness", "yoga", "golf", "club", "team", "crew", "pack", "box", "kit",
    "set", "get", "go", "now", "my", "the", "a", "of", "to", "in", "on",
    "up", "all", "for", "and", "or", "is", "it", "us", "we", "you",
]


def _toy_costs():
    # rank by descending synthetic count so costs are spread out
    return costs_from_counts(
        {w: 1000 - i for i, w in enumerate(_TOY_WORDS[:100])})


def _brute_force_segment(label, costs):
    """Enumerate every split; same cost model and tie-breaks as the DP."""
    from scamscout.featurizer.segment import _chunk_cost

    n = len(label)
    best = None
    for bits in itertools.product([0, 1], repeat=max(n - 1, 0)):
        cuts = [0] + [i + 1 for i, b in enumerate(bits) if b] + [n]
        parts = tuple(label[cuts[i]:cuts[i + 1]] for i in range(len(cuts) - 1))
        cost = sum(_chunk_cost(p, costs) for p in parts)
        cand = (cost, len(parts), parts)
        if best is None or cand < best:
            best = cand
    return list(best[2])


def test_segment_examples():
    assert segment_label("cheapnikeshoes") == ["cheap", "nike", "shoes"]
    assert count_subwords("cheapnikeshoes") == 3
    assert segment_label("shoes") == ["shoes"]
    assert segment_label("xqzt9") == ["xqzt9"]  # unsplittable residue
    assert segment_label("") == []
    assert count_subwords("") == 0


def test_segment_normalizes_label():
    assert normalize_label("Cheap-Nike.Shoes") == "cheapnikeshoes"
    assert segment_label("Cheap-Nike-Shoes") == ["cheap", "nike", "shoes"]


def test_segment_matches_brute_force_on_random_labels():
    costs = _toy_costs()
    rng = np.random.default_rng(42)
    words = _TOY_WORDS[:100]
    for _ in range(60):
        n_parts = rng.integers(1, 4)
        label = "".join(rng.choice(words) for _ in range(n_parts))
        if rng.random() < 0.3:  # splice in unknown residue
            label += "".join(rng.choice(list("qxzj")) for _ in range(rng.integers(1, 4)))
        label = label[:12]
        assert segment_label(label, costs) == _brute_force_segment(label, costs), label


def test_segment_ties_match_brute_force():
    # equal costs, so splits tie on cost and the token count or the tokens
    # themselves decide
    costs = {"a": 1.0, "b": 1.0, "ab": 2.0, "c": 1.0, "bc": 2.0, "abc": 4.0}
    assert segment_label("ab", costs) == ["ab"]             # fewer tokens
    assert segment_label("abc", costs) == ["a", "bc"]       # smaller tokens
    rng = np.random.default_rng(7)
    for _ in range(200):
        label = "".join(rng.choice(list("abcq"), size=int(rng.integers(1, 9))))
        assert segment_label(label, costs) == _brute_force_segment(label, costs), label


def test_segment_mixed_known_and_unknown():
    costs = _toy_costs()
    assert segment_label("qqcheap", costs) == ["qq", "cheap"]
    assert segment_label("cheapqq", costs) == ["cheap", "qq"]


def _reference_segment(label, costs=None):
    """The DP as it was before a chunk longer than every word skipped its
    lookup, kept verbatim."""
    from scamscout.featurizer.segment import _chunk_cost

    if costs is None:
        costs = default_word_costs()
    label = normalize_label(label)
    n = len(label)
    if n == 0:
        return []
    # cost[i], count[i] and tokens[i] describe the best split of label[:i];
    # a candidate's token tuple is built only to break a tie in the other two
    cost: list[float] = [0.0]
    count: list[int] = [0]
    tokens: list[tuple[str, ...]] = [()]
    for i in range(1, n + 1):
        best, best_cost = 0, cost[0] + _chunk_cost(label[:i], costs)
        for j in range(1, i):
            c = cost[j] + _chunk_cost(label[j:i], costs)
            if c < best_cost or c == best_cost and (
                    (count[j], tokens[j] + (label[j:i],))
                    < (count[best], tokens[best] + (label[best:i],))):
                best, best_cost = j, c
        cost.append(best_cost)
        count.append(count[best] + 1)
        tokens.append(tokens[best] + (label[best:i],))
    return list(tokens[n])


# costs with many equal sums (ties), the toy table, none at all, or the
# shipped table (None)
_SEGMENT_COSTS = st.one_of(
    st.none(),
    st.just(_toy_costs()),
    st.just({}),
    st.dictionaries(st.text("abcq", min_size=1, max_size=5),
                    st.sampled_from([1.0, 2.0, 4.0]), max_size=12),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_segment_label_equals_the_reference_dp(data):
    costs = data.draw(_SEGMENT_COSTS)
    words = sorted(default_word_costs() if costs is None else costs)
    piece = st.one_of(st.text("0123456789", min_size=1, max_size=3),
                      st.text("qxzjQX-.", min_size=1, max_size=4),
                      *([st.sampled_from(words)] if words else []))
    # up to 8 pieces: labels well past the longest word's length
    label = "".join(data.draw(st.lists(piece, max_size=8)))
    assert segment_label(label, costs) == _reference_segment(label, costs)


# --- dataset encoding ----------------------------------------------------------


def _vec(**overrides) -> FeatureVector:
    values = {name: None for name in FEATURE_NAMES}
    values.update(overrides)
    return FeatureVector([values[name] for name in FEATURE_NAMES])


def test_unseen_categorical_gets_code_zero():
    train = [_vec(tld="com"), _vec(tld="xyz")]
    matrix, encoder = encode_dataset(train)
    tld_col = FEATURE_NAMES.index("tld")
    assert sorted(encoder.column_meta[tld_col].values()) == [1, 2]
    rows = encoder.transform(feature_columns([_vec(tld="shop"), _vec(tld=None)]))
    assert rows[0][tld_col] == 0.0   # never seen
    assert rows[1][tld_col] == 0.0


def test_missing_mask_and_dense_expansion():
    train = [_vec(tranco=10, dns_has_mx=1, tld="com"),
             _vec(tranco=None, dns_has_mx=0, tld="xyz")]
    values, _ = encode_dataset(train)
    tranco_col = FEATURE_NAMES.index("tranco")
    assert np.isnan(values[1, tranco_col])
    dense = _dense(values)
    assert np.isfinite(dense).all()
    # each non-categorical column contributes (value, indicator)
    n_categorical = len([n for n in FEATURE_NAMES
                         if n in ("tld", "registrar_name",
                                  "registrar_country", "registrant_country")])
    assert dense.shape[1] == (NUM_FEATURES - n_categorical) * 2 + n_categorical
    # tranco is numeric and every column before it too: its value, then
    # its indicator, which is 1 exactly where the cell is MISSING
    assert tranco_col < min(CATEGORICAL_COLUMNS)
    value, indicator = dense[:, 2 * tranco_col], dense[:, 2 * tranco_col + 1]
    assert list(value) == [10.0, 0.0]
    assert list(indicator) == [0.0, 1.0]


def test_fully_observed_rows_have_zero_indicators():
    vec = _vec(**{name: ("com" if name in ("tld", "registrar_name",
                                           "registrar_country",
                                           "registrant_country") else 1)
                  for name in FEATURE_NAMES})
    values, _ = encode_dataset([vec])
    indicators = [i for i in range(NUM_FEATURES) if i not in CATEGORICAL_COLUMNS]
    # the dense layout puts one indicator column after each such column
    at = [i + indicators.index(i) + 1 for i in indicators]
    dense = _dense(values)
    assert dense.shape[1] == NUM_FEATURES + len(indicators)
    assert not dense[:, at].any()
    assert not np.isnan(values).any()


def test_encoding_is_deterministic():
    rng = np.random.default_rng(7)
    vectors = [_vec(tranco=int(rng.integers(1, 100)),
                    tld=str(rng.choice(["com", "net", "xyz"])))
               for _ in range(20)]
    m1, e1 = encode_dataset(vectors)
    m2, e2 = encode_dataset(vectors)
    assert np.array_equal(m1, m2, equal_nan=True)
    assert e1.column_meta == e2.column_meta


def test_encoder_round_trips_through_dict():
    _, encoder = encode_dataset([_vec(tld="com"), _vec(tld="net")])
    clone = DatasetEncoder.from_dict(encoder.to_dict())
    assert clone.column_meta == encoder.column_meta


def test_label_validation():
    with pytest.raises(SchemaError):
        train_gbdt(feature_columns([_vec()]), [2])
    with pytest.raises(SchemaError):
        train_gbdt(feature_columns([_vec()]), [0, 1])


def test_fractional_label_is_rejected_not_truncated():
    columns = feature_columns([_vec(), _vec(), _vec()])
    with pytest.raises(SchemaError, match="row 1 is 0.7"):
        train_gbdt(columns, [1, 0.7, 0])
    with pytest.raises(SchemaError, match="row 2 is 1.9"):
        train_gbdt(columns, [1, 0, 1.9])


def test_non_finite_label_is_rejected():
    columns = feature_columns([_vec(), _vec(), _vec()])
    with pytest.raises(SchemaError, match="row 2 is nan"):
        train_gbdt(columns, [0, 1, float("nan")])
    with pytest.raises(SchemaError, match="row 0 is inf"):
        train_gbdt(columns, [float("inf"), 1, 0])
