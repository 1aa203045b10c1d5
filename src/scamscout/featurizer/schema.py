"""The 103-feature schema used by the scam/benign classifier.

The tuple order below is the canonical, versioned column order; a copy is
checked in at data/schema.json and a test diffs the two so the schema cannot
drift silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import SchemaError

SCHEMA_VERSION = "2024.1"

BOOLEAN = "BOOLEAN"
NUMERIC = "NUMERIC"
CATEGORICAL = "CATEGORICAL"

RANKING = "RANKING"
DNS = "DNS"
URL = "URL"
WHOIS = "WHOIS"
CONTENT = "CONTENT"

# (name, kind, group)
FEATURES: list[tuple[str, str, str]] = [
    # domain ranking signals
    ("majestic_refips", NUMERIC, RANKING),
    ("majestic_refsubnets", NUMERIC, RANKING),
    ("majestic_tldrank", NUMERIC, RANKING),
    ("tranco", NUMERIC, RANKING),
    ("majestic", NUMERIC, RANKING),
    ("cisco", NUMERIC, RANKING),
    # DNS configuration
    ("dns_has_mx", BOOLEAN, DNS),
    ("dns_num_mx", NUMERIC, DNS),
    ("dns_has_cname", BOOLEAN, DNS),
    ("dns_num_cname", NUMERIC, DNS),
    ("dns_has_dname", BOOLEAN, DNS),
    ("dns_num_dname", NUMERIC, DNS),
    ("dns_has_hinfo", BOOLEAN, DNS),
    ("dns_num_hinfo", NUMERIC, DNS),
    ("dns_has_aaaa", BOOLEAN, DNS),
    ("dns_num_aaaa", NUMERIC, DNS),
    ("dns_has_ns", BOOLEAN, DNS),
    ("dns_num_ns", NUMERIC, DNS),
    ("dns_has_rp", BOOLEAN, DNS),
    ("dns_num_rp", NUMERIC, DNS),
    ("dns_has_soa", BOOLEAN, DNS),
    ("dns_num_soa", NUMERIC, DNS),
    ("dns_has_txt", BOOLEAN, DNS),
    ("dns_num_txt", NUMERIC, DNS),
    ("dns_domain_verification_count", NUMERIC, DNS),
    ("dns_has_a", BOOLEAN, DNS),
    ("dns_num_a", NUMERIC, DNS),
    ("dns_has_spf", BOOLEAN, DNS),
    ("dns_has_dmarc", BOOLEAN, DNS),
    # URL / domain-name lexical structure
    ("tld", CATEGORICAL, URL),
    ("cheap_tld", BOOLEAN, URL),
    ("domain_subwords", NUMERIC, URL),
    ("url_has_hyphen", BOOLEAN, URL),
    ("url_has_digit", BOOLEAN, URL),
    ("url_subdomain_count", NUMERIC, URL),
    ("url_length", NUMERIC, URL),
    ("domain_label_length", NUMERIC, URL),
    ("url_num_hyphens", NUMERIC, URL),
    ("url_num_digits", NUMERIC, URL),
    ("url_path_depth", NUMERIC, URL),
    ("url_has_punycode", BOOLEAN, URL),
    # WHOIS / registration
    ("domain_age", NUMERIC, WHOIS),
    ("time_to_expiry", NUMERIC, WHOIS),
    ("registrar_name", CATEGORICAL, WHOIS),
    ("is_cheap_registrar", BOOLEAN, WHOIS),
    ("registrar_country", CATEGORICAL, WHOIS),
    ("registrant_country", CATEGORICAL, WHOIS),
    ("privacy_protected", BOOLEAN, WHOIS),
    ("free_email_provider", BOOLEAN, WHOIS),
    ("whois_available", BOOLEAN, WHOIS),
    ("registration_period_days", NUMERIC, WHOIS),
    # landing-page content
    ("facebook_profile_linked", BOOLEAN, CONTENT),
    ("twitter_profile_linked", BOOLEAN, CONTENT),
    ("instagram_profile_linked", BOOLEAN, CONTENT),
    ("youtube_profile_linked", BOOLEAN, CONTENT),
    ("pinterest_profile_linked", BOOLEAN, CONTENT),
    ("tiktok_profile_linked", BOOLEAN, CONTENT),
    ("linkedin_profile_linked", BOOLEAN, CONTENT),
    ("telegram_profile_linked", BOOLEAN, CONTENT),
    ("presence_of_contact_link", BOOLEAN, CONTENT),
    ("num_mailto_links", NUMERIC, CONTENT),
    ("num_telephone_links", NUMERIC, CONTENT),
    ("num_whatsapp_links", NUMERIC, CONTENT),
    ("review_system_linked", BOOLEAN, CONTENT),
    ("has_app_store", BOOLEAN, CONTENT),
    ("has_review_widget", BOOLEAN, CONTENT),
    ("trustpilot_present", BOOLEAN, CONTENT),
    ("num_links", NUMERIC, CONTENT),
    ("num_internal_links", NUMERIC, CONTENT),
    ("num_external_links", NUMERIC, CONTENT),
    ("num_external_http_links", NUMERIC, CONTENT),
    ("num_links_with_ip", NUMERIC, CONTENT),
    ("num_img_tags", NUMERIC, CONTENT),
    ("num_iframe_tags", NUMERIC, CONTENT),
    ("num_script_tags", NUMERIC, CONTENT),
    ("num_external_scripts", NUMERIC, CONTENT),
    ("num_style_tags", NUMERIC, CONTENT),
    ("num_meta_tags", NUMERIC, CONTENT),
    ("num_h1_tags", NUMERIC, CONTENT),
    ("num_h1_h6_tags", NUMERIC, CONTENT),
    ("num_css_classes", NUMERIC, CONTENT),
    ("num_forms", NUMERIC, CONTENT),
    ("num_input_fields", NUMERIC, CONTENT),
    ("has_password_field", BOOLEAN, CONTENT),
    ("has_meta_description", BOOLEAN, CONTENT),
    ("has_favicon", BOOLEAN, CONTENT),
    ("has_title", BOOLEAN, CONTENT),
    ("title_length", NUMERIC, CONTENT),
    ("html_length", NUMERIC, CONTENT),
    ("text_length", NUMERIC, CONTENT),
    ("num_words", NUMERIC, CONTENT),
    ("has_copyright_notice", BOOLEAN, CONTENT),
    ("has_privacy_policy_link", BOOLEAN, CONTENT),
    ("has_terms_link", BOOLEAN, CONTENT),
    ("has_refund_policy_link", BOOLEAN, CONTENT),
    ("has_shipping_info_link", BOOLEAN, CONTENT),
    ("has_faq_link", BOOLEAN, CONTENT),
    ("presence_work_with_us_link", BOOLEAN, CONTENT),
    ("presence_cookie_consent_notice", BOOLEAN, CONTENT),
    ("has_currency_symbol", BOOLEAN, CONTENT),
    ("discount_mention_count", NUMERIC, CONTENT),
    ("urgency_word_count", NUMERIC, CONTENT),
    ("has_countdown_timer", BOOLEAN, CONTENT),
]

NUM_FEATURES = len(FEATURES)
FEATURE_NAMES = [name for name, _, _ in FEATURES]
FEATURE_GROUPS = {name: group for name, _, group in FEATURES}
_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}

assert NUM_FEATURES == 103, f"schema must have 103 features, has {NUM_FEATURES}"


_INFINITIES = (math.inf, -math.inf)


@dataclass
class FeatureVector:
    """One row of the oracle's input, aligned to the schema order.

    A value of None means MISSING (the underlying signal was unavailable);
    booleans are stored as 0/1 ints.
    """

    values: list

    def __post_init__(self):
        if len(self.values) != NUM_FEATURES:
            raise SchemaError(f"expected {NUM_FEATURES} values, got {len(self.values)}")

    def __getitem__(self, name: str):
        return self.values[_INDEX[name]]

    def validate(self) -> None:
        for (name, kind, _), value in zip(FEATURES, self.values):
            if value is None:
                continue
            if kind == BOOLEAN and value not in (0, 1):
                raise SchemaError(f"{name}: boolean must be 0/1, got {value!r}")
            if kind == NUMERIC:
                if not isinstance(value, (int, float)) or value != value or value in _INFINITIES:
                    raise SchemaError(f"{name}: numeric must be finite, got {value!r}")
            if kind == CATEGORICAL and not isinstance(value, str):
                raise SchemaError(f"{name}: categorical must be a string token, got {value!r}")
