"""Seeded input generator for the pipeline benchmark.

Everything is drawn from ``numpy.random.default_rng([seed, stream])`` so one
seed always yields the same bytes.  The generator controls the input
properties the pipeline's cost depends on:

* numeric feature spread: domain age, expiry, rank signals and HTML counts
  are drawn from wide continuous or heavy-tailed ranges, so a numeric
  feature column has close to one distinct value per row (exact-greedy
  split search is linear in distinct values);
* SERP description length, kept well under the tokenizer's
  ``max_len_serp=64`` (``DESC_WORDS``);
* how often a domain recurs across result pages (``RECURRENCE``: Zipf-like
  popularity weights over a shared domain pool);
* the share of result domains that have no snapshot (``MISSING_SNAPSHOT``);
* the share of branded keywords (``BRANDED_SHARE``).

Ground truth the program never sees (hold-out labels, true query toxicity)
stays in the returned :class:`Inputs` and is only read by the output checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CATEGORIES = {
    "sneakers": ("sneakers", "trainers", "running shoes"),
    "watches": ("watch", "chronograph", "dive watch"),
    "drones": ("drone", "quadcopter", "gimbal"),
    "perfume": ("perfume", "cologne", "fragrance"),
    "jackets": ("jacket", "parka", "windbreaker"),
    "lamps": ("lamp", "floor lamp", "lantern"),
    "handbags": ("handbag", "tote bag", "crossbody bag"),
    "headphones": ("headphones", "earbuds", "headset"),
}
# unambiguous entries of the bundled brand lexicon
BRANDS = ("adidas", "nike", "acer", "puma", "reebok", "rolex", "casio",
          "sony", "samsung", "lego", "dyson", "canon", "gucci", "prada")
RISKY_MODS = ("cheap", "clearance", "outlet", "wholesale", "replica",
              "90 off", "flash sale", "liquidation", "free shipping")
NEUTRAL_MODS = ("best", "review", "how to choose", "top rated", "lightweight",
                "classic", "guide", "compact", "durable", "new")
TAILS = ("for men", "for women", "2024", "near me", "online", "kids",
         "black", "small", "large", "sale")
SEGMENT_TYPES = (("cheap", "PRICE"), ("clearance", "PRICE"),
                 ("90 off", "PRICE"), ("outlet", "MODIFIER"),
                 ("replica", "MODIFIER"), ("free shipping", "MODIFIER"),
                 ("review", "CONTENT"), ("how to choose", "CONTENT"),
                 ("best", "MODIFIER"), ("for women", "MODIFIER"))
SCAM_TLDS = ("shop", "top", "xyz", "store", "online", "site", "icu", "club")
BENIGN_TLDS = ("com", "com", "com", "net", "org", "co.uk", "de")
SCAM_REGISTRARS = ("NameCheap, Inc.", "NameSilo, LLC", "Porkbun LLC",
                   "Alibaba Cloud Computing", "Dynadot LLC")
BENIGN_REGISTRARS = ("MarkMonitor Inc.", "CSC Corporate Domains, Inc.",
                     "GoDaddy.com, LLC", "Gandi SAS", "Tucows Domains Inc.")
COUNTRIES = ("US", "GB", "DE", "CN", "HK", "IS", "PA", "NL", "FR", "SG")
RISKY_WORDS = ("unbeatable", "hurry", "limited", "stock", "80%", "off",
               "today", "only", "lowest", "price", "final", "clearance",
               "deal", "megasale", "expiring")
SAFE_WORDS = ("compare", "honest", "reviews", "warranty", "free", "returns",
              "official", "store", "support", "guide", "catalog", "trusted",
              "service", "since", "quality")
DESC_WORDS = (6, 18)   # SERP description length range, in words
SERP_LEN = 10          # results per (query, engine) page
ENGINES = ("GOOGLE", "BING")
SCAM_SHARE = 0.4       # share of scam domains in the pool
RECURRENCE = 1.1       # Zipf exponent of domain popularity on result pages
MISSING_SNAPSHOT = 0.05  # discover: share of pool domains without a snapshot
BRANDED_SHARE = 0.2    # discover: share of keywords naming a brand
LABELED_SHARE = 0.6    # measure: labeled domains; the rest are held out
FETCHED = "2024-03-01T12:00:00Z"
FETCHED_DAY = np.datetime64("2024-03-01")


@dataclass
class Sizes:
    """How much of each input a workload gets."""

    domains: int = 0               # size of the shared domain pool
    train_snapshots: int = 0       # discover: snapshots featurized to fit the oracle
    serp_queries: int = 0          # measure: queries with recorded SERPs
    keywords: int = 0              # keyword list for filter / rank
    lupi_queries: int = 0          # training records for train-lupi


@dataclass
class Domain:
    name: str
    scam: bool
    category: str


@dataclass
class Inputs:
    """Paths of the generated files plus the ground truth kept aside."""

    root: Path
    files: dict = field(default_factory=dict)        # role -> Path
    truth: dict = field(default_factory=dict)        # domain -> "SCAM"/"BENIGN"
    holdout: list = field(default_factory=list)      # held-out domains
    query_toxicity: dict = field(default_factory=dict)  # keyword -> true toxicity

    def digests(self) -> dict:
        return {role: sha256_file(path) for role, path in sorted(self.files.items())}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


# --- domains and snapshots --------------------------------------------------


def make_domains(rng, n: int) -> list[Domain]:
    cats = list(CATEGORIES)
    out = []
    for i in range(n):
        scam = bool(rng.random() < SCAM_SHARE)
        cat = cats[i % len(cats)]
        noun = CATEGORIES[cat][0].replace(" ", "")
        # name shape and TLD lean on the class but overlap, as in the wild
        prefix = _pick(rng, ("mega", "hot", "best", "super", "bright", "urban",
                             "north", "classic", "true", "flash"))
        sep = "-" if rng.random() < (0.6 if scam else 0.3) else ""
        tlds = SCAM_TLDS if rng.random() < (0.6 if scam else 0.15) else BENIGN_TLDS
        out.append(Domain(f"{prefix}{noun}{sep}{i}.{_pick(rng, tlds)}", scam, cat))
    return out


def _cue(rng, s: float) -> bool:
    """A scam-leaning binary cue: present with probability ``s``."""
    return bool(rng.random() < s)


def _words(rng, n: int, s: float) -> str:
    """``n`` words, each risky with probability ``s`` and otherwise safe."""
    risky = rng.random(n) < s
    idx = rng.integers(len(RISKY_WORDS), size=n)
    return " ".join(RISKY_WORDS[i] if r else SAFE_WORDS[i]
                    for i, r in zip(idx.tolist(), risky.tolist()))


def _html(rng, dom: Domain, s: float) -> str:
    pitch = "SALE 70% OFF" if _cue(rng, s) else "Store"
    parts = ["<!doctype html><html><head>",
             f"<title>{dom.category.title()} {pitch} - {dom.name}</title>"]
    if not _cue(rng, s):
        parts.append('<meta name="description" content="shop online">')
    if not _cue(rng, s):
        parts.append('<link rel="icon" href="/favicon.ico">')
    for _ in range(int(rng.integers(0, 6))):
        host = _pick(rng, ("cdn.tracker-net.xyz", f"static.{dom.name}",
                           "cdn.jsdelivr.net"))
        script = int(rng.integers(100))
        parts.append(f'<script src="https://{host}/t{script}.js"></script>')
    parts.append("</head><body>")
    if _cue(rng, s):
        hours = int(rng.integers(1, 9))
        parts.append(f'<div class="countdown">Offer ends in 0{hours}:59:59</div>')
    if _cue(rng, s):
        parts.append("<h1>MEGA CLEARANCE SALE - HURRY, LIMITED TIME, ONLY 3 LEFT</h1>")
    else:
        parts.append(f"<h1>{dom.category.title()} collection</h1>"
                     "<h2>Why shop with us</h2>")
    for p in range(int(rng.integers(2, 14))):
        body = _words(rng, int(rng.integers(5, 60)), s)
        price = int(rng.integers(5, 500))
        parts.append(f'<p class="c{p % 7} text">{body} ${price}.99</p>')
    for k in range(int(rng.geometric(0.08))):
        parts.append(f'<img class="img{k % 5}" src="/i/{k}.jpg">')
    for k in range(int(rng.geometric(0.02 + 0.05 * s))):
        parts.append(f'<a href="/p/{k}">item {k}</a>')
    if _cue(rng, 0.8 * s):
        phone = int(rng.integers(10**9, 10**10))
        parts.append(f'<a href="https://wa.me/{phone}">WhatsApp</a>')
    if _cue(rng, s):
        parts.append('<form action="/order"><input name="email">'
                     '<input name="card"></form>')
    for link in ("/privacy", "/terms", "/returns", "/shipping", "/faq", "/contact"):
        if not _cue(rng, s):
            parts.append(f'<a href="{link}">{link[1:]}</a>')
    for social in ("https://facebook.com/x", "https://instagram.com/x",
                   "https://www.trustpilot.com/review/x"):
        if not _cue(rng, 0.3 + 0.6 * s):
            parts.append(f'<a href="{social}">s</a>')
    if not _cue(rng, s):
        parts.append("<div>We use cookies. Accept cookies?</div>")
    if not _cue(rng, s):
        year = int(rng.integers(1998, 2024))
        parts.append(f"<footer>&copy; {year} {dom.name}</footer>")
    parts.append("</body></html>")
    return "\n".join(parts)


def snapshot_record(rng, dom: Domain) -> dict:
    # every cue leans on a per-domain scamminess with wide overlap between the
    # classes, so no single feature separates them and trees grow full depth
    s = float(np.clip(rng.normal(0.65 if dom.scam else 0.35, 0.11), 0.02, 0.98))
    host = dom.name if rng.random() < 0.5 else "www." + dom.name
    age = float(rng.gamma(1.5, np.exp(np.log(60.0) * s + np.log(1500.0) * (1 - s))))
    period = int(rng.integers(330, 400)) if _cue(rng, s) else int(rng.integers(365, 3650))
    created = FETCHED_DAY - np.timedelta64(int(age) + 1, "D")
    expires = created + np.timedelta64(period, "D")
    has_rank = not _cue(rng, s)
    ranks = {
        "tranco": int(rng.lognormal(9 + 4 * s, 2)) + 1 if has_rank else None,
        "majestic": int(rng.lognormal(10 + 4 * s, 1.5)) + 1 if has_rank else None,
        "majestic_refips": int(rng.lognormal(4 - 2 * s, 2)) if has_rank else None,
        "majestic_refsubnets": int(rng.lognormal(3.5 - 2 * s, 1.8)) if has_rank else None,
        "majestic_tldrank": int(rng.lognormal(8 + 4 * s, 2)) + 1 if has_rank else None,
        "cisco": int(rng.lognormal(12, 2)) + 1 if rng.random() < 0.3 else None,
    }
    cheap_dns = _cue(rng, s)
    dns = {
        "a": [f"203.0.{int(rng.integers(256))}.{int(rng.integers(256))}"
              for _ in range(int(rng.integers(1, 4)))],
        "ns": [f"ns{k}.{'cheapdns.top' if cheap_dns else 'dnsprovider.net'}"
               for k in range(1, int(rng.integers(2, 5)))],
    }
    if not _cue(rng, s):
        dns["mx"] = [f"mx{k}.mail.net" for k in range(int(rng.integers(1, 4)))]
        dns["txt"] = ["v=spf1 include:_spf.mail.net ~all"] + (
            ["google-site-verification=abc"] if rng.random() < 0.6 else [])
    whois = {
        "created": str(created), "expires": str(expires),
        "registrar": _pick(rng, SCAM_REGISTRARS if _cue(rng, s) else BENIGN_REGISTRARS),
        "registrar_country": _pick(rng, COUNTRIES),
        "registrant_country": _pick(rng, COUNTRIES),
        "privacy": _cue(rng, s),
        "registrant_email_domain": "gmail.com" if _cue(rng, s) else dom.name,
    }
    return {
        "url": f"http://{host}/",
        "final_url": f"https://{host}/{'sale' if _cue(rng, s) else ''}",
        "fetched_at": FETCHED,
        "http_status": 200,
        "html": _html(rng, dom, s),
        "dns": dns,
        "whois": whois,
        "ranks": ranks,
    }


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")


def _write_labels(path: Path, domains) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["root_domain", "label", "category"])
        for d in domains:
            writer.writerow([d.name, "SCAM" if d.scam else "BENIGN", d.category])


# --- queries, SERPs and keywords ----------------------------------------------


def make_query(rng, cat: str, branded: bool, i: int) -> tuple[str, float]:
    """Keyword text and its latent toxicity (the chance a result is a scam)."""
    toxic = rng.random() < 0.5
    latent = float(rng.uniform(0.55, 0.9) if toxic else rng.uniform(0.05, 0.35))
    mods = RISKY_MODS if rng.random() < (0.75 if toxic else 0.2) else NEUTRAL_MODS
    words = [_pick(rng, mods), _pick(rng, CATEGORIES[cat])]
    if rng.random() < 0.6:
        words.append(_pick(rng, TAILS))
    if branded:
        words.insert(int(rng.integers(0, 2)), _pick(rng, BRANDS))
    words.append(f"q{i}")   # keeps keyword texts distinct
    return " ".join(words), latent


class ResultPool:
    """Scam and benign domains that result pages draw from.

    Popularity follows a Zipf law with exponent ``recurrence`` (in a random
    order), so popular domains recur across many result pages.
    """

    def __init__(self, domains, recurrence: float, rng):
        self.scams = [d for d in domains if d.scam]
        self.benign = [d for d in domains if not d.scam]
        self.cdf = [self._cdf(len(self.scams), recurrence, rng),
                    self._cdf(len(self.benign), recurrence, rng)]

    @staticmethod
    def _cdf(n: int, exponent: float, rng) -> np.ndarray:
        w = (1.0 / np.arange(1, n + 1) ** exponent)[rng.permutation(n)]
        return np.cumsum(w) / w.sum()

    def draw(self, rng, scam: bool) -> Domain:
        pool, cdf = (self.scams, self.cdf[0]) if scam else (self.benign, self.cdf[1])
        return pool[min(int(np.searchsorted(cdf, rng.random())), len(pool) - 1)]


def serp_page(rng, query: str, engine: str, latent: float,
              pool: ResultPool) -> list[dict]:
    """One result page; each slot is a scam with probability ``latent``."""
    entries = []
    for rank in range(1, SERP_LEN + 1):
        dom = pool.draw(rng, bool(rng.random() < latent))
        n_words = int(rng.integers(DESC_WORDS[0], DESC_WORDS[1] + 1))
        desc = _words(rng, n_words, 0.8 if dom.scam else 0.2)
        prefix = "" if rng.random() < 0.6 else "www."
        entries.append({
            "engine": engine, "rank": rank,
            "url": f"https://{prefix}{dom.name}/p/{int(rng.integers(1000))}",
            "title": f"{query.title()} | {dom.name}",
            "description": f"{query} {desc}",
        })
    return entries


def true_toxicity(entries, truth) -> tuple[float, int]:
    """Dedup share (and count) of scam root domains among result entries."""
    doms = {e["url"].split("/")[2].removeprefix("www.") for e in entries}
    scams = sum(1 for d in doms if truth[d] == "SCAM")
    return scams / len(doms), scams


def _keywords(rng, n: int, branded: float, start: int = 0):
    cats = list(CATEGORIES)
    out = []
    for i in range(start, start + n):
        cat = cats[i % len(cats)]
        text, latent = make_query(rng, cat, bool(rng.random() < branded), i)
        out.append({
            "text": text, "category": cat,
            "source_domain": f"seed-{i % 37}.shop",
            "competition": _pick(rng, ("LOW", "MEDIUM", "HIGH")),
            "monthly_volume": int(rng.lognormal(5, 1.5)),
            "_latent": latent,
        })
    return out


def _public(kw: dict) -> dict:
    return {k: v for k, v in kw.items() if not k.startswith("_")}


# --- workloads ------------------------------------------------------------------


def generate(workload: str, seed: int, sizes: Sizes, out_dir: Path) -> Inputs:
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(root=out_dir)
    if workload == "measure":
        _gen_measure(seed, sizes, inputs)
    elif workload == "distill":
        _gen_distill(seed, sizes, inputs)
    elif workload == "discover":
        _gen_discover(seed, sizes, inputs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def _write_pool(seed, inputs, snapshot_domains, labeled) -> dict:
    rng = _rng(seed, 2)
    records = {d.name: snapshot_record(rng, d) for d in snapshot_domains}
    snap_path = inputs.root / "snapshots.jsonl"
    _write_jsonl(snap_path, records.values())
    labels_path = inputs.root / "labels.csv"
    _write_labels(labels_path, labeled)
    inputs.files.update(snapshots=snap_path, labels=labels_path)
    return records


def _gen_measure(seed, sizes, inputs):
    rng = _rng(seed, 1)
    domains = make_domains(rng, sizes.domains)
    inputs.truth = {d.name: "SCAM" if d.scam else "BENIGN" for d in domains}
    order = rng.permutation(len(domains))
    n_lab = int(round(len(domains) * LABELED_SHARE))
    labeled = [domains[i] for i in sorted(order[:n_lab])]
    inputs.holdout = [domains[i].name for i in sorted(order[n_lab:])]
    _write_pool(seed, inputs, domains, labeled)

    rng = _rng(seed, 3)
    kws = _keywords(rng, sizes.serp_queries, 0.0)
    pool = ResultPool(domains, RECURRENCE, rng)
    serps = []
    for kw in kws:
        for engine in ENGINES:
            serps.append({"query": kw["text"], "entries": serp_page(
                rng, kw["text"], engine, kw["_latent"], pool)})
    rng.shuffle(serps)
    paths = {k: inputs.root / f for k, f in (
        ("serps", "serps.jsonl"), ("keywords", "keywords.jsonl"),
        ("segments", "segments.jsonl"))}
    _write_jsonl(paths["serps"], serps)
    _write_jsonl(paths["keywords"], (_public(k) for k in kws))
    _write_jsonl(paths["segments"], (
        {"text": text, "token_type": tt, "category": cat}
        for cat in CATEGORIES for text, tt in
        ((CATEGORIES[cat][0], "CORE_PRODUCT_TYPE"),) + SEGMENT_TYPES))
    inputs.files.update(paths)


def _lupi_records(rng, sizes, pool, truth, start: int) -> list[dict]:
    """train-lupi records: query, true toxicity and one GOOGLE result page."""
    records = []
    for kw in _keywords(rng, sizes.lupi_queries, 0.0, start=start):
        entries = serp_page(rng, kw["text"], "GOOGLE", kw["_latent"], pool)
        tox, n_scam = true_toxicity(entries, truth)
        records.append({"query": kw["text"], "category": kw["category"],
                        "toxicity": tox, "expansion": n_scam,
                        "entries": entries})
    return records


def _gen_distill(seed, sizes, inputs):
    rng = _rng(seed, 1)
    domains = make_domains(rng, sizes.domains)
    truth = {d.name: "SCAM" if d.scam else "BENIGN" for d in domains}
    pool = ResultPool(domains, RECURRENCE, rng)
    rng = _rng(seed, 3)
    records = _lupi_records(rng, sizes, pool, truth, start=0)
    held = _keywords(rng, sizes.keywords, 0.0, start=sizes.lupi_queries)
    for kw in held:
        page = serp_page(rng, kw["text"], "GOOGLE", kw["_latent"], pool)
        inputs.query_toxicity[kw["text"]] = true_toxicity(page, truth)[0]
    train_path = inputs.root / "lupi_train.jsonl"
    kw_path = inputs.root / "heldout_keywords.jsonl"
    _write_jsonl(train_path, records)
    _write_jsonl(kw_path, (_public(k) for k in held))
    inputs.files.update(lupi_train=train_path, keywords=kw_path)


def _gen_discover(seed, sizes, inputs):
    rng = _rng(seed, 1)
    domains = make_domains(rng, sizes.domains)
    truth = {d.name: "SCAM" if d.scam else "BENIGN" for d in domains}
    missing = rng.random(len(domains)) < MISSING_SNAPSHOT
    with_snap = [d for d, m in zip(domains, missing) if not m]
    # the oracle is fit on a labeled sample; the rest are "new" to discovery
    order = rng.permutation(len(with_snap))
    train = [with_snap[i] for i in sorted(order[:sizes.train_snapshots])]
    records = _write_pool(seed, inputs, with_snap, train)
    train_snaps = inputs.root / "train_snapshots.jsonl"
    _write_jsonl(train_snaps, (records[d.name] for d in train))
    inputs.files["train_snapshots"] = train_snaps

    rng = _rng(seed, 3)
    pool = ResultPool(domains, RECURRENCE, rng)
    kws = _keywords(rng, sizes.keywords, BRANDED_SHARE)
    fixtures = []
    for kw in kws:
        pages = [serp_page(rng, kw["text"], engine, kw["_latent"], pool)
                 for engine in ENGINES]
        inputs.query_toxicity[kw["text"]] = true_toxicity(
            [e for page in pages for e in page], truth)[0]
        for engine, page in zip(ENGINES, pages):
            fixtures.append({"query": kw["text"], "engine": engine,
                             "capture_date": "2024-03-02", "entries": page})
    lupi = _lupi_records(rng, sizes, pool, truth, start=sizes.keywords)
    paths = {k: inputs.root / f for k, f in (
        ("fixtures", "serp_fixtures.jsonl"), ("keywords", "keywords.jsonl"),
        ("lupi_train", "lupi_train.jsonl"))}
    _write_jsonl(paths["fixtures"], fixtures)
    _write_jsonl(paths["keywords"], (_public(k) for k in kws))
    _write_jsonl(paths["lupi_train"], lupi)
    inputs.files.update(paths)
