"""Flat key=value run configuration for the batch analyzer.

A config file is a sequence of `key = value` lines (`#` comments, blank lines
ignored). Global keys set defaults; per-study keys are prefixed with the study
name declared in `studies`, e.g.::

    corpus.scenario = declining-uncitedness
    output.dir = out
    output.formats = csv,json
    studies = g1 u1

    g1.type = gini
    g1.study.approach = citation_based
    g1.window.length = 5
    g1.study.include_uncited = true
    g1.normalize.enabled = true

    u1.type = uncited
    u1.window.length = 10
    u1.study.exclude_self = true
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from citeconc import synthgen
from citeconc.normalize import RHO_SCOPE_STUDY
from citeconc.studies import CITATION_BASED, StudyConfig, StudySpec
from citeconc.windows import BACKWARD, FORWARD, WindowSpec


class ConfigError(Exception):
    pass


GLOBAL_KEYS = {
    "corpus.articles", "corpus.edges", "corpus.scenario",
    "span.start", "span.end",
    "seed",
    "output.dir", "output.formats",
    "studies",
    "gen.seed", "gen.span.start", "gen.span.end",
    "gen.articles.start", "gen.articles.end",
    "gen.refs.start", "gen.refs.end",
}

# The study-scoped keys each study type reads; any other is a config error,
# and a global default applies only to the types that read it.
_COMMON_KEYS = {"type", "study.approach", "window.direction", "window.length", "study.exclude_self", "study.core_only"}
_GINI_KEYS = _COMMON_KEYS | {
    "study.include_uncited", "window.drop_earliest_population", "regions.remove",
    "normalize.enabled", "normalize.mics_per_year", "normalize.rho_scope",
}
STUDY_TYPE_KEYS = {
    "gini": _GINI_KEYS | {"study.field"},
    "uncited": _COMMON_KEYS,
    "region_removal": _COMMON_KEYS | {"regions.remove"},
    "region_tails": _COMMON_KEYS | {"study.top_pct", "study.citing_level"},
    "top_shares": _COMMON_KEYS | {"study.pcts"},
    "gini_by_field": _GINI_KEYS,
}
STUDY_KEYS = set().union(*STUDY_TYPE_KEYS.values())

# study-scoped keys may also appear globally as defaults
DEFAULTABLE = STUDY_KEYS - {"type"}


@dataclass
class RunConfig:
    articles_path: str | None
    edges_path: str | None
    gen: synthgen.GenParams | None  # the generator's parameters with corpus.scenario, else None
    span: tuple[int, int] | None
    out_dir: str
    formats: tuple[str, ...]
    studies: list[StudySpec] = field(default_factory=list)


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _bool(value: str, key: str) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def build_run(raw: dict[str, str]) -> RunConfig:
    study_names = raw.get("studies", "").split()
    repeated = [name for i, name in enumerate(study_names) if name in study_names[:i]]
    if repeated:
        raise ConfigError(f"studies: {repeated[0]!r} is listed more than once")
    for key in raw:
        if key in GLOBAL_KEYS or key in DEFAULTABLE:
            continue
        prefix, _, rest = key.partition(".")
        if prefix in study_names and rest in STUDY_KEYS:
            continue
        raise ConfigError(f"unknown config key {key!r}")

    has_files = "corpus.articles" in raw or "corpus.edges" in raw
    has_scenario = "corpus.scenario" in raw
    if has_files == has_scenario:
        raise ConfigError("exactly one of corpus.articles/corpus.edges or corpus.scenario must be set")
    if has_files and ("corpus.articles" not in raw or "corpus.edges" not in raw):
        raise ConfigError("both corpus.articles and corpus.edges are required for file input")

    span = None
    if "span.start" in raw or "span.end" in raw:
        if "span.start" not in raw or "span.end" not in raw:
            raise ConfigError("span.start and span.end must be set together")
        span = (_int(raw["span.start"], "span.start"), _int(raw["span.end"], "span.end"))
    if has_files and span is None:
        raise ConfigError("span.start/span.end are required for file input")
    if has_scenario and span is not None:
        raise ConfigError("span.start/span.end: only read with file input (a scenario's span is gen.span.start/end)")

    formats = tuple(f.strip() for f in raw.get("output.formats", "csv,json").split(",") if f.strip())
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"output.formats: unknown format {f!r}")

    gen_keys = sorted(k for k in raw if k == "seed" or k.startswith("gen."))
    if has_files and gen_keys:
        raise ConfigError(f"{gen_keys[0]}: only read with corpus.scenario")

    run = RunConfig(
        articles_path=raw.get("corpus.articles"),
        edges_path=raw.get("corpus.edges"),
        gen=_generator(raw) if has_scenario else None,
        span=span,
        out_dir=raw.get("output.dir", "."),
        formats=formats,
    )

    if not study_names:
        raise ConfigError("no studies configured (set `studies = name1 name2 ...`)")
    for name in study_names:
        kind = raw.get(f"{name}.type", "gini")
        if kind not in STUDY_TYPE_KEYS:
            raise ConfigError(f"{name}.type: unknown study type {kind!r}; available: {', '.join(STUDY_TYPE_KEYS)}")
        scoped = {k: raw[f"{name}.{k}"] for k in STUDY_KEYS if f"{name}.{k}" in raw}
        unread = sorted(set(scoped) - STUDY_TYPE_KEYS[kind])
        if unread:
            raise ConfigError(f"{name}.{unread[0]}: not read by {kind} studies")
        for k in STUDY_TYPE_KEYS[kind] & DEFAULTABLE:
            if k not in scoped and k in raw:
                scoped[k] = raw[k]
        run.studies.append(_build_study(name, kind, scoped))
    return run


def _generator(raw: dict[str, str]) -> synthgen.GenParams:
    """The ``corpus.scenario`` preset with the ``gen.*`` and ``seed`` overrides (``gen.seed`` first)."""
    def get(key, parse, default):
        return parse(raw[key], key) if key in raw else default

    try:
        params = synthgen.scenario(raw["corpus.scenario"])
    except ValueError as e:
        raise ConfigError(f"corpus.scenario: {e}") from None
    params = replace(params, seed=get("gen.seed", _int, get("seed", _int, params.seed)))
    if not any(k.startswith("gen.") and k != "gen.seed" for k in raw):
        return params
    # A span or schedule override: rebuild both schedules.
    start, end = get("gen.span.start", _int, params.span[0]), get("gen.span.end", _int, params.span[1])
    if end < start:
        raise ConfigError(f"gen.span.end: {end} is before gen.span.start {start}")
    n = end - start + 1
    a0 = get("gen.articles.start", _int, params.articles_per_year[0])
    a1 = get("gen.articles.end", _int, params.articles_per_year[-1])
    r0 = get("gen.refs.start", _float, params.refs_per_article[0])
    r1 = get("gen.refs.end", _float, params.refs_per_article[-1])
    try:
        return replace(params, span=(start, end),
                       articles_per_year=tuple(int(round(v)) for v in synthgen.linear_schedule(a0, a1, n)),
                       refs_per_article=synthgen.linear_schedule(r0, r1, n))
    except ValueError as e:  # a negative schedule
        raise ConfigError(f"gen.articles/gen.refs: {e}") from None


def _build_study(name: str, kind: str, scoped: dict[str, str]) -> StudySpec:
    approach = scoped.get("study.approach", CITATION_BASED)
    direction = scoped.get("window.direction", FORWARD if approach == CITATION_BASED else BACKWARD)
    length = _int(scoped.get("window.length", "5"), f"{name}.window.length")
    try:
        cfg = StudyConfig(
            window=WindowSpec(direction, length),
            approach=approach,
            include_uncited=_bool(scoped.get("study.include_uncited", "true"), f"{name}.study.include_uncited"),
            exclude_self_citations=_bool(scoped.get("study.exclude_self", "false"), f"{name}.study.exclude_self"),
            core_only=_bool(scoped.get("study.core_only", "false"), f"{name}.study.core_only"),
            normalized=_bool(scoped.get("normalize.enabled", "true"), f"{name}.normalize.enabled"),
            field_filter=scoped.get("study.field"),
            region_removed=scoped.get("regions.remove"),
            drop_earliest_population=_bool(scoped.get("window.drop_earliest_population", "false"),
                                           f"{name}.window.drop_earliest_population"),
            mics_per_year=_bool(scoped.get("normalize.mics_per_year", "false"), f"{name}.normalize.mics_per_year"),
            rho_scope=scoped.get("normalize.rho_scope", RHO_SCOPE_STUDY),
        )
        pcts = tuple(_float(p, f"{name}.study.pcts") for p in scoped.get("study.pcts", "0.01,0.05,0.10").split(","))
        top_pct = _float(scoped.get("study.top_pct", "0.01"), f"{name}.study.top_pct")
        return StudySpec(name=name, kind=kind, config=cfg, pcts=pcts, top_pct=top_pct,
                         citing_level=scoped.get("study.citing_level", "edge"))
    except ValueError as e:
        raise ConfigError(f"{name}: {e}") from None
