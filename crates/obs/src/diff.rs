//! Snapshot diffing: the engine behind `extractocol-obs-diff`.
//!
//! A [`Snapshot`] is a flat `series name → value` map parsed from a
//! Prometheus-text exposition (as rendered by
//! [`crate::Registry::render`]). Each series belongs to a *family*
//! carrying a [`Volatility`], declared via the non-standard
//! `# VOLATILITY <name> deterministic|perrun` comment the registry
//! renderer emits (foreign scrapes without the comment default to
//! per-run — the safe side).
//!
//! [`diff`] then applies the two-tier contract from the metrics module:
//! deterministic series must match **exactly** — any value change,
//! missing series, or new series is a regression — while per-run series
//! are compared against a symmetric relative threshold
//! (`|a-b| / max(|a|,|b|)`), with missing/new series demoted to
//! warnings. [`DiffConfig::ignore_per_run`] drops the per-run tier
//! entirely, which is how a fresh classify run is diffed against the
//! checked-in `METRICS_classify.baseline.txt` across machines.

use crate::metrics::Volatility;
use std::collections::BTreeMap;

/// Family metadata recovered from `# HELP`/`# TYPE`/`# VOLATILITY`
/// comment lines.
#[derive(Clone, Debug)]
pub struct FamilyMeta {
    /// The `# HELP` text (empty if absent).
    pub help: String,
    /// The `# TYPE` (counter/gauge/histogram; empty if absent).
    pub typ: String,
    /// Determinism contract; `None` when the snapshot did not declare it.
    pub volatility: Option<Volatility>,
}

/// One parsed snapshot: series values plus per-family metadata.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `name{labels}` (or bare `name`) → sample value.
    pub series: BTreeMap<String, f64>,
    /// Family name → metadata.
    pub families: BTreeMap<String, FamilyMeta>,
}

impl Snapshot {
    /// The family name of a series key: the part before `{`, with
    /// histogram suffixes (`_bucket`/`_sum`/`_count`) folded into their
    /// base family when that base is known.
    pub fn family_of(&self, series: &str) -> String {
        let name = series.split('{').next().unwrap_or(series);
        if !self.families.contains_key(name) {
            for suffix in ["_bucket", "_sum", "_count"] {
                if let Some(base) = name.strip_suffix(suffix) {
                    if self.families.contains_key(base) {
                        return base.to_string();
                    }
                }
            }
        }
        name.to_string()
    }

    /// The declared volatility of a series (`None` if undeclared).
    pub fn volatility_of(&self, series: &str) -> Option<Volatility> {
        self.families.get(&self.family_of(series)).and_then(|m| m.volatility)
    }
}

fn family_meta_mut<'a>(snap: &'a mut Snapshot, name: &str) -> &'a mut FamilyMeta {
    snap.families.entry(name.to_string()).or_insert_with(|| FamilyMeta {
        help: String::new(),
        typ: String::new(),
        volatility: None,
    })
}

/// Splits a sample line into `(series_key, value)`, honouring quoted —
/// possibly escaped — label values that may contain spaces or braces.
fn split_sample(line: &str) -> Result<(String, f64), String> {
    let bytes = line.as_bytes();
    let key_end = if let Some(open) = line.find('{') {
        let mut in_quotes = false;
        let mut escaped = false;
        let mut end = None;
        for (i, &b) in bytes.iter().enumerate().skip(open + 1) {
            if escaped {
                escaped = false;
                continue;
            }
            match b {
                b'\\' if in_quotes => escaped = true,
                b'"' => in_quotes = !in_quotes,
                b'}' if !in_quotes => {
                    end = Some(i + 1);
                    break;
                }
                _ => {}
            }
        }
        end.ok_or_else(|| format!("unterminated label set: {line:?}"))?
    } else {
        line.find(char::is_whitespace).ok_or_else(|| format!("no value on line: {line:?}"))?
    };
    let key = line[..key_end].to_string();
    let rest = line[key_end..].trim();
    // Prometheus allows an optional trailing timestamp; take token one.
    let value_tok =
        rest.split_whitespace().next().ok_or_else(|| format!("no value on line: {line:?}"))?;
    let value = value_tok
        .parse::<f64>()
        .map_err(|_| format!("bad sample value {value_tok:?} on line: {line:?}"))?;
    Ok((key, value))
}

/// Parses a Prometheus text exposition into a [`Snapshot`].
pub fn parse_prometheus(text: &str) -> Result<Snapshot, String> {
    let mut snap = Snapshot::default();
    for raw in text.lines() {
        let line = raw.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut it = comment.trim_start().splitn(3, ' ');
            let kind = it.next().unwrap_or("");
            let name = it.next().unwrap_or("");
            let rest = it.next().unwrap_or("");
            match kind {
                "HELP" if !name.is_empty() => {
                    family_meta_mut(&mut snap, name).help = rest.to_string();
                }
                "TYPE" if !name.is_empty() => {
                    family_meta_mut(&mut snap, name).typ = rest.to_string();
                }
                "VOLATILITY" if !name.is_empty() => {
                    let vol = match rest.trim() {
                        "deterministic" => Volatility::Deterministic,
                        "perrun" => Volatility::PerRun,
                        other => {
                            return Err(format!("unknown volatility {other:?} for {name}"));
                        }
                    };
                    family_meta_mut(&mut snap, name).volatility = Some(vol);
                }
                // EXEMPLAR and foreign comments are ignored.
                _ => {}
            }
            continue;
        }
        let (key, value) = split_sample(line)?;
        snap.series.insert(key, value);
    }
    Ok(snap)
}

/// Diff tuning knobs.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Maximum symmetric relative difference tolerated on a per-run
    /// series before it counts as a regression.
    pub per_run_threshold: f64,
    /// Skip the per-run tier entirely (cross-machine baseline gates).
    pub ignore_per_run: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { per_run_threshold: 0.25, ignore_per_run: false }
    }
}

/// The outcome of one snapshot comparison.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Contract violations: any one of these fails the gate.
    pub regressions: Vec<String>,
    /// Advisory drift (per-run series appearing/disappearing).
    pub warnings: Vec<String>,
    /// Series compared (union of both snapshots).
    pub compared: usize,
}

impl DiffReport {
    /// True when the gate must fail.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable report, one finding per line plus a summary.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.regressions {
            let _ = writeln!(out, "REGRESSION {r}");
        }
        for w in &self.warnings {
            let _ = writeln!(out, "WARN {w}");
        }
        let _ = writeln!(
            out,
            "obs-diff: {} series compared, {} regression(s), {} warning(s)",
            self.compared,
            self.regressions.len(),
            self.warnings.len()
        );
        out
    }
}

/// Symmetric relative difference in `[0, 1]`: `0` for equal values,
/// `1` when one side is zero and the other is not.
fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// Compares `current` against `baseline` under the two-tier contract.
///
/// A series' volatility is taken from whichever snapshot declares it
/// (current wins); undeclared series default to per-run so that foreign
/// scrapes can never fail the exact tier by accident.
pub fn diff(baseline: &Snapshot, current: &Snapshot, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    let mut keys: Vec<&String> = baseline.series.keys().collect();
    for k in current.series.keys() {
        if !baseline.series.contains_key(k) {
            keys.push(k);
        }
    }
    keys.sort();
    report.compared = keys.len();
    for key in keys {
        let vol = current
            .volatility_of(key)
            .or_else(|| baseline.volatility_of(key))
            .unwrap_or(Volatility::PerRun);
        let base = baseline.series.get(key).copied();
        let cur = current.series.get(key).copied();
        match vol {
            Volatility::Deterministic => match (base, cur) {
                (Some(b), Some(c)) if b == c => {}
                (Some(b), Some(c)) => {
                    report
                        .regressions
                        .push(format!("deterministic series {key} changed: {b} -> {c}"));
                }
                (Some(b), None) => {
                    report.regressions.push(format!(
                        "deterministic series {key} missing from current (baseline {b})"
                    ));
                }
                (None, Some(c)) => {
                    report.regressions.push(format!(
                        "deterministic series {key} absent from baseline (current {c}); \
                         regenerate the baseline"
                    ));
                }
                (None, None) => unreachable!("key came from one of the snapshots"),
            },
            Volatility::PerRun => {
                if cfg.ignore_per_run {
                    continue;
                }
                match (base, cur) {
                    (Some(b), Some(c)) => {
                        let d = rel_diff(b, c);
                        if d > cfg.per_run_threshold {
                            report.regressions.push(format!(
                                "per-run series {key} drifted {:.1}% (> {:.1}%): {b} -> {c}",
                                d * 100.0,
                                cfg.per_run_threshold * 100.0
                            ));
                        }
                    }
                    (Some(b), None) => {
                        report
                            .warnings
                            .push(format!("per-run series {key} missing from current ({b})"));
                    }
                    (None, Some(c)) => {
                        report.warnings.push(format!("per-run series {key} new in current ({c})"));
                    }
                    (None, None) => unreachable!("key came from one of the snapshots"),
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter(
            "verdicts_total",
            &[("verdict", "match")],
            Volatility::Deterministic,
            "per-verdict counts",
        )
        .add(7);
        reg.counter(
            "verdicts_total",
            &[("verdict", "un\"quoted\\odd")],
            Volatility::Deterministic,
            "per-verdict counts",
        )
        .add(3);
        let h = reg.histogram("lat_us", &[], Volatility::PerRun, "latency", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        reg
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let reg = sample_registry();
        let text = reg.render();
        let snap = parse_prometheus(&text).unwrap();
        assert_eq!(snap.series.get("verdicts_total{verdict=\"match\"}"), Some(&7.0));
        // Escaped label values survive the round trip intact.
        assert_eq!(
            snap.series.get("verdicts_total{verdict=\"un\\\"quoted\\\\odd\"}"),
            Some(&3.0),
            "{:?}",
            snap.series
        );
        assert_eq!(
            snap.volatility_of("verdicts_total{verdict=\"match\"}"),
            Some(Volatility::Deterministic)
        );
        // Histogram suffix series resolve to the base family's volatility.
        assert_eq!(snap.volatility_of("lat_us_bucket{le=\"1\"}"), Some(Volatility::PerRun));
        assert_eq!(snap.volatility_of("lat_us_count"), Some(Volatility::PerRun));
        assert_eq!(snap.families["verdicts_total"].help, "per-verdict counts");
        assert_eq!(snap.families["verdicts_total"].typ, "counter");
        // Identical snapshots diff clean.
        let again = parse_prometheus(&text).unwrap();
        let report = diff(&snap, &again, &DiffConfig::default());
        assert!(!report.is_regression(), "{}", report.to_text());
        assert!(report.warnings.is_empty(), "{}", report.to_text());
    }

    #[test]
    fn deterministic_perturbation_is_a_regression() {
        let text = sample_registry().render();
        let base = parse_prometheus(&text).unwrap();
        let perturbed = text
            .replace("verdicts_total{verdict=\"match\"} 7", "verdicts_total{verdict=\"match\"} 8");
        assert_ne!(text, perturbed, "perturbation must hit a line");
        let cur = parse_prometheus(&perturbed).unwrap();
        let report = diff(&base, &cur, &DiffConfig::default());
        assert!(report.is_regression());
        assert!(
            report.regressions.iter().any(|r| r.contains("verdicts_total") && r.contains("7")),
            "{}",
            report.to_text()
        );
    }

    #[test]
    fn deterministic_missing_or_new_series_is_a_regression() {
        let text = sample_registry().render();
        let base = parse_prometheus(&text).unwrap();
        let mut cur = base.clone();
        cur.series.remove("verdicts_total{verdict=\"match\"}");
        let report = diff(&base, &cur, &DiffConfig::default());
        assert!(report.regressions.iter().any(|r| r.contains("missing")), "{}", report.to_text());
        let report = diff(&cur, &base, &DiffConfig::default());
        assert!(
            report.regressions.iter().any(|r| r.contains("absent from baseline")),
            "{}",
            report.to_text()
        );
    }

    #[test]
    fn per_run_series_use_relative_threshold() {
        let text = sample_registry().render();
        let base = parse_prometheus(&text).unwrap();
        let mut cur = base.clone();
        // lat_us_sum: 5.5 -> 6.0 is ~8.3% drift, within the default 25%.
        cur.series.insert("lat_us_sum".to_string(), 6.0);
        let report = diff(&base, &cur, &DiffConfig::default());
        assert!(!report.is_regression(), "{}", report.to_text());
        // 5.5 -> 60 blows the threshold.
        cur.series.insert("lat_us_sum".to_string(), 60.0);
        let report = diff(&base, &cur, &DiffConfig::default());
        assert!(report.is_regression(), "{}", report.to_text());
        // ...unless the per-run tier is ignored.
        let report =
            diff(&base, &cur, &DiffConfig { ignore_per_run: true, ..DiffConfig::default() });
        assert!(!report.is_regression(), "{}", report.to_text());
        // Missing per-run series is only a warning.
        let mut gone = base.clone();
        gone.series.retain(|k, _| !k.starts_with("lat_us"));
        let report = diff(&base, &gone, &DiffConfig::default());
        assert!(!report.is_regression(), "{}", report.to_text());
        assert!(!report.warnings.is_empty());
    }

    #[test]
    fn undeclared_volatility_defaults_to_per_run() {
        let foreign = "up 1\nscrape_duration_seconds 0.02\n";
        let base = parse_prometheus(foreign).unwrap();
        let cur = parse_prometheus("up 0\nscrape_duration_seconds 0.5\n").unwrap();
        let report = diff(&base, &cur, &DiffConfig::default());
        // Both drifted >25%, but as per-run regressions, not exact ones.
        assert_eq!(report.regressions.len(), 2, "{}", report.to_text());
        assert!(report.regressions.iter().all(|r| r.contains("per-run")));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("x{le=\"1\" 3\n").is_err(), "unterminated labels");
        assert!(parse_prometheus("lonely_name\n").is_err(), "no value");
        assert!(parse_prometheus("x nope\n").is_err(), "non-numeric value");
        assert!(parse_prometheus("# VOLATILITY x sometimes\n").is_err(), "bad volatility");
    }
}
