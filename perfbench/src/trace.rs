//! Self time per layer from the span aggregates the program already
//! records (`svt_obs` registry paths such as `core.signoff/sta.analyze`).
//!
//! A span's self time is its total minus the totals of its direct
//! children. Spans that run on pool worker threads root at their own
//! name, so a layer's self time is summed over every path that ends in
//! its name.

use svt_obs::json::JsonValue;

/// `(span path, total ns)` pairs, one per path.
pub type SpanTotals = Vec<(String, u64)>;

/// Span totals of this process's registry.
#[must_use]
pub fn local_spans() -> SpanTotals {
    svt_obs::registry()
        .snapshot()
        .spans
        .into_iter()
        .map(|s| (s.path, s.total_ns))
        .collect()
}

/// Span totals from a `/snapshot.json` document (`svtd`'s registry).
///
/// # Errors
///
/// Returns a message when the body is not a registry snapshot.
pub fn spans_from_json(body: &str) -> Result<SpanTotals, String> {
    let doc = JsonValue::parse(body)?;
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_object)
        .ok_or("snapshot has no `spans` object")?;
    spans
        .iter()
        .map(|(path, v)| {
            let total = v
                .get("total_ns")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("span `{path}` has no total_ns"))?;
            Ok((path.clone(), total))
        })
        .collect()
}

/// Per-path totals accumulated between two readings of one registry.
#[must_use]
pub fn since(after: &SpanTotals, before: &SpanTotals) -> SpanTotals {
    after
        .iter()
        .map(|(path, total)| {
            let prior = before
                .iter()
                .find(|(p, _)| p == path)
                .map_or(0, |(_, t)| *t);
            (path.clone(), total.saturating_sub(prior))
        })
        .collect()
}

/// Writes span totals as one JSON object of `path: total_ns`; a write
/// failure is reported and otherwise ignored.
pub fn write_spans(path: &std::path::Path, spans: &SpanTotals) {
    let body: Vec<String> = spans
        .iter()
        .map(|(p, t)| format!("  \"{}\": {t}", svt_obs::json::escape_json(p)))
        .collect();
    if let Err(e) = std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n"))) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Self nanoseconds of the layer whose spans are named `leaf`, summed
/// over every path ending in `leaf`.
#[must_use]
pub fn self_ns(spans: &SpanTotals, leaf: &str) -> u64 {
    spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
        .map(|(path, total)| {
            let children: u64 = spans
                .iter()
                .filter(|(p, _)| {
                    p.strip_prefix(path.as_str())
                        .and_then(|rest| rest.strip_prefix('/'))
                        .is_some_and(|child| !child.contains('/'))
                })
                .map(|(_, t)| *t)
                .sum();
            total.saturating_sub(children)
        })
        .sum()
}

/// Self milliseconds of `leaf` per op over `ops` ops (0 with no ops).
#[must_use]
pub fn self_ms_per_op(spans: &SpanTotals, leaf: &str, ops: usize) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let ms = self_ns(spans, leaf) as f64 / 1e6 / ops as f64;
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(rows: &[(&str, u64)]) -> SpanTotals {
        rows.iter().map(|(p, t)| ((*p).to_string(), *t)).collect()
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = spans(&[
            ("op", 100),
            ("op/expand", 70),
            ("op/expand/opc.correct", 50),
            ("op/signoff", 20),
            ("opc.correct", 40),
            ("opx", 5),
        ]);
        assert_eq!(self_ns(&s, "op"), 10);
        assert_eq!(self_ns(&s, "expand"), 20);
        // The nested and the worker-thread root path both count.
        assert_eq!(self_ns(&s, "opc.correct"), 90);
        assert_eq!(self_ns(&s, "missing"), 0);
        assert!((self_ms_per_op(&s, "op", 2) - 5e-6).abs() < 1e-12);
        assert_eq!(self_ms_per_op(&s, "op", 0), 0.0);
    }

    #[test]
    fn deltas_and_json_readings() {
        let body = r#"{"spans": {"a": {"count": 2, "total_ns": 300, "min_ns": 1, "max_ns": 2},
                       "a/b": {"count": 1, "total_ns": 100, "min_ns": 1, "max_ns": 1}}, "counters": {}}"#;
        let after = spans_from_json(body).expect("valid snapshot");
        let before = spans(&[("a", 120)]);
        let d = since(&after, &before);
        assert_eq!(d, spans(&[("a", 180), ("a/b", 100)]));
        assert_eq!(self_ns(&d, "a"), 80);
        assert!(spans_from_json("{}").is_err());
    }
}
