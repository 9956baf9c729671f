//! Quantiles and the named-metric list a run prints.

use cf2df_bench::json::{self, Obj};

/// Nearest-rank quantile `q` (0 < q <= 1) of `samples`; sorts in place.
/// Returns 0 for an empty slice.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of ns samples, in µs.
pub fn median_us(mut ns: Vec<u64>) -> f64 {
    quantile(&mut ns, 0.5) as f64 / 1e3
}

/// Median of `f64` values (lower median for an even count; 0 when
/// empty).
pub fn median_f64(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Mean of integer counts per op.
pub fn mean(total: u64, ops: usize) -> f64 {
    total as f64 / ops.max(1) as f64
}

/// Named metrics with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.items.push((name.into(), value, unit));
    }

    /// Append every metric of `other`, each name prefixed by `prefix.`.
    pub fn extend_prefixed(&mut self, prefix: &str, other: Metrics) {
        for (n, v, u) in other.items {
            self.items.push((format!("{prefix}.{n}"), v, u));
        }
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Metric names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.items.iter().map(|(n, _, _)| n.as_str())
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        for (n, v, u) in &self.items {
            let mut m = Obj::new();
            m.float("value", *v).str("unit", u);
            o.raw(n, &m.finish());
        }
        o.finish()
    }

    /// One aligned `name value unit` line per metric.
    pub fn render(&self) -> String {
        self.items
            .iter()
            .map(|(n, v, u)| format!("  {n:<36} {:>14} {u}\n", json::float(*v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 5);
        assert_eq!(quantile(&mut v, 0.9), 9);
        assert_eq!(quantile(&mut v, 1.0), 10);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median_f64(vec![3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.push("p50_us", 12.5, "us");
        let mut all = Metrics::default();
        all.extend_prefixed("oneshot", m);
        let doc = json::parse(&all.to_json()).expect("valid JSON");
        let v = doc.get("oneshot.p50_us").and_then(|m| m.get("value"));
        assert_eq!(v.and_then(json::Json::as_num), Some(12.5));
        assert_eq!(all.get("oneshot.p50_us"), Some(12.5));
    }
}
