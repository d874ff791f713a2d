//! Order statistics and the metric record the run prints.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// closest ranks; `NaN` for no values. Infinite values (failed operations)
/// sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[hi].is_infinite() {
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// Iterates `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}`. Values keep
    /// every digit Rust prints for an `f64`; callers check they are finite.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.99), f64::INFINITY);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_keeps_names_units_and_digits() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.25, "ms");
        m.set("a_ms", 1.5, "ms");
        m.set("n", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"n\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}
