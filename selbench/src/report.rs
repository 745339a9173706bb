//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

/// Named metric values with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name, value, unit)),
        }
    }

    /// Keep exactly the metrics in `wanted`, in that order. Returns the
    /// names that were asked for but never measured.
    pub fn select(&self, wanted: &[&str]) -> (Metrics, Vec<String>) {
        let mut out = Metrics::default();
        let mut missing = Vec::new();
        for &name in wanted {
            match self.entries.iter().find(|(n, _, _)| n == name) {
                Some((n, v, u)) => out.entries.push((n.clone(), *v, u)),
                None => missing.push(name.to_string()),
            }
        }
        (out, missing)
    }

    /// Names whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite float in JSON with every digit Rust keeps (shortest
/// round-trip form); integral values keep a trailing `.0`.
pub fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') || !v.is_finite() {
        s
    } else {
        format!("{s}.0")
    }
}

/// The final stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}
