//! Metric values and the two ways a run prints them: a human table, and
//! the one-line JSON result that must be the last line of stdout.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Real(f64),
    /// An exact count (registry counters, request totals).
    Count(u64),
}

impl Value {
    pub fn is_finite(&self) -> bool {
        match self {
            Value::Real(v) => v.is_finite(),
            Value::Count(_) => true,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: Value,
    pub unit: &'static str,
    /// Free-text context for the table (sample counts, what it should move).
    pub note: String,
}

impl Metric {
    pub fn real(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: Value::Real(value),
            unit,
            note: note.into(),
        }
    }

    pub fn count(name: &str, value: u64, unit: &'static str, note: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: Value::Count(value),
            unit,
            note: note.into(),
        }
    }
}

/// Print metrics as an aligned table on stdout.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!("  {:<36} {:>18}  {:<8} note", "metric", "value", "unit");
    for m in metrics {
        let value = match m.value {
            Value::Real(v) => format!("{v:.6}"),
            Value::Count(c) => c.to_string(),
        };
        println!("  {:<36} {:>18}  {:<8} {}", m.name, value, m.unit, m.note);
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`. Reals print with every
/// digit (shortest round-trip form); non-finite values print as `null`
/// and are caught as failures before this is called.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = match m.value {
            Value::Real(v) if v.is_finite() => format!("{v}"),
            Value::Real(_) => "null".into(),
            Value::Count(c) => c.to_string(),
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_compact_json() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric::real("a_s", 0.5, "s", ""),
                Metric::count("n", 7, "count", ""),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"n\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn non_finite_reals_print_as_null() {
        let line = result_json(false, 1, 1, &[Metric::real("x", f64::NAN, "s", "")]);
        assert!(line.contains("\"value\": null"));
    }
}
