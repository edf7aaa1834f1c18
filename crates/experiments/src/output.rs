//! Plain-text table rendering and JSON row collection for the experiment
//! harness.

use serde_json::Value;

/// A fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub(crate) fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:>w$} | ", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format a float ratio (e.g. normalized VV) compactly.
pub(crate) fn fr(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Format a percentage change relative to 1.0 ("-38%" for 0.62).
pub(crate) fn pct_change(ratio: f64) -> String {
    if ratio.is_infinite() {
        return "inf".to_string();
    }
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// Accumulates the machine-readable mirror of the printed tables.
#[derive(Debug, Default)]
pub struct JsonSink {
    rows: Vec<Value>,
}

impl JsonSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one row.
    pub(crate) fn push(&mut self, row: Value) {
        self.rows.push(row);
    }

    /// All rows as a JSON array.
    pub fn into_value(self) -> Value {
        Value::Array(self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "vv"]);
        t.row(vec!["surgeguard".into(), "0.39".into()]);
        t.row(vec!["parties".into(), "1.00".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| surgeguard |"));
        assert!(s.lines().filter(|l| l.starts_with('|')).count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fr(0.391), "0.39");
        assert_eq!(fr(250.0), "250");
        assert_eq!(fr(f64::INFINITY), "inf");
        assert_eq!(pct_change(0.62), "-38.0%");
        assert_eq!(pct_change(1.05), "+5.0%");
    }

    #[test]
    fn json_sink_collects() {
        let mut s = JsonSink::new();
        s.push(json!({"a": 1}));
        s.push(json!({"b": 2}));
        let v = s.into_value();
        assert_eq!(v.as_array().unwrap().len(), 2);
    }
}
