//! Result tables: aligned text for the terminal, JSON for regeneration
//! records (EXPERIMENTS.md cites these).

use std::io::Write;

/// One experiment artifact (a table or figure-as-table).
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (`e1`…`e9`).
    pub id: String,
    /// Human title, matching DESIGN.md's per-experiment index.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells (same arity as `columns`).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (claim checks, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id.to_uppercase(), self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Renders the JSON record (pretty-printed, two-space indent).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!(
            "  \"columns\": {},\n",
            json_str_array(&self.columns, "  ")
        ));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&json_str_array(row, "    "));
        }
        if self.rows.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str(&format!(
            "  \"notes\": {}\n",
            json_str_array(&self.notes, "  ")
        ));
        out.push('}');
        out
    }

    /// Writes the JSON record to `dir/<id>[-<k>].json`.
    pub fn save_json(&self, dir: &std::path::Path, suffix: Option<usize>) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let name = match suffix {
            Some(k) => format!("{}-{k}.json", self.id),
            None => format!("{}.json", self.id),
        };
        let mut f = std::fs::File::create(dir.join(name))?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Per-phase time breakdown from the telemetry span buffer.
///
/// Aggregates the given span snapshot by span name into a table of call
/// count, total time, and mean time per call (span time is wall-clock on
/// the recording thread; nested spans are counted in their parents too).
pub fn phase_table(events: &[qcf_telemetry::SpanEvent]) -> Table {
    let mut t = Table::new(
        "phases",
        "per-phase time breakdown",
        &["phase", "category", "calls", "total ms", "mean µs"],
    );
    for (name, cat, count, total_us) in qcf_telemetry::span::aggregate(events) {
        t.row(vec![
            name.to_string(),
            cat.to_string(),
            count.to_string(),
            format!("{:.3}", total_us as f64 / 1e3),
            format!("{:.1}", total_us as f64 / count.max(1) as f64),
        ]);
    }
    let dropped = qcf_telemetry::span::dropped();
    if dropped > 0 {
        t.note(format!("{dropped} span events dropped (buffer full)"));
    }
    t
}

/// Key registry metrics as a table: every counter, plus gauge high-water
/// marks — the flat complement of the [`phase_table`] time view.
pub fn metrics_table() -> Table {
    let snap = qcf_telemetry::registry().snapshot();
    let mut t = Table::new(
        "metrics",
        "telemetry registry",
        &["metric", "value", "high water"],
    );
    for (name, value) in &snap.counters {
        t.row(vec![name.clone(), value.to_string(), String::new()]);
    }
    for (name, (value, high)) in &snap.gauges {
        t.row(vec![name.clone(), value.to_string(), high.to_string()]);
    }
    for (name, value) in &snap.float_gauges {
        t.row(vec![name.clone(), format!("{value:.6}"), String::new()]);
    }
    t
}

/// JSON string literal with the escapes the control set requires.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String], _indent: &str) -> String {
    let body: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", body.join(", "))
}

/// Formats a throughput in GB/s.
pub fn gbps(bytes_per_sec: f64) -> String {
    format!("{:.1}", bytes_per_sec / 1e9)
}

/// Formats a percentage.
pub fn pct(frac: f64) -> String {
    format!("{:.3}%", frac * 100.0)
}

/// Formats in scientific notation.
pub fn sci(v: f64) -> String {
    format!("{v:.1e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("e0", "demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2000".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("E0 — demo"));
        assert!(s.contains("long-name"));
        assert!(s.contains("note: a note"));
        // all data lines have the same length
        let lines: Vec<&str> = s.lines().skip(1).take(4).collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("e0", "demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn json_roundtrip_shape() {
        let mut t = Table::new("e2", "cr", &["c"]);
        t.row(vec!["1.0".into()]);
        let v = t.to_json();
        assert!(v.contains("\"id\": \"e2\""), "{v}");
        assert!(v.contains("[\"1.0\"]"), "{v}");
        assert!(v.contains("\"columns\": [\"c\"]"), "{v}");
    }

    #[test]
    fn json_escapes_special_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn formatters() {
        assert_eq!(gbps(1.5e9), "1.5");
        assert_eq!(pct(0.0123), "1.230%");
        assert_eq!(sci(0.000123), "1.2e-4");
    }
}
