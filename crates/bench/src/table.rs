//! Plain-text table rendering for experiment output.

/// A printable experiment table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (printed above).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        debug_assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a number with `decimals` decimals, or `-` when it is absent
/// (a run that ended in a typed error) or not finite.
pub fn num(value: Option<f64>, decimals: usize) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:.decimals$}"),
        _ => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["model", "speedup"]);
        t.row(["gpt2-xl", "3.06"]);
        t.row(["dlrm", "1.10"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("gpt2-xl"));
        // Both rows align to the same column width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(Some(1.234), 2), "1.23");
        assert_eq!(num(Some(1.6), 0), "2");
        assert_eq!(num(None, 2), "-");
        assert_eq!(num(Some(f64::INFINITY), 2), "-");
    }
}
