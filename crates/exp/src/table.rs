//! Plain-text table rendering for experiment reports.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-justified.
    Left,
    /// Right-justified.
    Right,
}

/// A simple text table builder.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with headers; numeric-looking columns default to
    /// right alignment later via [`TextTable::align`].
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Left; headers.len()];
        TextTable {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Sets per-column alignment (panics on length mismatch).
    pub fn align(mut self, aligns: Vec<Align>) -> TextTable {
        assert_eq!(aligns.len(), self.headers.len(), "alignment arity");
        self.aligns = aligns;
        self
    }

    /// Appends a row (panics on arity mismatch).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header separator.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                match aligns[i] {
                    Align::Left => line.push_str(&format!("{:<w$}", cell, w = widths[i])),
                    Align::Right => line.push_str(&format!("{:>w$}", cell, w = widths[i])),
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths, &self.aligns));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths, &self.aligns));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "value"]).align(vec![Align::Left, Align::Right]);
        t.row(vec!["alpha", "1.0"]);
        t.row(vec!["beta-long", "12345.6"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
        // Right-aligned numbers end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }
}
