//! Plain-text and CSV table rendering.

use std::fmt;

/// A simple column-aligned table for CLI output and EXPERIMENTS.md.
///
/// # Example
///
/// ```
/// use esvm_analysis::Table;
/// let mut t = Table::new(vec!["algo", "cost"]);
/// t.row(vec!["miec".into(), "123.4".into()]);
/// t.row(vec!["ffps".into(), "150.0".into()]);
/// let text = t.to_string();
/// assert!(text.contains("miec") && text.contains("150.0"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics on an empty header list.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "table needs at least one column");
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} does not match header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Appends a row of formatted floats with `precision` decimals; the
    /// first cell stays textual (typical "label + numbers" rows).
    pub fn row_labeled(&mut self, label: impl Into<String>, values: &[f64], precision: usize) {
        let mut cells = vec![label.into()];
        cells.extend(values.iter().map(|v| format!("{v:.precision$}")));
        self.row(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// CSV rendering (RFC 4180): a cell holding a comma, a double
    /// quote or a line break is wrapped in double quotes, with inner
    /// quotes doubled; every other cell is written as is.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n', '\r']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                if i == 0 {
                    write!(f, "{cell:<w$}")?;
                } else {
                    write!(f, "{cell:>w$}")?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name", "x", "y"]);
        t.row(vec!["alpha".into(), "1".into(), "2.50".into()]);
        t.row(vec!["beta-long-name".into(), "10".into(), "3.75".into()]);
        t
    }

    #[test]
    fn display_aligns_columns() {
        let text = sample().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, 2 rows
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numeric columns make all data lines equally long.
        assert_eq!(lines[2].len(), lines[3].len());
        // "2.50" and "3.75" (last column) end at the same offset.
        assert_eq!(
            lines[2].rfind("2.50").unwrap(),
            lines[3].rfind("3.75").unwrap()
        );
    }

    #[test]
    fn csv_round_trip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "name,x,y");
        assert!(lines[2].starts_with("beta-long-name,10,"));
    }

    #[test]
    fn row_labeled_formats_floats() {
        let mut t = Table::new(vec!["algo", "a", "b"]);
        t.row_labeled("miec", &[1.23456, 7.0], 2);
        assert!(t.to_string().contains("1.23"));
        assert!(t.to_string().contains("7.00"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_enforced() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_quotes_cells_that_need_it() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        t.row(vec!["say \"hi\"".into(), "two\nlines".into()]);
        assert_eq!(
            t.to_csv(),
            "a,b\n\"x,y\",plain\n\"say \"\"hi\"\"\",\"two\nlines\"\n"
        );
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_is_rejected() {
        let _ = Table::new(Vec::<String>::new());
    }
}
