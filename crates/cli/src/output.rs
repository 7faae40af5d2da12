//! Text-table and CSV output helpers shared by the experiment drivers.

use std::fs;
use std::io;
use std::path::Path;

/// Renders rows as a fixed-width text table with a header rule.
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>w$}", c, w = widths[i]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Writes a CSV file into `dir`, creating the directory if needed. The
/// error names the file that could not be written.
pub fn write_csv(dir: &Path, name: &str, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let path = dir.join(name);
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(&path, dasp_perf::report::to_csv(header, rows)))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))
}

/// Formats a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 significant-looking decimal places.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = text_table(
            &["name", "v"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn csv_writes_to_disk() {
        let dir = std::env::temp_dir().join("dasp_cli_test");
        write_csv(&dir, "t.csv", &["a"], &[vec!["1".into()]]).unwrap();
        let s = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(s, "a\n1\n");
    }
}
