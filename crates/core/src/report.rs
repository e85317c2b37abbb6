//! Result-table rendering: markdown for the console, CSV for files, and
//! JSON for deadlock forensics.

use crate::forensics::DeadlockReport;
use mdw_analysis::Json;
use std::fmt::Display;

/// A result row that knows how to print itself.
pub trait TableRow {
    /// Column headers.
    fn headers() -> Vec<&'static str>;
    /// Cell values, aligned with [`TableRow::headers`].
    fn cells(&self) -> Vec<String>;
}

/// Renders rows as a GitHub-flavored markdown table.
pub fn markdown_table<T: TableRow>(rows: &[T]) -> String {
    let headers = T::headers();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let cells: Vec<Vec<String>> = rows.iter().map(TableRow::cells).collect();
    for row in &cells {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cols: &[String], widths: &[usize]| -> String {
        let body: Vec<String> = cols
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        format!("| {} |\n", body.join(" | "))
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&dashes, &widths));
    for row in &cells {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Renders rows as CSV (header line + one line per row).
pub fn csv<T: TableRow>(rows: &[T]) -> String {
    let mut out = String::new();
    out.push_str(&T::headers().join(","));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row
            .cells()
            .into_iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c
                }
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Serializes a [`DeadlockReport`] as a JSON document, one line per wait
/// edge and per switch dump (its blocked worms inline).
pub fn deadlock_json(r: &DeadlockReport) -> String {
    fn ints<T: Display>(v: &[T]) -> Json {
        Json::Arr(v.iter().map(Json::raw).collect())
    }
    let edges = r.wait_edges.iter().map(|e| {
        Json::Obj(vec![
            ("from_link", Json::raw(e.from_link)),
            ("to_link", Json::raw(e.to_link)),
            ("switch", Json::raw(e.switch)),
        ])
    });
    let switches = r.switches.iter().map(|d| {
        let worms = d.snapshot.blocked.iter().map(|w| {
            Json::Obj(vec![
                ("input", w.input.map_or(Json::raw("null"), Json::raw)),
                ("packet", Json::raw(w.packet)),
                ("msg", Json::raw(w.msg)),
                ("src", Json::raw(w.src)),
                ("state", Json::str(w.state)),
                ("remaining_dests", ints(&w.remaining_dests)),
                ("holds_outputs", ints(&w.holds_outputs)),
                ("waits_outputs", ints(&w.waits_outputs)),
            ])
        });
        Json::Obj(vec![
            ("switch", Json::raw(d.switch)),
            ("cq_used_chunks", Json::raw(d.snapshot.cq_used_chunks)),
            ("cq_free_chunks", Json::raw(d.snapshot.cq_free_chunks)),
            ("input_occupancy", ints(&d.snapshot.input_occupancy)),
            ("blocked_worms", Json::Arr(worms.collect())),
        ])
    });
    Json::Obj(vec![
        ("at_cycle", Json::raw(r.at_cycle)),
        ("last_progress_cycle", Json::raw(r.last_progress_cycle)),
        ("outstanding_messages", Json::raw(r.outstanding_messages)),
        ("cycle", ints(&r.cycle)),
        ("wait_edges", Json::Arr(edges.collect())),
        ("switches", Json::Arr(switches.collect())),
    ])
    .document()
}

/// Formats a float with sensible precision for tables.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo {
        a: u32,
        b: f64,
    }
    impl TableRow for Demo {
        fn headers() -> Vec<&'static str> {
            vec!["a", "b"]
        }
        fn cells(&self) -> Vec<String> {
            vec![self.a.to_string(), f(self.b)]
        }
    }

    #[test]
    fn markdown_shape() {
        let t = markdown_table(&[Demo { a: 1, b: 0.5 }, Demo { a: 22, b: 123.4 }]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("a"));
        assert!(lines[1].contains("--"));
        assert!(lines[3].contains("123"));
    }

    #[test]
    fn csv_shape() {
        let t = csv(&[Demo { a: 1, b: 2.0 }]);
        assert_eq!(t, "a,b\n1,2.0\n");
    }

    #[test]
    fn csv_quotes_commas() {
        struct Q;
        impl TableRow for Q {
            fn headers() -> Vec<&'static str> {
                vec!["x"]
            }
            fn cells(&self) -> Vec<String> {
                vec!["a,b".to_string()]
            }
        }
        assert_eq!(csv(&[Q]), "x\n\"a,b\"\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.1234), "0.1234");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1234.6), "1235");
    }
}
