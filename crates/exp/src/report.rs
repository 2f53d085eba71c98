//! Experiment reports: a rendered text body plus a machine-readable JSON
//! payload persisted under `results/`.

use serde::Serialize;

/// One regenerated table/figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `"table2"`, `"fig9b"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Rendered text body (tables, plots, notes).
    pub body: String,
    /// Machine-readable payload.
    pub json: serde_json::Value,
}

impl Report {
    /// Builds a report, serializing `payload` to JSON.
    pub fn new<T: Serialize>(
        id: impl Into<String>,
        title: impl Into<String>,
        body: String,
        payload: &T,
    ) -> Report {
        Report {
            id: id.into(),
            title: title.into(),
            body,
            json: serde_json::to_value(payload).expect("payload serializes"),
        }
    }

    /// Full text rendering (title banner + body).
    pub fn render(&self) -> String {
        let bar = "=".repeat(self.title.len().min(78));
        format!("{}\n{}\n\n{}", self.title, bar, self.body)
    }

    /// The exact bytes of the `<id>.json` artifact.
    pub fn json_text(&self) -> String {
        serde_json::to_string_pretty(&self.json).expect("report payload serializes")
    }
}

/// Labelled `(x, y)` curves: the `<id>.csv` artifact of an experiment
/// that has one.
pub type Series = Vec<(String, Vec<(f64, f64)>)>;

/// Renders `(x, y)` series as CSV text, one row per labelled point
/// (long format: `label,x,y`).
pub fn series_csv_text(series: &[(String, Vec<(f64, f64)>)]) -> String {
    let mut out = String::from("label,x,y\n");
    for (label, points) in series {
        for (x, y) in points {
            out.push_str(&format!("{label},{x},{y}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_banner() {
        let r = Report::new(
            "t",
            "Title Here",
            "body\n".into(),
            &serde_json::json!({"k": 1}),
        );
        let s = r.render();
        assert!(s.starts_with("Title Here\n=========="));
        assert!(s.contains("body"));
    }

    #[test]
    fn renders_json_and_csv() {
        let r = Report::new("demo", "Demo", String::new(), &serde_json::json!([1, 2, 3]));
        assert_eq!(r.json_text(), "[\n  1,\n  2,\n  3\n]");
        let content = series_csv_text(&[("a".into(), vec![(1.0, 2.0), (3.0, 4.0)])]);
        assert!(content.contains("a,1,2"));
    }
}
