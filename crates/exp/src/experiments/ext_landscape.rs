//! E10 — The full `(X_task, H)` speedup landscape at the measured XD1
//! operating point, with design contours ("what hit ratio buys what").

use hprc_model::landscape::{compute, Landscape};
use hprc_model::params::NormalizedTimes;
use hprc_model::sweep::Axis;
use serde::Serialize;

use crate::report::{Report, Series};
use crate::table::{Align, TextTable};

/// One contour: target speedup and per-H largest admissible `X_task`.
type Contour = (f64, Vec<(f64, Option<f64>)>);

#[derive(Serialize)]
struct Payload {
    x_prtr: f64,
    max_h: f64,
    max_x_task: f64,
    max_speedup: f64,
    contours: Vec<Contour>,
}

fn ascii_heatmap(l: &Landscape) -> String {
    // Rows: H descending; columns: X_task ascending. Log-bucketed glyphs.
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::new();
    for (r, &h) in l.hit_ratio.iter().enumerate().rev() {
        out.push_str(&format!("H={h:>4.2} |"));
        for c in 0..l.x_task.len() {
            let v = l.at(r, c).clamp(1.0, 1000.0);
            // log10(1)=0 .. log10(1000)=3 over 10 glyphs.
            let idx = ((v.log10() / 3.0) * (glyphs.len() - 1) as f64).round() as usize;
            out.push(glyphs[idx.min(glyphs.len() - 1)]);
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "       +{}\n        X_task: {:.0e} .. {:.0e} (log)\n",
        "-".repeat(l.x_task.len()),
        l.x_task.first().unwrap(),
        l.x_task.last().unwrap()
    ));
    out
}

/// Computes the landscape and its 10x/30x/60x contours, plus one
/// `S(X_task)` curve per sampled `H`.
pub fn run_with_series() -> (Report, Series) {
    let x_prtr = 19.77 / 1678.04;
    let l = compute(
        NormalizedTimes::ideal(1.0, x_prtr),
        Axis::Log {
            lo: 1e-4,
            hi: 10.0,
            points: 72,
        },
        Axis::Linear {
            lo: 0.0,
            hi: 1.0,
            points: 9,
        },
    )
    .expect("valid axes");

    let (max_h, max_x, max_s) = l.max();
    let contours: Vec<Contour> = [10.0, 30.0, 60.0]
        .into_iter()
        .map(|t| (t, l.contour(t)))
        .collect();

    let mut t = TextTable::new(vec!["H", "max X_task for 10x", "for 30x", "for 60x"]).align(vec![
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (i, &h) in l.hit_ratio.iter().enumerate() {
        let cell = |ci: usize| match contours[ci].1[i].1 {
            Some(x) => format!("{x:.4}"),
            None => "—".into(),
        };
        t.row(vec![format!("{h:.2}"), cell(0), cell(1), cell(2)]);
    }

    let body = format!(
        "Speedup landscape, X_PRTR = {x_prtr:.4} (measured dual PRR),\n\
         X_decision = X_control = 0; glyph scale log10(S) over 1..1000:\n\n\
         {}\nMaximum sampled: {max_s:.0}x at H = {max_h}, X_task = {max_x:.1e}.\n\n\
         Contours (smallest sampled X_task reaching the target):\n{}\n\
         Reading: below X_PRTR the surface is ruled by H (prefetching\n\
         country); above X_PRTR every row collapses onto (1+X)/X and the\n\
         2x wall at X_task = 1 is visible as the uniform right-hand side.\n",
        ascii_heatmap(&l),
        t.render(),
    );

    let report = Report::new(
        "ext-landscape",
        "E10 — The (X_task, H) speedup landscape",
        body,
        &Payload {
            x_prtr,
            max_h,
            max_x_task: max_x,
            max_speedup: max_s,
            contours,
        },
    );
    let series = l
        .hit_ratio
        .iter()
        .enumerate()
        .map(|(r, &h)| {
            (
                format!("H={h}"),
                (0..l.x_task.len())
                    .map(|c| (l.x_task[c], l.at(r, c)))
                    .collect(),
            )
        })
        .collect();
    (report, series)
}

/// The report alone, as the tests below read it.
#[cfg(test)]
fn run() -> Report {
    run_with_series().0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn landscape_report_is_consistent() {
        let r = run();
        let max = r.json["max_speedup"].as_f64().unwrap();
        assert!(max > 500.0);
        assert_eq!(r.json["max_h"].as_f64().unwrap(), 1.0);
        assert!(r.body.contains("2x wall"));
        // Every contour row for 60x needs more than zero H or tiny tasks.
        let contours = r.json["contours"].as_array().unwrap();
        assert_eq!(contours.len(), 3);
    }

    #[test]
    fn heatmap_renders_every_row() {
        let r = run();
        assert_eq!(
            r.body.matches("H=").count(),
            9,
            "one heatmap row per H sample"
        );
    }
}
