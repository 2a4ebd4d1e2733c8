//! Property tests for series handling, rendering, and histograms.

use metrics::{ascii_chart, series_csv, table, Series};
use proptest::prelude::*;

fn sorted_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..1_000.0, 0.0f64..100.0), 1..50).prop_map(|mut v| {
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        v
    })
}

proptest! {
    /// `step_at` returns exactly the value of the last point at-or-before x.
    #[test]
    fn step_at_matches_linear_scan(points in sorted_points(), x in 0.0f64..1_000.0) {
        let mut s = Series::new("s");
        for &(px, py) in &points {
            s.push(px, py);
        }
        let expect = points.iter().rev().find(|&&(px, _)| px <= x).map(|&(_, py)| py);
        prop_assert_eq!(s.step_at(x), expect);
    }

    /// A resampled step series only contains values the original had (or 0
    /// before the first point), and has the expected grid length.
    #[test]
    fn resample_preserves_values(points in sorted_points()) {
        let mut s = Series::new("s");
        for &(px, py) in &points {
            s.push(px, py);
        }
        let r = s.resample_step(0.0, 1_000.0, 50.0);
        prop_assert_eq!(r.points.len(), 21);
        let allowed: Vec<f64> = points.iter().map(|&(_, y)| y).chain([0.0]).collect();
        for &(_, y) in &r.points {
            prop_assert!(allowed.iter().any(|&a| (a - y).abs() < 1e-12));
        }
    }

    /// The step mean lies within the [min, max] of observed values.
    #[test]
    fn step_mean_bounded(points in sorted_points()) {
        let mut s = Series::new("s");
        for &(px, py) in &points {
            s.push(px, py);
        }
        let m = s.step_mean(0.0, 1_001.0);
        let hi = points.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);
        prop_assert!(m >= -1e-9 && m <= hi + 1e-9, "mean {} above max {}", m, hi);
    }

    /// CSV output always has one header plus one row per distinct x, and
    /// every row has the same number of commas.
    #[test]
    fn csv_is_rectangular(pointsets in prop::collection::vec(sorted_points(), 1..4)) {
        let series: Vec<Series> = pointsets
            .iter()
            .enumerate()
            .map(|(i, pts)| {
                let mut s = Series::new(format!("s{i}"));
                for &(px, py) in pts {
                    s.push(px, py);
                }
                s
            })
            .collect();
        let csv = series_csv(&series);
        let lines: Vec<&str> = csv.lines().collect();
        let mut xs: Vec<f64> = pointsets.iter().flatten().map(|&(x, _)| x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs.dedup();
        prop_assert_eq!(lines.len(), xs.len() + 1);
        let commas = lines[0].matches(',').count();
        for l in &lines {
            prop_assert_eq!(l.matches(',').count(), commas, "ragged CSV: {}", l);
        }
    }

    /// The chart renderer never panics and always mentions every label.
    #[test]
    fn chart_total(pointsets in prop::collection::vec(sorted_points(), 1..4)) {
        let series: Vec<Series> = pointsets
            .iter()
            .enumerate()
            .map(|(i, pts)| {
                let mut s = Series::new(format!("curve-{i}"));
                for &(px, py) in pts {
                    s.push(px, py);
                }
                s
            })
            .collect();
        let out = ascii_chart(&series, 40, 10);
        if out != "(no data)\n" {
            for s in &series {
                prop_assert!(out.contains(&s.label), "label {} missing", s.label);
            }
        }
    }

    /// Tables are rectangular for arbitrary cell contents.
    #[test]
    fn table_is_rectangular(rows in prop::collection::vec(
        prop::collection::vec("[a-z0-9]{0,12}", 3..4), 1..10)) {
        let rows: Vec<Vec<String>> = rows;
        let out = table(&["a", "b", "c"], &rows);
        let lines: Vec<&str> = out.lines().collect();
        prop_assert_eq!(lines.len(), rows.len() + 2);
        let w = lines[0].len();
        for l in &lines {
            prop_assert_eq!(l.len(), w);
        }
    }
}
