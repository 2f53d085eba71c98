//! Order statistics shared by the run and compare commands.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// First and third quartiles, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// spreads reported here match spreads computed from the result lines.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let at = |j: f64| {
        // Position j/4 * (n + 1), 1-based. The rank is clamped to the
        // data but the fraction is not, so tiny samples extrapolate.
        let m = j * (n + 1.0) / 4.0;
        let k = (m.floor() as usize).clamp(1, v.len() - 1);
        let frac = m - k as f64;
        v[k - 1] + (v[k] - v[k - 1]) * frac
    };
    Some((at(1.0), at(3.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it
        // extrapolates past the data for tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
    }
}
