//! Harness statistics: medians and quartiles, tail percentiles with a
//! sample-count floor, due-time latency accounting for the open-loop
//! generator, and the `slo_rate_qps` search.
//!
//! Everything here is pure so the unit tests at the bottom pin the
//! arithmetic the reported numbers rest on.

/// Median of `xs` (mean of the two middle values for even lengths);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Ascending copy of `xs` (total order, so `NaN`s sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method) so spreads reported here match the acceptance arithmetic.
///
/// # Panics
/// Panics on fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let data = sorted(xs);
    let ld = data.len();
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (slot, i) in (1..n).enumerate() {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[slot] = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    (out[0], out[1], out[2])
}

/// 1-based nearest rank of percentile `p` among `n` samples (a hair of
/// slack keeps `0.999 × 10000` from rounding up to 9991).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p ∈ (0, 100]` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).min(sorted.len()) - 1]
}

/// The percentile ladder searched by [`tail_percentile`], highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile on [`TAIL_LADDER`] that still has at least
/// `min_beyond` samples strictly beyond its rank, with its value;
/// `None` when even the median lacks them.
pub fn tail_percentile(sorted: &[f64], min_beyond: usize) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let r = rank(p, n);
        (r <= n && n - r >= min_beyond).then(|| (p, sorted[r - 1]))
    })
}

/// One open-loop request as the generator saw it. Times are seconds
/// from the start of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule said the request should go out.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When the answer (or the failure) came back.
    pub done: f64,
    /// Whether it was answered successfully.
    pub ok: bool,
}

impl Timing {
    /// Latency counted from the due time — so a stall that delays later
    /// sends is charged to them (no coordinated omission) — or `None`
    /// for a failed request, which misses every latency limit.
    pub fn latency_ms(&self) -> Option<f64> {
        self.ok.then_some((self.done - self.due) * 1e3)
    }

    /// How late the generator sent this request.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// Latency summary of one open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests that failed (any non-success outcome).
    pub failed: usize,
    /// Median due-time latency, failures counted as misses.
    pub p50_ms: f64,
    /// 99th-percentile due-time latency, failures counted as misses.
    pub p99_ms: f64,
    /// 99th-percentile generator lateness.
    pub lateness_p99_ms: f64,
    /// Median lateness of the last fifth of the schedule (a growing
    /// backlog shows here first).
    pub tail_lateness_ms: f64,
    /// Highest percentile with at least ten samples beyond it, and its
    /// latency (see [`tail_percentile`]).
    pub tail: Option<(f64, f64)>,
}

/// Summarize a phase. A failed request sorts as `miss_ms` (the client
/// timeout), so it can only push percentiles up, never hide.
pub fn summarize(timings: &[Timing], miss_ms: f64) -> LatencySummary {
    let lat: Vec<f64> = timings
        .iter()
        .map(|t| t.latency_ms().unwrap_or(miss_ms).min(miss_ms))
        .collect();
    let lat = sorted(&lat);
    let mut by_due: Vec<&Timing> = timings.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let tail_start = by_due.len() - by_due.len() / 5;
    let tail: Vec<f64> = by_due[tail_start..]
        .iter()
        .map(|t| t.lateness_ms())
        .collect();
    let late = sorted(&timings.iter().map(Timing::lateness_ms).collect::<Vec<_>>());
    LatencySummary {
        attempted: timings.len(),
        failed: timings.iter().filter(|t| !t.ok).count(),
        p50_ms: percentile(&lat, 50.0),
        p99_ms: percentile(&lat, 99.0),
        lateness_p99_ms: percentile(&late, 99.0),
        tail_lateness_ms: if tail.is_empty() { 0.0 } else { median(&tail) },
        tail: tail_percentile(&lat, 10),
    }
}

/// Load score a failed phase gets: far past any limit, so the SLO
/// interpolation treats it as a hard miss.
pub const FAILED_LOAD: f64 = 16.0;

/// How close a phase runs to its SLO: the worse of `p99 / limit` and
/// the backlog ratio `tail lateness / (limit / 2)`; a phase with any
/// failed request scores [`FAILED_LOAD`]. At most 1 meets the SLO: no
/// failures, p99 within the limit, and no growing backlog (the last
/// fifth of the schedule is not running more than half the limit late).
pub fn slo_load(s: &LatencySummary, limit_ms: f64) -> f64 {
    if s.attempted == 0 || s.failed > 0 {
        return FAILED_LOAD;
    }
    (s.p99_ms / limit_ms).max(s.tail_lateness_ms / (0.5 * limit_ms))
}

/// Result of [`slo_search`].
#[derive(Debug, Clone)]
pub struct SloSearch {
    /// Estimated highest rate meeting the SLO (0 when none did).
    pub rate: f64,
    /// Every probed `(rate, load)`, in probe order.
    pub levels: Vec<(f64, f64)>,
    /// Whether a failing rate bounded the estimate from above.
    pub bounded: bool,
}

/// Search for the highest rate whose load score (see [`slo_load`]) is
/// at most 1. `probe(rate)` runs one level and returns its load.
///
/// A geometric ramp from `start` by `growth` runs until the first
/// failing level (at most `ramp_levels` levels, never past `max_rate`;
/// downward when `start` already fails), then `bisect` geometric
/// bisections narrow the bracket. The estimate interpolates inside the
/// final bracket — log load against log rate — so it moves smoothly with
/// capacity instead of snapping to probed rates; it never leaves the
/// bracket, so it stays at or above a rate that passed.
pub fn slo_search(
    mut probe: impl FnMut(f64) -> f64,
    start: f64,
    growth: f64,
    max_rate: f64,
    ramp_levels: usize,
    bisect: usize,
) -> SloSearch {
    let mut levels: Vec<(f64, f64)> = Vec::new();
    let mut run = |rate: f64, levels: &mut Vec<(f64, f64)>| {
        let load = probe(rate);
        levels.push((rate, load));
        load
    };
    // Bracket: (rate, load) of the best pass and the lowest failure.
    let mut lo: Option<(f64, f64)> = None;
    let mut hi: Option<(f64, f64)> = None;
    let first = run(start, &mut levels);
    if first <= 1.0 {
        lo = Some((start, first));
        while levels.len() < ramp_levels {
            let last = lo.expect("ramp starts from a pass").0;
            let next = (last * growth).min(max_rate);
            if next <= last {
                break;
            }
            let load = run(next, &mut levels);
            if load <= 1.0 {
                lo = Some((next, load));
            } else {
                hi = Some((next, load));
                break;
            }
        }
    } else {
        hi = Some((start, first));
        while levels.len() < ramp_levels {
            let next = hi.expect("ramp starts from a failure").0 / growth;
            let load = run(next, &mut levels);
            if load <= 1.0 {
                lo = Some((next, load));
                break;
            }
            hi = Some((next, load));
        }
    }
    let (Some(mut pass), Some(mut fail)) = (lo, hi) else {
        return SloSearch {
            rate: lo.map_or(0.0, |(r, _)| r),
            levels,
            bounded: false,
        };
    };
    for _ in 0..bisect {
        let mid = (pass.0 * fail.0).sqrt();
        let load = run(mid, &mut levels);
        if load <= 1.0 {
            pass = (mid, load);
        } else {
            fail = (mid, load);
        }
    }
    let (lp, lf) = (pass.1.max(1e-9).ln(), fail.1.ln());
    let t = if lf > lp {
        (-lp / (lf - lp)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    SloSearch {
        rate: pass.0 * (fail.0 / pass.0).powf(t),
        levels,
        bounded: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 6.0, 7.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        // 2000 samples: p99.9 leaves 2 beyond, p99 leaves 20.
        assert_eq!(tail_percentile(&xs, 10), Some((99.0, 1980.0)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((99.9, 9990.0)));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), Some((95.0, 190.0)));
        let xs: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 10), None);
    }

    #[test]
    fn latency_counts_from_due_time() {
        // Due at 1.0 s, sent 20 ms late, answered 5 ms after sending:
        // the latency is 25 ms, not the 5 ms the server saw.
        let t = Timing {
            due: 1.0,
            sent: 1.02,
            done: 1.025,
            ok: true,
        };
        assert!((t.latency_ms().unwrap() - 25.0).abs() < 1e-9);
        assert!((t.lateness_ms() - 20.0).abs() < 1e-9);
        // An early send is not negative lateness.
        let t = Timing {
            due: 1.0,
            sent: 0.999,
            done: 1.001,
            ok: true,
        };
        assert_eq!(t.lateness_ms(), 0.0);
    }

    #[test]
    fn failures_are_slo_misses() {
        let mut ts: Vec<Timing> = (0..200)
            .map(|i| {
                let due = i as f64 * 0.01;
                Timing {
                    due,
                    sent: due,
                    done: due + 0.001,
                    ok: true,
                }
            })
            .collect();
        let s = summarize(&ts, 10_000.0);
        assert!(slo_load(&s, 5.0) <= 1.0);
        // Three failures among 200 land above p99 once counted as
        // misses at the client timeout; one failure alone fails the SLO.
        for t in ts.iter_mut().take(3) {
            t.ok = false;
        }
        let s = summarize(&ts, 10_000.0);
        assert_eq!(s.failed, 3);
        assert_eq!(s.p99_ms, 10_000.0);
        assert_eq!(slo_load(&s, 5.0), FAILED_LOAD);
        ts[0].ok = true;
        ts[1].ok = true;
        let s = summarize(&ts, 10_000.0);
        assert!(s.p99_ms < 5.0, "one failure in 200 sits above p99");
        assert_eq!(slo_load(&s, 5.0), FAILED_LOAD, "but it still fails the SLO");
    }

    #[test]
    fn growing_backlog_fails_the_slo() {
        // Every request answered in 1 ms of service, but the generator
        // falls further behind over the run.
        let ts: Vec<Timing> = (0..100)
            .map(|i| {
                let due = i as f64 * 0.01;
                let sent = due + i as f64 * 0.0005;
                Timing {
                    due,
                    sent,
                    done: sent + 0.001,
                    ok: true,
                }
            })
            .collect();
        let s = summarize(&ts, 10_000.0);
        assert!(s.tail_lateness_ms > 40.0);
        assert!(slo_load(&s, 60.0) > 1.0);
    }

    /// Synthetic M/M/1-like model: p99 grows without bound as the rate
    /// approaches `capacity`; the load score is `p99 / limit`.
    fn model_load(rate: f64, capacity: f64, limit_ms: f64) -> f64 {
        if rate >= capacity {
            return FAILED_LOAD;
        }
        let service_ms = 1e3 / capacity;
        let p99 = service_ms * (100f64).ln() / (1.0 - rate / capacity);
        (p99 / limit_ms).min(FAILED_LOAD)
    }

    #[test]
    fn slo_search_is_monotone_in_capacity() {
        let limit = 25.0;
        let mut last = 0.0;
        for cap in [200.0, 230.0, 300.0, 500.0, 800.0, 1200.0, 2000.0] {
            let s = slo_search(|r| model_load(r, cap, limit), 100.0, 1.5, 5000.0, 12, 2);
            assert!(s.bounded);
            assert!(s.rate >= last, "cap {cap}: {} < previous {last}", s.rate);
            // The estimate sits in the final bracket, so at or above a
            // rate that passed, and near the true knee.
            let best_pass = s
                .levels
                .iter()
                .filter(|(_, l)| *l <= 1.0)
                .map(|(r, _)| *r)
                .fold(0.0, f64::max);
            assert!(s.rate >= best_pass);
            let knee = cap * (1.0 - (1e3 / cap) * (100f64).ln() / limit);
            assert!(
                (s.rate / knee - 1.0).abs() < 0.03,
                "cap {cap}: {} vs knee {knee}",
                s.rate
            );
            last = s.rate;
        }
    }

    #[test]
    fn slo_search_ramps_down_when_start_fails() {
        let step = |r: f64| if r <= 30.0 { 0.5 } else { 2.0 };
        let s = slo_search(step, 100.0, 2.0, 1e4, 6, 3);
        assert!(s.bounded && s.rate > 25.0 && s.rate <= 50.0, "{}", s.rate);
        let s = slo_search(|_| FAILED_LOAD, 100.0, 2.0, 1e4, 6, 3);
        assert_eq!((s.rate, s.levels.len(), s.bounded), (0.0, 6, false));
    }

    #[test]
    fn slo_search_reports_an_unbounded_ramp() {
        let s = slo_search(|_| 0.5, 10.0, 2.0, 1e4, 4, 3);
        assert_eq!((s.rate, s.levels.len(), s.bounded), (80.0, 4, false));
    }
}
