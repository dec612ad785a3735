//! Time-resolved telemetry on the simulated clock.
//!
//! Two observation-only instruments used by the serving layer:
//!
//! - [`TimelineSampler`] — samples a fixed set of gauges at fixed
//!   simulated-time intervals and renders iostat-style per-interval rows
//!   plus an ASCII sparkline dashboard. The sampler never touches the
//!   event engine or the tracer; the caller pushes gauge values after
//!   each event and the sampler holds them piecewise-constant between
//!   events, so every emitted row is exact at event resolution.
//! - [`SloMonitor`] — a windowed availability/goodput burn-rate monitor
//!   evaluated post-hoc over the (time, good) observation stream, with
//!   fire/clear hysteresis. Synthetic evaluation ticks extend one full
//!   window past the last observation, so every burn alert
//!   deterministically resolves to a clear.
//!
//! Like the rest of `rt::obs`, all output is byte-identical per seed:
//! only simulated timestamps and deterministic arithmetic are involved.

use std::fmt::Write as _;

/// Character ramp used by the sparkline dashboard (space = zero).
const SPARK_RAMP: &[u8] = b" .:-=+*#%@";

/// Maximum number of cells in one sparkline row.
const SPARK_WIDTH: usize = 64;

/// Samples a fixed set of gauges at a fixed simulated-time interval.
///
/// Usage protocol (all times in simulated seconds):
///
/// 1. construct with the interval and the column names;
/// 2. before handling each event at time `t`, call [`advance_to`]`(t)` —
///    rows for every tick strictly before `t` are emitted with the gauge
///    values currently held;
/// 3. after handling the event, push the new gauge values with
///    [`set_many`];
/// 4. after the last event, call [`finish`]`(end)` to flush the ticks up
///    to and including `end`.
///
/// [`advance_to`]: TimelineSampler::advance_to
/// [`set_many`]: TimelineSampler::set_many
/// [`finish`]: TimelineSampler::finish
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSampler {
    interval_s: f64,
    columns: Vec<String>,
    current: Vec<f64>,
    next_tick: u64,
    rows: Vec<(f64, Vec<f64>)>,
}

impl TimelineSampler {
    /// A sampler emitting one row per `interval_s` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s` is not finite and positive, or `columns`
    /// is empty.
    pub fn new(interval_s: f64, columns: &[&str]) -> TimelineSampler {
        assert!(
            interval_s.is_finite() && interval_s > 0.0,
            "timeline interval must be finite and positive"
        );
        assert!(!columns.is_empty(), "timeline needs at least one column");
        TimelineSampler {
            interval_s,
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            current: vec![0.0; columns.len()],
            next_tick: 0,
            rows: Vec::new(),
        }
    }

    /// Sampling interval in simulated seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Column names, in emission order.
    pub fn columns(&self) -> Vec<&str> {
        self.columns.iter().map(|s| s.as_str()).collect()
    }

    /// Replace every held gauge value at once (`values` must have one
    /// entry per column).
    pub fn set_many(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "set_many needs one value per column"
        );
        self.current.copy_from_slice(values);
    }

    /// Emit rows for every tick strictly before `now_s`, holding the
    /// currently set gauge values.
    pub fn advance_to(&mut self, now_s: f64) {
        while self.next_tick as f64 * self.interval_s < now_s {
            self.emit_row();
        }
    }

    /// Flush rows for every tick up to and including `end_s`.
    pub fn finish(&mut self, end_s: f64) {
        while self.next_tick as f64 * self.interval_s <= end_s {
            self.emit_row();
        }
    }

    fn emit_row(&mut self) {
        let t = self.next_tick as f64 * self.interval_s;
        self.rows.push((t, self.current.clone()));
        self.next_tick += 1;
    }

    /// Emitted rows as `(tick time, gauge values)`.
    pub fn rows(&self) -> &[(f64, Vec<f64>)] {
        &self.rows
    }

    /// The value of the named column in row `row`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown column or out-of-range row.
    pub fn value(&self, row: usize, column: &str) -> f64 {
        let c = self
            .columns
            .iter()
            .position(|n| n == column)
            .unwrap_or_else(|| panic!("unknown timeline column {column:?}"));
        self.rows[row].1[c]
    }

    /// iostat-style fixed-width table: one row per interval.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline ({} s interval, {} rows):",
            fmt_short(self.interval_s),
            self.rows.len()
        );
        let _ = write!(out, "{:>10}", "t_s");
        for c in &self.columns {
            let _ = write!(out, " {c:>9}");
        }
        out.push('\n');
        for (t, values) in &self.rows {
            let _ = write!(out, "{:>10}", fmt_short(*t));
            for &v in values {
                let _ = write!(out, " {:>9}", fmt_short(v));
            }
            out.push('\n');
        }
        out
    }

    /// ASCII sparkline dashboard: one line per column, each scaled to
    /// its own maximum, downsampled to at most `SPARK_WIDTH` (64) cells.
    pub fn render_sparklines(&self) -> String {
        let mut out = String::new();
        if self.rows.is_empty() {
            out.push_str("sparklines: no samples\n");
            return out;
        }
        let cells = self.rows.len().min(SPARK_WIDTH);
        let span = self.rows.len() as f64 * self.interval_s;
        let _ = writeln!(
            out,
            "sparklines ({} cells, {} s per cell):",
            cells,
            fmt_short(span / cells as f64)
        );
        let name_w = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .expect("columns are never empty");
        for (c, name) in self.columns.iter().enumerate() {
            // Average each chunk of rows into one cell, then map the cell
            // onto the ramp by its share of the column maximum.
            let mut bucketed = vec![0.0f64; cells];
            let mut counts = vec![0u64; cells];
            for (r, row) in self.rows.iter().enumerate() {
                let cell = r * cells / self.rows.len();
                bucketed[cell] += row.1[c];
                counts[cell] += 1;
            }
            for (b, n) in bucketed.iter_mut().zip(&counts) {
                if *n > 0 {
                    *b /= *n as f64;
                }
            }
            let max = bucketed.iter().cloned().fold(0.0f64, f64::max);
            let mut line = String::with_capacity(cells);
            for &v in &bucketed {
                line.push(spark_char(v, max));
            }
            let _ = writeln!(out, "  {name:<name_w$} |{line}| max {}", fmt_short(max));
        }
        out
    }
}

/// Ramp character for value `v` against column maximum `max`.
fn spark_char(v: f64, max: f64) -> char {
    // NaN intentionally falls through to the blank cell.
    if v <= 0.0 || max <= 0.0 || v.is_nan() || max.is_nan() {
        return SPARK_RAMP[0] as char;
    }
    let levels = SPARK_RAMP.len() - 1;
    let idx = ((v / max) * levels as f64).ceil() as usize;
    SPARK_RAMP[idx.clamp(1, levels)] as char
}

/// Compact numeric formatting for timeline cells: integers render bare,
/// everything else with three decimals.
fn fmt_short(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Windowed burn-rate SLO parameters.
///
/// The burn rate over a window is `bad_fraction / error_budget` with
/// `error_budget = 1 - availability_target`: burn 1.0 means the run is
/// consuming its budget exactly as fast as the target allows, burn 10
/// means ten times faster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Sliding evaluation window in simulated seconds.
    pub window_s: f64,
    /// Availability/goodput target in `[0, 1)`, e.g. `0.9`.
    pub availability_target: f64,
    /// Burn rate at or above which an alert fires.
    pub fire_burn: f64,
    /// Burn rate at or below which a firing alert clears (hysteresis:
    /// keep this below `fire_burn`).
    pub clear_burn: f64,
}

impl SloConfig {
    /// The serving default: a 2-hour window against a 90% goodput
    /// target, firing at burn 1.0 and clearing at 0.25.
    pub fn standard() -> SloConfig {
        SloConfig {
            window_s: 7200.0,
            availability_target: 0.9,
            fire_burn: 1.0,
            clear_burn: 0.25,
        }
    }
}

/// One fire/clear edge of the SLO alert state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTransition {
    /// Simulated time of the transition.
    pub at_s: f64,
    /// Burn rate observed at the transition.
    pub burn: f64,
    /// `true` for `slo:burn` (alert fired), `false` for `slo:clear`.
    pub firing: bool,
}

/// Result of evaluating an [`SloMonitor`] over a full run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloOutcome {
    /// Fire/clear edges in time order (alternating, starting with a
    /// fire; always ends cleared).
    pub transitions: Vec<SloTransition>,
    /// Number of `slo:burn` edges.
    pub burn_events: u64,
    /// Number of `slo:clear` edges.
    pub clear_events: u64,
    /// Maximum burn rate seen at any evaluation point.
    pub max_burn: f64,
    /// Total simulated seconds spent in the firing state.
    pub alert_seconds: f64,
}

/// Collects per-request `(time, good)` observations during a serving run
/// and evaluates the windowed burn rate after the event stream drains.
///
/// Evaluation happens at every observation time plus synthetic half-window
/// ticks extending one full window past the last observation, so the
/// window demonstrably empties and any firing alert clears. The whole
/// computation is pure f64 arithmetic over a sorted stream —
/// byte-deterministic per seed.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    config: SloConfig,
    observations: Vec<(f64, bool)>,
}

impl SloMonitor {
    /// A monitor with no observations yet.
    ///
    /// # Panics
    ///
    /// Panics if the window is not positive or the target is outside
    /// `[0, 1)`.
    pub fn new(config: SloConfig) -> SloMonitor {
        assert!(
            config.window_s.is_finite() && config.window_s > 0.0,
            "SLO window must be finite and positive"
        );
        assert!(
            (0.0..1.0).contains(&config.availability_target),
            "SLO availability target must be in [0, 1)"
        );
        SloMonitor {
            config,
            observations: Vec::new(),
        }
    }

    /// Record one request outcome: `good = true` for an on-target
    /// completion, `false` for a shed, failed, degraded or deadline-missed
    /// one. Observations may arrive out of time order.
    pub fn observe(&mut self, at_s: f64, good: bool) {
        assert!(at_s.is_finite(), "SLO observation time must be finite");
        self.observations.push((at_s, good));
    }

    /// Observations recorded so far.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Evaluate the burn rate over the whole stream and return the
    /// alert-state edges.
    pub fn evaluate(mut self) -> SloOutcome {
        let mut out = SloOutcome::default();
        if self.observations.is_empty() {
            return out;
        }
        self.observations
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let window = self.config.window_s;
        let budget = (1.0 - self.config.availability_target).max(1e-12);

        // Evaluation schedule: every observation time, then half-window
        // ticks from zero to one window past the final observation.
        let last = self.observations.last().expect("non-empty").0;
        let mut eval_times: Vec<f64> = self.observations.iter().map(|&(t, _)| t).collect();
        let half = window / 2.0;
        let mut tick = 0.0;
        while tick <= last + window {
            eval_times.push(tick);
            tick += half;
        }
        eval_times.push(tick);
        eval_times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        eval_times.dedup();

        // Two-pointer sweep: the window at time t holds observations in
        // (t - window, t].
        let obs = &self.observations;
        let (mut lo, mut hi) = (0usize, 0usize);
        let (mut good, mut bad) = (0u64, 0u64);
        let mut firing = false;
        let mut fired_at = 0.0f64;
        for &t in &eval_times {
            while hi < obs.len() && obs[hi].0 <= t {
                if obs[hi].1 {
                    good += 1;
                } else {
                    bad += 1;
                }
                hi += 1;
            }
            while lo < hi && obs[lo].0 <= t - window {
                if obs[lo].1 {
                    good -= 1;
                } else {
                    bad -= 1;
                }
                lo += 1;
            }
            let total = good + bad;
            let burn = if total == 0 {
                0.0
            } else {
                bad as f64 / total as f64 / budget
            };
            out.max_burn = out.max_burn.max(burn);
            if !firing && burn >= self.config.fire_burn {
                firing = true;
                fired_at = t;
                out.burn_events += 1;
                out.transitions.push(SloTransition {
                    at_s: t,
                    burn,
                    firing: true,
                });
            } else if firing && burn <= self.config.clear_burn {
                firing = false;
                out.clear_events += 1;
                out.alert_seconds += t - fired_at;
                out.transitions.push(SloTransition {
                    at_s: t,
                    burn,
                    firing: false,
                });
            }
        }
        debug_assert!(!firing, "SLO alert must clear once the window drains");
        out
    }
}

impl SloOutcome {
    /// One-paragraph text summary for reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slo: {} burn / {} clear events, max burn {:.2}, {:.0} s in alert",
            self.burn_events, self.clear_events, self.max_burn, self.alert_seconds
        );
        for t in &self.transitions {
            let _ = writeln!(
                out,
                "  {:>10.1} s  {}  burn {:.2}",
                t.at_s,
                if t.firing { "slo:burn " } else { "slo:clear" },
                t.burn
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_holds_values_between_events() {
        let mut tl = TimelineSampler::new(10.0, &["a", "b"]);
        tl.advance_to(5.0); // tick 0 emitted with zeros
        tl.set_many(&[1.0, 2.0]);
        tl.advance_to(35.0); // ticks 10, 20, 30 emitted with (1, 2)
        tl.set_many(&[3.0, 0.0]);
        tl.finish(50.0); // ticks 40, 50 with (3, 0)
        let rows = tl.rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0], (0.0, vec![0.0, 0.0]));
        assert_eq!(rows[1], (10.0, vec![1.0, 2.0]));
        assert_eq!(rows[3], (30.0, vec![1.0, 2.0]));
        assert_eq!(rows[5], (50.0, vec![3.0, 0.0]));
        assert_eq!(tl.value(5, "a"), 3.0);
    }

    #[test]
    fn sampler_render_is_stable_across_identical_runs() {
        let build = || {
            let mut tl = TimelineSampler::new(2.5, &["q", "busy"]);
            for i in 0..40 {
                let t = i as f64 * 1.7;
                tl.advance_to(t);
                tl.set_many(&[(i % 7) as f64, (i % 2) as f64]);
            }
            tl.finish(80.0);
            (tl.render(), tl.render_sparklines())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn sparkline_zero_column_renders_blank() {
        let mut tl = TimelineSampler::new(1.0, &["z"]);
        tl.finish(5.0);
        let s = tl.render_sparklines();
        let row = s.lines().nth(1).expect("one column row");
        assert!(row.contains("|      |"), "blank ramp expected: {row:?}");
    }

    #[test]
    fn slo_fires_during_bad_window_and_clears_after() {
        let mut mon = SloMonitor::new(SloConfig {
            window_s: 100.0,
            availability_target: 0.9,
            fire_burn: 1.0,
            clear_burn: 0.25,
        });
        for i in 0..50 {
            mon.observe(i as f64 * 10.0, true);
        }
        for i in 0..20 {
            mon.observe(600.0 + i as f64 * 5.0, false);
        }
        let out = mon.evaluate();
        assert!(out.burn_events >= 1, "expected a burn: {out:?}");
        assert_eq!(out.burn_events, out.clear_events);
        let first = out.transitions.first().expect("edges");
        let last = out.transitions.last().expect("edges");
        assert!(first.firing && !last.firing);
        assert!(out.max_burn >= 1.0);
        assert!(out.alert_seconds > 0.0);
    }

    #[test]
    fn slo_all_good_never_fires() {
        let mut mon = SloMonitor::new(SloConfig::standard());
        for i in 0..100 {
            mon.observe(i as f64 * 60.0, true);
        }
        let out = mon.evaluate();
        assert!(out.transitions.is_empty());
        assert_eq!(out.max_burn, 0.0);
    }

    #[test]
    fn slo_empty_stream_is_quiet() {
        let out = SloMonitor::new(SloConfig::standard()).evaluate();
        assert_eq!(out, SloOutcome::default());
    }
}
