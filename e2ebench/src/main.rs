//! `e2ebench`: the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <search|serve_miss|serve_hit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets it up several times
//! (reporting the median set-up time), runs its timed phase for the given
//! seconds, checks the program's outputs, and prints as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! timed phase is split into a traced half between two untraced quarters
//! and the metrics are the per-layer ones. The layer map and the reasons behind the thread
//! layout are in `LAYERS.md` beside this crate.
//!
//! Every workload keeps at most one compute thread busy: the process is
//! pinned to one CPU, the kernel pool to width 1, and the serving
//! workloads use one front shard.
//! Exits non-zero when any output check fails.

mod alloc;
mod batch;
mod host;
mod metrics;
mod schedule;
mod serve;
mod stats;
mod trace;

use host::HostSample;
use metrics::{Values, END_TO_END};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Each of the two set-up bursts of a run (one before the timed phase,
/// one after it) sets the workload up at least this many times, and
/// until it has taken `SETUP_BURST_S` (at most `SETUP_MAX_REPEATS`
/// times), so that even a set-up of a few milliseconds gives a steady
/// median. The host's speed drifts in phases of seconds; two bursts half
/// a minute apart keep one phase from deciding the median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_BURST_S: f64 = 1.5;
const SETUP_MAX_REPEATS: usize = 201;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// The workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["search", "serve_miss", "serve_hit"];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Units of throughput completed correctly (step pairs or answered
    /// requests).
    pub units: f64,
    /// Wall-clock length of the phase.
    pub secs: f64,
    /// Units per second of each round (serving) or call (batch).
    pub rates: Vec<f64>,
    /// Latency of each correctly completed request (or call).
    pub latency: stats::LatencyLog,
    /// Requests (or calls) attempted.
    pub attempted: u64,
    /// Attempts that failed or returned a wrong answer.
    pub failed: u64,
    /// Nanoseconds inside `submit_with` (traced serving phases only).
    pub submit_ns: u64,
    /// Duration of each flush (serving phases).
    pub flush_ms: Vec<f64>,
}

impl Phase {
    /// The rate sustained by three in four rounds (serving) or calls
    /// (batch): the 25th percentile of their rates. The host's speed
    /// drifts between a slow state, present in every run, and a fast one
    /// whose share of a run varies; a mean or median over the phase
    /// follows that share, a low quantile does not. A change that makes
    /// every round slower moves it like the mean.
    fn throughput(&self) -> f64 {
        let mut sorted = self.rates.clone();
        sorted.sort_by(f64::total_cmp);
        stats::nearest_rank(&sorted, 0.25).unwrap_or(0.0)
    }

    /// Units over the phase's whole wall time, client-side work between
    /// rounds included (printed for comparison).
    fn mean_throughput(&self) -> f64 {
        if self.secs > 0.0 {
            self.units / self.secs
        } else {
            0.0
        }
    }

    /// Throughput of the median round or call (printed for comparison).
    fn median_round_throughput(&self) -> f64 {
        stats::median(&self.rates).unwrap_or(0.0)
    }
}

/// One benchmark workload after set-up.
pub trait Workload {
    /// Untimed warm-up after set-up, so the timed phase starts with warm
    /// buffer arenas. Serving workloads warm up inside set-up instead.
    fn warm_up(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Run the timed phase for `seconds`; `traced` phases also time the
    /// client-side entry points they call per request.
    fn run(&mut self, seconds: f64, traced: bool) -> Phase;
    /// Output checks after the timed phases: `(attempted, failed)`.
    fn check(&mut self, notes: &mut Vec<String>) -> (u64, u64);
    /// Workload-specific layer metrics of a traced phase.
    fn layers(&mut self, delta: &trace::Delta, phase: &Phase, v: &mut Values);
}

/// Run `f`, recording its seconds as `name` when tracing.
pub fn lap<T>(trace: bool, laps: &mut Values, name: &str, f: impl FnOnce() -> T) -> T {
    if !trace {
        return f();
    }
    let t = Instant::now();
    let out = f();
    laps.set(name, t.elapsed().as_secs_f64());
    out
}

fn setup(args: &Args, laps: &mut Values) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "search" => Box::new(batch::Search::setup(args, laps)?),
        "serve_miss" => Box::new(serve::Serve::setup(args, serve::Mode::Miss, laps)?),
        "serve_hit" => Box::new(serve::Serve::setup(args, serve::Mode::Hit, laps)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// One burst of set-ups, timing each into `setup_s`. Every set-up but
/// the last is dropped before the next starts; the last one, and the
/// laps it recorded, go to `keep`.
fn setup_burst(
    args: &Args,
    setup_s: &mut Vec<f64>,
    laps: &mut Values,
    keep: impl FnOnce(Box<dyn Workload>),
) -> Result<(), String> {
    let (mut n, mut secs) = (0, 0.0);
    let mut last = None;
    while n < SETUP_MIN_REPEATS || (secs < SETUP_BURST_S && n < SETUP_MAX_REPEATS) {
        drop(last.take());
        *laps = Values::default();
        let t = Instant::now();
        last = Some(setup(args, laps)?);
        let s = t.elapsed().as_secs_f64();
        setup_s.push(s);
        (n, secs) = (n + 1, secs + s);
    }
    keep(last.ok_or("set-up never ran")?);
    Ok(())
}

fn latency_line(latency: &stats::LatencyLog) -> String {
    let n = latency.len();
    let pct = |q: f64| latency.percentile(q).unwrap_or(0.0);
    let steady = stats::highest_supported(n, &[0.5, 0.9, 0.99], 10).map_or_else(
        || "none".to_string(),
        |q| format!("p{}", (q * 100.0).round()),
    );
    format!(
        "latency: n {n}, p50 {:.4} ms, p90 {:.4} ms ({} beyond), p99 {:.4} ms ({} beyond); \
         highest percentile with >= 10 samples beyond: {steady}",
        pct(0.5),
        pct(0.9),
        stats::samples_beyond(n, 0.9),
        pct(0.99),
        stats::samples_beyond(n, 0.99),
    )
}

fn run(args: &Args) -> Result<(bool, u64, u64, Values, Vec<String>), String> {
    // One CPU for the whole process, before any thread starts, so that a
    // serving client and its shard take turns on it instead of keeping
    // two vCPUs busy (see "Thread layout" in LAYERS.md).
    let cpu = host::pin_to_one_cpu();
    // One compute thread: kernels never fan out to the pool.
    cts_tensor::parallel::set_num_threads(1);
    cts_obs::set_metrics(Some(false));
    if let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    {
        // Traced runs write the program's run log next to the binary,
        // inside the build directory.
        cts_obs::runlog::set_path(Some(&dir.join("e2ebench_run.jsonl")));
    }
    let host_start = HostSample::now();
    let mut notes = Vec::new();
    let mut values = Values::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut work = None;
    setup_burst(args, &mut setup_s, &mut values, |w| work = Some(w))?;
    let mut work: Box<dyn Workload> = work.ok_or("set-up never ran")?;
    work.warm_up()?;

    let (phase, attempted_extra) = if args.trace {
        // Untraced quarters either side of the traced half, so that drift
        // of the host and state the program builds up over a run weigh on
        // both sides of `obs.trace_overhead` alike.
        let first = work.run(args.seconds / 4.0, false);
        trace::begin();
        let before = trace::Snapshot::take();
        let traced = work.run(args.seconds / 2.0, true);
        let after = trace::Snapshot::take();
        trace::end();
        let last = work.run(args.seconds / 4.0, false);
        let delta = trace::Delta {
            before: &before,
            after: &after,
        };
        delta.record_common(traced.units, traced.secs, &mut values);
        work.layers(&delta, &traced, &mut values);
        let untraced = Phase {
            rates: [first.rates.as_slice(), &last.rates].concat(),
            ..Phase::default()
        };
        let u = untraced.throughput();
        let t = traced.throughput();
        values.set("obs.untraced_throughput_per_s", u);
        values.set("obs.traced_throughput_per_s", t);
        values.set("obs.trace_overhead", if u > 0.0 { t / u } else { 0.0 });
        for (name, quarter) in [("first", &first), ("last", &last)] {
            notes.push(format!(
                "untraced {name} quarter: {}",
                latency_line(&quarter.latency)
            ));
        }
        let extra = (first.attempted + last.attempted, first.failed + last.failed);
        (traced, extra)
    } else {
        (work.run(args.seconds, false), (0, 0))
    };
    let host = HostSample::now().since(&host_start);
    let (check_attempted, check_failed) = work.check(&mut notes);
    drop(work);
    let before_phase = setup_s.len();
    setup_burst(args, &mut setup_s, &mut Values::default(), drop)?;

    values.set("setup_s", stats::median(&setup_s).unwrap_or(0.0));
    values.set("throughput_per_s", phase.throughput());
    values.set("p50_ms", phase.latency.percentile(0.5).unwrap_or(0.0));
    values.set("p90_ms", phase.latency.percentile(0.9).unwrap_or(0.0));
    values.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));

    let (early, late) = setup_s.split_at(before_phase);
    notes.push(format!(
        "setup_s: median of {} set-ups, min {:.6} s, max {:.6} s; median {:.6} s of {} \
         before the phase, {:.6} s of {} after it",
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max),
        stats::median(early).unwrap_or(0.0),
        early.len(),
        stats::median(late).unwrap_or(0.0),
        late.len(),
    ));
    notes.push(format!(
        "phase: {:.3} s, {} units in {} rounds or calls; throughput {:.4}/s sustained by \
         three in four rounds or calls, {:.4}/s at the median one, {:.4}/s over the phase",
        phase.secs,
        phase.units,
        phase.rates.len(),
        phase.throughput(),
        phase.median_round_throughput(),
        phase.mean_throughput()
    ));
    notes.push(latency_line(&phase.latency));
    notes.push(format!(
        "host: {}, pinned to CPU {}",
        host.to_json(),
        cpu.map_or_else(|| "none".to_string(), |c| c.to_string())
    ));
    // The layout check: at pool width 1 no kernel ever reaches the pool.
    let dispatches = cts_tensor::parallel::pool_stats().dispatches;
    if dispatches > 0 {
        notes.push(format!("pool width 1 broken: {dispatches} pool dispatches"));
    }
    let attempted = phase.attempted + attempted_extra.0 + check_attempted + 1;
    let failed = phase.failed + attempted_extra.1 + check_failed + u64::from(dispatches > 0);
    let finite = END_TO_END
        .iter()
        .all(|(n, _)| values.get(n).is_some_and(f64::is_finite));
    let correct = failed == 0 && finite && phase.units > 0.0;
    Ok((correct, attempted, failed, values, notes))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, values, notes) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for n in &notes {
        println!("{n}");
    }
    println!("ops_attempted {attempted}");
    println!("ops_failed {failed}");
    let catalogue = if args.trace {
        metrics::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, unit) in &catalogue {
        println!("{name} {} {unit}", values.get(name).unwrap_or(0.0));
    }
    if !args.trace {
        println!(
            "p50_ms {} ms (printed, not gated)",
            values.get("p50_ms").unwrap_or(0.0)
        );
    }
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &catalogue, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_hit --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_hit", 7, 12.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload search --trace 2").is_err());
        assert!(args("--workload search --seed").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload search --seconds 0").is_err());
    }

    #[test]
    fn throughput_is_the_rate_three_in_four_rounds_sustain() {
        let phase = Phase {
            rates: vec![4.0, 1.0, 3.0, 2.0, 5.0, 6.0, 7.0, 8.0],
            units: 36.0,
            secs: 4.0,
            ..Phase::default()
        };
        assert_eq!(phase.throughput(), 2.0);
        assert_eq!(phase.median_round_throughput(), 4.0);
        assert_eq!(phase.mean_throughput(), 9.0);
    }
}
