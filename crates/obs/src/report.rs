//! Run-log summarizer: parses the flat JSONL written by [`crate::runlog`]
//! and folds it into a run [`Summary`] — per-epoch τ/loss/entropy
//! trajectory, per-kernel time shares, phase shares, arena hit rates, and
//! pool counters — renderable as text or as a `BENCH_obs.json` document in
//! the same `{"rows": [...]}` shape as the other `BENCH_*.json` files.
//!
//! The parser accepts exactly the subset of JSON the run log emits: one
//! flat object per line, scalar values only (string / number / bool /
//! null). Lines that do not parse are counted and skipped, never fatal —
//! a crashed run leaves a torn final line and the report must still work.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One scalar field value parsed from a run-log line.
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    /// Any JSON number (integers parse losslessly up to 2^53).
    Num(f64),
    /// A JSON string.
    Str(String),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null` (non-finite floats are logged as null).
    Null,
}

impl Field {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Field::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Field::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One parsed run-log event: the `event` tag plus its remaining fields.
#[derive(Clone, Debug)]
pub struct Event {
    /// The `event` field (`epoch`, `kernel`, `phase`, …).
    pub event: String,
    /// Every other field, keyed by name.
    pub fields: BTreeMap<String, Field>,
}

/// Parse one run-log line into an [`Event`]. Returns `None` for blank,
/// torn, or non-conforming lines.
pub fn parse_line(line: &str) -> Option<Event> {
    let mut p = Parser {
        s: line.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    p.require(b'{')?;
    let mut fields = BTreeMap::new();
    let mut event = None;
    p.skip_ws();
    if !p.eat(b'}') {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.require(b':')?;
            p.skip_ws();
            let val = p.value()?;
            if key == "event" {
                event = val.as_str().map(str::to_owned);
            } else {
                fields.insert(key, val);
            }
            p.skip_ws();
            if p.eat(b',') {
                continue;
            }
            p.require(b'}')?;
            break;
        }
    }
    p.skip_ws();
    if p.i != p.s.len() {
        return None;
    }
    Some(Event {
        event: event?,
        fields,
    })
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn require(&mut self, b: u8) -> Option<()> {
        self.eat(b).then_some(())
    }

    fn string(&mut self) -> Option<String> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.s.get(self.i + 1..self.i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through intact: take
                    // the full char from the remaining str.
                    let rest = std::str::from_utf8(&self.s[self.i..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn value(&mut self) -> Option<Field> {
        match self.peek()? {
            b'"' => self.string().map(Field::Str),
            b't' => self.keyword("true").map(|_| Field::Bool(true)),
            b'f' => self.keyword("false").map(|_| Field::Bool(false)),
            b'n' => self.keyword("null").map(|_| Field::Null),
            _ => {
                let start = self.i;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()?
                    .parse::<f64>()
                    .ok()
                    .map(Field::Num)
            }
        }
    }

    fn keyword(&mut self, kw: &str) -> Option<()> {
        if self.s[self.i..].starts_with(kw.as_bytes()) {
            self.i += kw.len();
            Some(())
        } else {
            None
        }
    }
}

/// One epoch's roll-up row from the `epoch` events.
#[derive(Clone, Debug, Default)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: u64,
    /// Loop kind (`joint_search`, `train`, …).
    pub kind: String,
    /// Gumbel/softmax temperature (search loops only).
    pub tau: Option<f64>,
    /// Training loss, when reported.
    pub train_loss: Option<f64>,
    /// Validation loss, when reported.
    pub val_loss: Option<f64>,
    /// Mean architecture-distribution entropy (search loops only).
    pub alpha_entropy: Option<f64>,
}

/// Last-seen cumulative counters for one kernel.
#[derive(Clone, Debug, Default)]
pub struct KernelRow {
    /// Kernel name from the `KernelSpec` registry.
    pub name: String,
    /// Total invocations.
    pub calls: u64,
    /// Invocations that crossed a thread boundary.
    pub parallel_calls: u64,
    /// Invocations routed through the vector (SIMD) path. A value far
    /// below `calls` on a SIMD-capable host flags a silent scalar
    /// fallback; scalar-only kernels legitimately stay at zero.
    pub simd_calls: u64,
    /// Work units processed.
    pub units: u64,
    /// Nanoseconds inside the kernel.
    pub ns: u64,
}

/// Last-seen cumulative counters for one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseRow {
    /// Phase name (`forward`, `backward`, …).
    pub name: String,
    /// Span entries.
    pub calls: u64,
    /// Nanoseconds inside the phase.
    pub ns: u64,
}

/// Per-regime evaluation metrics from the `regime` events (adversarial
/// robustness rows: sensor dropout, missing spans, regime shift, …).
#[derive(Clone, Debug, Default)]
pub struct RegimeRow {
    /// Regime name (`clean`, `sensor_dropout`, …).
    pub name: String,
    /// Masked MAE under the regime.
    pub mae: Option<f64>,
    /// Masked RMSE under the regime.
    pub rmse: Option<f64>,
    /// Masked MAPE under the regime.
    pub mape: Option<f64>,
}

/// The folded summary of one run log.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Per-epoch roll-ups, in emission order.
    pub epochs: Vec<EpochRow>,
    /// Per-regime robustness metrics, in emission order (last value per
    /// regime name wins).
    pub regimes: Vec<RegimeRow>,
    /// Per-kernel cumulative counters (last seen), sorted by time desc.
    pub kernels: Vec<KernelRow>,
    /// Per-phase cumulative counters (last seen), in emission order.
    pub phases: Vec<PhaseRow>,
    /// Arena hits (last seen).
    pub arena_hits: u64,
    /// Arena misses (last seen).
    pub arena_misses: u64,
    /// Arena resident floats (last seen).
    pub arena_resident_floats: u64,
    /// Pool worker count (last seen).
    pub pool_workers: u64,
    /// Pool dispatches (last seen).
    pub pool_dispatches: u64,
    /// Nested-serial fallbacks (last seen).
    pub pool_nested_serial: u64,
    /// Worker wakes (last seen).
    pub pool_wakes: u64,
    /// Worker parks (last seen).
    pub pool_parks: u64,
    /// Backward sweeps (last seen).
    pub tape_backwards: u64,
    /// Peak single-tape node count (last seen).
    pub tape_peak_nodes: u64,
    /// Peak live gradient scalars (last seen).
    pub tape_peak_grad_scalars: u64,
    /// Host hardware parallelism from the `host` row (0 when absent).
    pub host_parallelism: u64,
    /// SIMD level detected on the emitting host (empty when absent).
    pub host_simd_detected: String,
    /// SIMD level actually active on the emitting host (empty when absent).
    pub host_simd_active: String,
    /// Watchdog (divergence rollback) events.
    pub watchdog_events: u64,
    /// `warn` events.
    pub warnings: u64,
    /// Lines that failed to parse (torn tail lines, etc).
    pub skipped_lines: u64,
}

impl Summary {
    /// Arena hit rate in `[0, 1]`, or `None` with no arena traffic.
    pub fn arena_hit_rate(&self) -> Option<f64> {
        let total = self.arena_hits + self.arena_misses;
        (total > 0).then(|| self.arena_hits as f64 / total as f64)
    }

    /// Total kernel nanoseconds (denominator for time shares).
    pub fn kernel_ns_total(&self) -> u64 {
        self.kernels.iter().map(|k| k.ns).sum()
    }
}

fn f(ev: &Event, key: &str) -> Option<f64> {
    ev.fields.get(key).and_then(Field::as_f64)
}

fn u(ev: &Event, key: &str) -> u64 {
    ev.fields.get(key).and_then(Field::as_u64).unwrap_or(0)
}

fn s<'a>(ev: &'a Event, key: &str) -> &'a str {
    ev.fields.get(key).and_then(Field::as_str).unwrap_or("")
}

/// Fold the lines of a run log into a [`Summary`].
///
/// Counters in the log are cumulative; the summary keeps the last value
/// seen per key, so a log truncated mid-run still summarizes cleanly.
pub fn summarize(text: &str) -> Summary {
    let mut sum = Summary::default();
    let mut kernels: BTreeMap<String, KernelRow> = BTreeMap::new();
    let mut phases: Vec<PhaseRow> = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(ev) = parse_line(line) else {
            sum.skipped_lines += 1;
            continue;
        };
        match ev.event.as_str() {
            "epoch" => sum.epochs.push(EpochRow {
                epoch: u(&ev, "epoch"),
                kind: s(&ev, "kind").to_owned(),
                tau: f(&ev, "tau"),
                train_loss: f(&ev, "train_loss"),
                val_loss: f(&ev, "val_loss"),
                alpha_entropy: f(&ev, "alpha_entropy"),
            }),
            "kernel" => {
                let name = s(&ev, "name").to_owned();
                let row = kernels.entry(name.clone()).or_default();
                row.name = name;
                row.calls = u(&ev, "calls");
                row.parallel_calls = u(&ev, "parallel_calls");
                row.simd_calls = u(&ev, "simd_calls");
                row.units = u(&ev, "units");
                row.ns = u(&ev, "ns");
            }
            "host" => {
                sum.host_parallelism = u(&ev, "available_parallelism");
                sum.host_simd_detected = s(&ev, "simd_detected").to_owned();
                sum.host_simd_active = s(&ev, "simd_active").to_owned();
            }
            "phase" => {
                let name = s(&ev, "name");
                let row = match phases.iter_mut().find(|p| p.name == name) {
                    Some(row) => row,
                    None => {
                        phases.push(PhaseRow {
                            name: name.to_owned(),
                            ..PhaseRow::default()
                        });
                        // invariant: just pushed, so last() exists
                        phases.last_mut().unwrap()
                    }
                };
                row.calls = u(&ev, "calls");
                row.ns = u(&ev, "ns");
            }
            "arena" => {
                sum.arena_hits = u(&ev, "hits");
                sum.arena_misses = u(&ev, "misses");
                sum.arena_resident_floats = u(&ev, "resident_floats");
            }
            "pool" => {
                sum.pool_workers = u(&ev, "workers");
                sum.pool_dispatches = u(&ev, "dispatches");
                sum.pool_nested_serial = u(&ev, "nested_serial");
                sum.pool_wakes = u(&ev, "wakes");
                sum.pool_parks = u(&ev, "parks");
            }
            "tape" => {
                sum.tape_backwards = u(&ev, "backwards");
                sum.tape_peak_nodes = u(&ev, "peak_nodes");
                sum.tape_peak_grad_scalars = u(&ev, "peak_grad_scalars");
            }
            "regime" => {
                let name = s(&ev, "name");
                let row = match sum.regimes.iter_mut().find(|r| r.name == name) {
                    Some(row) => row,
                    None => {
                        sum.regimes.push(RegimeRow {
                            name: name.to_owned(),
                            ..RegimeRow::default()
                        });
                        // invariant: just pushed, so last() exists
                        sum.regimes.last_mut().unwrap()
                    }
                };
                row.mae = f(&ev, "mae");
                row.rmse = f(&ev, "rmse");
                row.mape = f(&ev, "mape");
            }
            "watchdog" => sum.watchdog_events += 1,
            "warn" => sum.warnings += 1,
            _ => {}
        }
    }
    let mut kernels: Vec<KernelRow> = kernels.into_values().collect();
    kernels.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.name.cmp(&b.name)));
    sum.kernels = kernels;
    sum.phases = phases;
    sum
}

fn fmt_opt(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:.6}"),
        None => "-".to_owned(),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Render the summary as a human-readable text report.
pub fn render_text(sum: &Summary) -> String {
    let mut out = String::new();
    // invariant: writing to a String cannot fail
    let w = &mut out;
    let _ = writeln!(w, "run summary: {} epoch(s)", sum.epochs.len());
    if !sum.host_simd_detected.is_empty() {
        let _ = writeln!(
            w,
            "  host: parallelism {}  simd detected {}  active {}",
            sum.host_parallelism, sum.host_simd_detected, sum.host_simd_active,
        );
    }
    if let (Some(first), Some(last)) = (sum.epochs.first(), sum.epochs.last()) {
        let _ = writeln!(
            w,
            "  tau {} -> {}   val_loss {} -> {}   alpha_entropy {} -> {}",
            fmt_opt(first.tau),
            fmt_opt(last.tau),
            fmt_opt(first.val_loss),
            fmt_opt(last.val_loss),
            fmt_opt(first.alpha_entropy),
            fmt_opt(last.alpha_entropy),
        );
    }
    if sum.watchdog_events > 0 || sum.warnings > 0 {
        let _ = writeln!(
            w,
            "  watchdog events: {}   warnings: {}",
            sum.watchdog_events, sum.warnings
        );
    }
    let total_ns = sum.kernel_ns_total();
    if !sum.kernels.is_empty() {
        let _ = writeln!(w, "kernels (by time, total {:.1} ms):", ms(total_ns));
        for k in &sum.kernels {
            let share = if total_ns > 0 {
                100.0 * k.ns as f64 / total_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                w,
                "  {:<28} {:>10.1} ms  {:>5.1}%  calls {:>9}  par {:>9}  simd {:>9}  units {:>12}",
                k.name,
                ms(k.ns),
                share,
                k.calls,
                k.parallel_calls,
                k.simd_calls,
                k.units
            );
        }
    }
    if !sum.phases.is_empty() {
        let phase_ns: u64 = sum.phases.iter().map(|p| p.ns).sum();
        let _ = writeln!(w, "phases:");
        for p in &sum.phases {
            let share = if phase_ns > 0 {
                100.0 * p.ns as f64 / phase_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                w,
                "  {:<28} {:>10.1} ms  {:>5.1}%  calls {:>9}",
                p.name,
                ms(p.ns),
                share,
                p.calls
            );
        }
    }
    if !sum.regimes.is_empty() {
        let _ = writeln!(w, "adversarial regimes (masked metrics):");
        for r in &sum.regimes {
            let _ = writeln!(
                w,
                "  {:<28} mae {:>10}  rmse {:>10}  mape {:>10}",
                r.name,
                fmt_opt(r.mae),
                fmt_opt(r.rmse),
                fmt_opt(r.mape),
            );
        }
    }
    if sum.arena_hits + sum.arena_misses > 0 {
        let _ = writeln!(
            w,
            "arena: hits {}  misses {}  hit-rate {:.2}%  resident {:.1} MiB",
            sum.arena_hits,
            sum.arena_misses,
            100.0 * sum.arena_hit_rate().unwrap_or(0.0),
            sum.arena_resident_floats as f64 * 4.0 / (1024.0 * 1024.0),
        );
    }
    if sum.pool_dispatches > 0 || sum.pool_workers > 0 {
        let _ = writeln!(
            w,
            "pool: workers {}  dispatches {}  nested-serial {}  wakes {}  parks {}",
            sum.pool_workers,
            sum.pool_dispatches,
            sum.pool_nested_serial,
            sum.pool_wakes,
            sum.pool_parks,
        );
    }
    if sum.tape_backwards > 0 {
        let _ = writeln!(
            w,
            "tape: backwards {}  peak nodes {}  peak grad scalars {}",
            sum.tape_backwards, sum.tape_peak_nodes, sum.tape_peak_grad_scalars,
        );
    }
    if sum.skipped_lines > 0 {
        let _ = writeln!(w, "({} unparseable line(s) skipped)", sum.skipped_lines);
    }
    out
}

/// Render the summary as a `BENCH_obs.json` document: a `"rows"` array in
/// the same flat shape as the other `BENCH_*.json` files (one row per
/// kernel and per phase), plus a `"summary"` object with the run-level
/// gauges.
pub fn render_bench_json(sum: &Summary) -> String {
    let mut out = String::from("{\n");
    if !sum.host_simd_detected.is_empty() {
        let _ = writeln!(
            out,
            "  \"host\": {{\"available_parallelism\": {}, \"simd_detected\": \"{}\", \
             \"simd_active\": \"{}\"}},",
            sum.host_parallelism, sum.host_simd_detected, sum.host_simd_active,
        );
    }
    out.push_str("  \"rows\": [\n");
    let total_ns = sum.kernel_ns_total().max(1);
    let mut rows: Vec<String> = Vec::new();
    for k in &sum.kernels {
        rows.push(format!(
            "    {{\"op\": \"kernel.{}\", \"calls\": {}, \"parallel_calls\": {}, \
             \"simd_calls\": {}, \"units\": {}, \"ns\": {}, \"time_share\": {:.4}}}",
            k.name,
            k.calls,
            k.parallel_calls,
            k.simd_calls,
            k.units,
            k.ns,
            k.ns as f64 / total_ns as f64
        ));
    }
    for p in &sum.phases {
        rows.push(format!(
            "    {{\"op\": \"phase.{}\", \"calls\": {}, \"ns\": {}}}",
            p.name, p.calls, p.ns
        ));
    }
    let opt_num = |x: Option<f64>| match x {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_owned(),
    };
    for r in &sum.regimes {
        rows.push(format!(
            "    {{\"op\": \"regime.{}\", \"mae\": {}, \"rmse\": {}, \"mape\": {}}}",
            r.name,
            opt_num(r.mae),
            opt_num(r.rmse),
            opt_num(r.mape)
        ));
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"summary\": {");
    let last = sum.epochs.last();
    let opt = |x: Option<f64>| match x {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_owned(),
    };
    let _ = write!(
        out,
        "\"epochs\": {}, \"tau_last\": {}, \"val_loss_last\": {}, \
         \"alpha_entropy_last\": {}, \"arena_hits\": {}, \"arena_misses\": {}, \
         \"arena_resident_floats\": {}, \"pool_workers\": {}, \
         \"pool_dispatches\": {}, \"pool_nested_serial\": {}, \
         \"tape_backwards\": {}, \"tape_peak_nodes\": {}, \
         \"watchdog_events\": {}, \"warnings\": {}",
        sum.epochs.len(),
        opt(last.and_then(|e| e.tau)),
        opt(last.and_then(|e| e.val_loss)),
        opt(last.and_then(|e| e.alpha_entropy)),
        sum.arena_hits,
        sum.arena_misses,
        sum.arena_resident_floats,
        sum.pool_workers,
        sum.pool_dispatches,
        sum.pool_nested_serial,
        sum.tape_backwards,
        sum.tape_peak_nodes,
        sum.watchdog_events,
        sum.warnings,
    );
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_lines() {
        let ev = parse_line(
            r#"{"event":"epoch","epoch":2,"kind":"joint_search","tau":3.5,"val_loss":0.25,"alpha_entropy":1.9}"#,
        )
        .unwrap();
        assert_eq!(ev.event, "epoch");
        assert_eq!(ev.fields.get("epoch"), Some(&Field::Num(2.0)));
        assert_eq!(
            ev.fields.get("kind"),
            Some(&Field::Str("joint_search".into()))
        );
        assert!(
            parse_line("{\"event\":\"x\"").is_none(),
            "torn line rejected"
        );
        assert!(parse_line("").is_none());
        let esc = parse_line(r#"{"event":"warn","msg":"a \"q\"\nline A"}"#).unwrap();
        assert_eq!(
            esc.fields.get("msg"),
            Some(&Field::Str("a \"q\"\nline A".into()))
        );
        let nul = parse_line(r#"{"event":"epoch","tau":null,"ok":true,"bad":false}"#).unwrap();
        assert_eq!(nul.fields.get("tau"), Some(&Field::Null));
        assert_eq!(nul.fields.get("ok"), Some(&Field::Bool(true)));
    }

    #[test]
    fn summarize_folds_cumulative_counters() {
        let log = concat!(
            "{\"event\":\"run_start\",\"kind\":\"joint_search\"}\n",
            "{\"event\":\"host\",\"available_parallelism\":8,\"simd_detected\":\"avx2\",\"simd_active\":\"avx2\"}\n",
            "{\"event\":\"epoch\",\"epoch\":0,\"kind\":\"joint_search\",\"tau\":5.0,\"val_loss\":0.5,\"alpha_entropy\":2.0}\n",
            "{\"event\":\"kernel\",\"epoch\":0,\"name\":\"matmul\",\"calls\":10,\"parallel_calls\":4,\"simd_calls\":9,\"units\":100,\"ns\":3000}\n",
            "{\"event\":\"phase\",\"epoch\":0,\"name\":\"forward\",\"calls\":8,\"ns\":500}\n",
            "{\"event\":\"epoch\",\"epoch\":1,\"kind\":\"joint_search\",\"tau\":4.0,\"val_loss\":0.4,\"alpha_entropy\":1.5}\n",
            "{\"event\":\"kernel\",\"epoch\":1,\"name\":\"matmul\",\"calls\":20,\"parallel_calls\":8,\"simd_calls\":18,\"units\":200,\"ns\":6000}\n",
            "{\"event\":\"kernel\",\"epoch\":1,\"name\":\"softmax\",\"calls\":5,\"parallel_calls\":0,\"units\":50,\"ns\":2000}\n",
            "{\"event\":\"phase\",\"epoch\":1,\"name\":\"forward\",\"calls\":16,\"ns\":1200}\n",
            "{\"event\":\"arena\",\"epoch\":1,\"hits\":90,\"misses\":10,\"resident_floats\":4096}\n",
            "{\"event\":\"pool\",\"epoch\":1,\"workers\":4,\"dispatches\":33,\"nested_serial\":2,\"wakes\":99,\"parks\":101}\n",
            "{\"event\":\"tape\",\"epoch\":1,\"backwards\":12,\"nodes\":480,\"peak_nodes\":40,\"peak_grad_scalars\":7}\n",
            "{\"event\":\"watchdog\",\"epoch\":1,\"reason\":\"nan\"}\n",
            "{\"event\":\"regime\",\"name\":\"clean\",\"mae\":1.5,\"rmse\":2.5,\"mape\":0.1}\n",
            "{\"event\":\"regime\",\"name\":\"sensor_dropout\",\"mae\":2.0,\"rmse\":3.0,\"mape\":0.2}\n",
            "{\"event\":\"epoch\",\"epo",  // torn final line
        );
        let sum = summarize(log);
        assert_eq!(sum.epochs.len(), 2);
        assert_eq!(sum.epochs[1].tau, Some(4.0));
        assert_eq!(sum.kernels.len(), 2);
        assert_eq!(sum.kernels[0].name, "matmul", "sorted by time desc");
        assert_eq!(sum.kernels[0].calls, 20, "last cumulative value wins");
        assert_eq!(sum.kernels[0].simd_calls, 18);
        assert_eq!(sum.kernels[1].simd_calls, 0, "absent field defaults to 0");
        assert_eq!(sum.host_parallelism, 8);
        assert_eq!(sum.host_simd_detected, "avx2");
        assert_eq!(sum.phases[0].calls, 16);
        assert_eq!(sum.arena_hits, 90);
        assert_eq!(sum.arena_hit_rate(), Some(0.9));
        assert_eq!(sum.pool_dispatches, 33);
        assert_eq!(sum.tape_peak_nodes, 40);
        assert_eq!(sum.watchdog_events, 1);
        assert_eq!(sum.skipped_lines, 1);
        let text = render_text(&sum);
        assert!(text.contains("matmul"));
        assert!(text.contains("hit-rate 90.00%"));
        assert_eq!(sum.regimes.len(), 2);
        assert_eq!(sum.regimes[1].name, "sensor_dropout");
        assert_eq!(sum.regimes[1].mae, Some(2.0));
        assert!(text.contains("sensor_dropout"));
        let json = render_bench_json(&sum);
        assert!(json.contains("\"op\": \"kernel.matmul\""));
        assert!(json.contains("\"simd_calls\": 18"));
        assert!(json.contains("\"op\": \"regime.sensor_dropout\", \"mae\": 2, \"rmse\": 3"));
        assert!(json.contains("\"tau_last\": 4"));
        assert!(
            json.contains("\"host\": {\"available_parallelism\": 8, \"simd_detected\": \"avx2\"")
        );
        assert!(json.starts_with("{\n"));
    }
}
