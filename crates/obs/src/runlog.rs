//! The structured JSONL run log.
//!
//! One JSON object per line, flat (no nesting), written only while
//! [`metrics_enabled`](crate::metrics_enabled) — so the default
//! (metrics-off) path never opens a file or allocates.
//!
//! # Sink resolution
//!
//! The first emitted event opens the sink, resolved in priority order:
//!
//! 1. an explicit [`set_path`] override (tests, embedding hosts),
//! 2. the `CTS_RUN_LOG` environment variable,
//! 3. `cts_run.jsonl` in the current directory.
//!
//! Every line is flushed as written: run logs are most valuable exactly
//! when the process dies, so buffering across events would be
//! self-defeating. Per-line flushes happen at epoch granularity (or step
//! granularity under `CTS_TRACE=1`), never inside kernels.
//!
//! # Event vocabulary
//!
//! | `event` | emitted by | meaning |
//! |---|---|---|
//! | `run_start` / `run_end` | search/train loops | run boundaries + config echo |
//! | `epoch` | search/train loops | per-epoch roll-up (τ, loss, entropy, …) |
//! | `phase` | [`crate::emit_epoch_rows`] | cumulative per-phase span counters |
//! | `tape` | [`crate::emit_epoch_rows`] | autograd tape counters |
//! | `kernel` | `cts_tensor::metrics` | cumulative per-kernel counters |
//! | `arena` / `arena_class` | `cts_tensor::metrics` | buffer-arena gauges |
//! | `pool` | `cts_tensor::metrics` | worker-pool dispatch counters |
//! | `watchdog` | search/train loops | divergence rollback |
//! | `step` | search/train loops (`CTS_TRACE=1`) | per-step trace |
//! | `warn` | anywhere | non-fatal anomaly (also mirrored to stderr) |

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// A JSON scalar value for one event field.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values are written as `null`).
    F64(f64),
    /// String (escaped on write).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

struct Sink {
    out: Option<BufWriter<File>>,
    /// Explicit path override; `None` falls back to env/default.
    path_override: Option<PathBuf>,
    /// True once an open was attempted (success or not), so a broken sink
    /// does not retry on every event.
    opened: bool,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    out: None,
    path_override: None,
    opened: false,
});

fn lock() -> std::sync::MutexGuard<'static, Sink> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Redirect the run log to `path` (truncating it), or reset to the
/// env/default resolution with `None`. Closes any open sink either way.
pub fn set_path(path: Option<&Path>) {
    let mut s = lock();
    if let Some(out) = &mut s.out {
        let _ = out.flush();
    }
    s.out = None;
    s.opened = false;
    s.path_override = path.map(Path::to_path_buf);
    if let Some(p) = path {
        match File::create(p) {
            Ok(f) => {
                s.out = Some(BufWriter::new(f));
                s.opened = true;
            }
            Err(e) => {
                eprintln!("cts-obs: cannot open run log {}: {e}", p.display());
                s.opened = true; // don't retry per event
            }
        }
    }
}

/// The path the sink resolves to right now (override > env > default).
pub fn resolved_path() -> PathBuf {
    let s = lock();
    match &s.path_override {
        Some(p) => p.clone(),
        None => std::env::var("CTS_RUN_LOG")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("cts_run.jsonl")),
    }
}

fn ensure_open(s: &mut Sink) {
    if s.opened {
        return;
    }
    s.opened = true;
    let path = match &s.path_override {
        Some(p) => p.clone(),
        None => std::env::var("CTS_RUN_LOG")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("cts_run.jsonl")),
    };
    match File::create(&path) {
        Ok(f) => s.out = Some(BufWriter::new(f)),
        Err(e) => eprintln!("cts-obs: cannot open run log {}: {e}", path.display()),
    }
}

fn push_escaped(buf: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

fn push_value(buf: &mut String, v: &Value<'_>) {
    match v {
        Value::U64(n) => buf.push_str(&n.to_string()),
        Value::I64(n) => buf.push_str(&n.to_string()),
        Value::F64(x) if x.is_finite() => buf.push_str(&format!("{x}")),
        Value::F64(_) => buf.push_str("null"),
        Value::Str(raw) => {
            buf.push('"');
            push_escaped(buf, raw);
            buf.push('"');
        }
        Value::Bool(b) => buf.push_str(if *b { "true" } else { "false" }),
    }
}

/// Append one event line (`{"event": <event>, <fields>...}`) to the run
/// log. No-op when metrics are off.
pub fn emit(event: &str, fields: &[(&str, Value<'_>)]) {
    if !crate::metrics_enabled() {
        return;
    }
    let mut line = String::with_capacity(64 + fields.len() * 24);
    line.push_str("{\"event\":\"");
    push_escaped(&mut line, event);
    line.push('"');
    for (k, v) in fields {
        line.push_str(",\"");
        push_escaped(&mut line, k);
        line.push_str("\":");
        push_value(&mut line, v);
    }
    line.push_str("}\n");
    let mut s = lock();
    ensure_open(&mut s);
    if let Some(out) = &mut s.out {
        // Flush per line: the log must survive a crash (see module docs).
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

/// Report a non-fatal anomaly: always mirrored to stderr, and logged as a
/// `warn` event when metrics are on.
pub fn warn(msg: &str) {
    eprintln!("cts-obs: warning: {msg}");
    emit("warn", &[("msg", Value::Str(msg))]);
}

/// Flush the sink (per-event writes already flush; this exists for hosts
/// that want a barrier before reading the file back).
pub fn flush() {
    let mut s = lock();
    if let Some(out) = &mut s.out {
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_escaped_flat_json() {
        let _g = crate::tests::LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("cts_obs_runlog_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        crate::set_metrics(Some(true));
        set_path(Some(&path));
        emit(
            "epoch",
            &[
                ("epoch", Value::U64(3)),
                ("tau", Value::F64(4.5)),
                ("nan", Value::F64(f64::NAN)),
                ("msg", Value::Str("a \"quoted\"\nline")),
                ("ok", Value::Bool(true)),
                ("delta", Value::I64(-2)),
            ],
        );
        flush();
        crate::set_metrics(Some(false));
        emit("epoch", &[("epoch", Value::U64(99))]);
        set_path(None);
        crate::set_metrics(None);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"event\":\"epoch\",\"epoch\":3,\"tau\":4.5,\"nan\":null,\
             \"msg\":\"a \\\"quoted\\\"\\nline\",\"ok\":true,\"delta\":-2}\n"
        );
        std::fs::remove_file(&path).ok();
    }
}
