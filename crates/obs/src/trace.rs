//! The JSON-lines span/event emitter, gated by `CO_TRACE`.
//!
//! When tracing is off (the default) the entire emitter is one relaxed
//! atomic load returning `false` — no locks, no allocation, no
//! formatting. Hot paths should guard field construction behind
//! [`trace_enabled`] themselves so even the argument marshalling is
//! skipped.
//!
//! `CO_TRACE` values:
//!
//! | value            | meaning                                  |
//! |------------------|------------------------------------------|
//! | unset, `0`, `""` | off                                      |
//! | `1`, `stderr`    | one JSON object per line on stderr       |
//! | anything else    | treated as a file path, appended to      |
//!
//! The file mode exists so a test run can assert *every* emitted line
//! parses as JSON without stderr noise from the test harness mixed in.
//!
//! [`warn`] is **not** gated: configuration problems are always
//! emitted (to the trace sink when tracing is on, stderr otherwise),
//! as a single greppable JSON line.

use crate::json;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Where trace lines go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceOutput {
    Off,
    Stderr,
    /// Append to this file (created if missing).
    File(PathBuf),
}

// 0 = uninitialised, 1 = off, 2 = on.
static TRACE_STATE: AtomicU8 = AtomicU8::new(0);

enum Sink {
    Stderr,
    File(File),
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Whether trace emission is on. After the first call this is a single
/// relaxed atomic load.
#[inline]
pub fn trace_enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => read_co_trace(),
    }
}

#[cold]
fn read_co_trace() -> bool {
    let out = match std::env::var("CO_TRACE") {
        Err(_) => TraceOutput::Off,
        Ok(v) => match v.as_str() {
            "" | "0" => TraceOutput::Off,
            "1" | "stderr" => TraceOutput::Stderr,
            path => TraceOutput::File(PathBuf::from(path)),
        },
    };
    set_trace_output(out);
    TRACE_STATE.load(Ordering::Relaxed) == 2
}

/// Redirects (or disables) trace output for the whole process,
/// overriding `CO_TRACE`. If the file cannot be opened, falls back to
/// stderr after reporting the failure there.
pub fn set_trace_output(out: TraceOutput) {
    let sink = match out {
        TraceOutput::Off => None,
        TraceOutput::Stderr => Some(Sink::Stderr),
        TraceOutput::File(path) => match OpenOptions::new().create(true).append(true).open(&path) {
            Ok(f) => Some(Sink::File(f)),
            Err(e) => {
                eprintln!(
                    "{{\"event\":\"warn\",\"component\":\"co-obs\",\
                         \"message\":\"CO_TRACE file open failed, using stderr\",\
                         \"error\":{}}}",
                    {
                        let mut s = String::new();
                        json::escape_into(&mut s, &e.to_string());
                        s
                    }
                );
                Some(Sink::Stderr)
            }
        },
    };
    // Order matters for racing emitters: install the sink before
    // flipping the flag on, and flip off before removing the sink
    // (write_line tolerates a missing sink either way).
    if sink.is_none() {
        TRACE_STATE.store(1, Ordering::Relaxed);
        *SINK.lock().unwrap() = None;
    } else {
        *SINK.lock().unwrap() = sink;
        TRACE_STATE.store(2, Ordering::Relaxed);
    }
}

/// One field of a trace event.
#[derive(Clone, Copy, Debug)]
pub enum FieldValue<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
    Bool(bool),
}

impl FieldValue<'_> {
    fn push_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => json::push_f64(out, *v),
            FieldValue::Str(s) => json::escape_into(out, s),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

fn render_line(event: &str, fields: &[(&str, FieldValue<'_>)]) -> String {
    let ts_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut line = String::with_capacity(64 + fields.len() * 24);
    line.push_str("{\"ts_us\":");
    line.push_str(&ts_us.to_string());
    line.push_str(",\"event\":");
    json::escape_into(&mut line, event);
    for (key, value) in fields {
        line.push(',');
        json::escape_into(&mut line, key);
        line.push(':');
        value.push_json(&mut line);
    }
    line.push('}');
    line
}

fn write_line(line: &str) {
    let mut sink = SINK.lock().unwrap();
    match sink.as_mut() {
        Some(Sink::Stderr) | None => eprintln!("{line}"),
        Some(Sink::File(f)) => {
            // One write_all per line (not `writeln!`'s separate newline
            // write): with O_APPEND this keeps whole lines atomic even
            // when several traced processes share the file.
            let mut buf = String::with_capacity(line.len() + 1);
            buf.push_str(line);
            buf.push('\n');
            let _ = f.write_all(buf.as_bytes());
        }
    }
}

/// Emits one span/event as a JSON line. A no-op (one relaxed load)
/// unless tracing is on.
pub fn emit(event: &str, fields: &[(&str, FieldValue<'_>)]) {
    if trace_enabled() {
        write_line(&render_line(event, fields));
    }
}

/// Emits a warning as a JSON line — **regardless** of `CO_TRACE` (to
/// the trace sink when tracing is on, stderr otherwise). For
/// misconfiguration and other conditions a human must be able to grep
/// for.
pub fn warn(component: &str, message: &str, fields: &[(&str, FieldValue<'_>)]) {
    let mut all = Vec::with_capacity(fields.len() + 2);
    all.push(("component", FieldValue::Str(component)));
    all.push(("message", FieldValue::Str(message)));
    all.extend_from_slice(fields);
    let line = render_line("warn", &all);
    if trace_enabled() {
        write_line(&line);
    } else {
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_lines_are_valid_json() {
        let line = render_line(
            "server.request",
            &[
                ("session", FieldValue::U64(7)),
                ("core", FieldValue::Str("pool")),
                ("queue_wait_ns", FieldValue::U64(1234)),
                ("ratio", FieldValue::F64(0.25)),
                ("nan", FieldValue::F64(f64::NAN)),
                ("ok", FieldValue::Bool(true)),
                ("note", FieldValue::Str("quote \" and \n newline")),
                ("delta", FieldValue::I64(-3)),
            ],
        );
        crate::json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(line.contains("\"event\":\"server.request\""));
        assert!(line.contains("\"nan\":null"));
    }
}
