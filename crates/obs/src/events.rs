//! Structured decision events and the JSON Lines writer that streams
//! them.
//!
//! An [`Event`] is a name plus a flat list of typed, named fields, all
//! borrowed — constructing one allocates nothing. Algorithms hand events
//! to their probe through [`Tracer::event`](crate::Tracer::event) inside
//! an `if T::ENABLED { ... }` block; with [`NoopTracer`](crate::NoopTracer)
//! the guard is a compile-time `false` and the whole block is removed by
//! monomorphisation. [`Telemetry`](crate::Telemetry) forwards events to
//! a [`JsonlWriter`] (`--events-out`).

use std::cell::RefCell;
use std::io::{self, Write};

/// A single typed field value carried by an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// Unsigned integer (ids, counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number (costs, deltas). Non-finite values encode
    /// as JSON `null`.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Borrowed string (names, labels).
    Str(&'a str),
}

/// A structured event: a dot-namespaced name (`"miec.place"`) plus an
/// ordered list of named fields.
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// Event name, dot-namespaced by emitting subsystem.
    pub name: &'a str,
    /// Ordered `(key, value)` fields.
    pub fields: &'a [(&'a str, FieldValue<'a>)],
}

/// The event-sink argument of
/// `esvm_core::Miec::allocate_observed`, kept so callers of that
/// signature still compile. It records nothing: the metrics registry
/// passed beside it is the probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiscardSink;

/// Streams events as JSON Lines (one object per line) to any
/// [`Write`] destination. Wrap files in a `BufWriter`; the writer
/// itself does not buffer.
///
/// [`JsonlWriter::emit`] takes `&self` (the writer sits in a
/// `RefCell`), so a shared `&JsonlWriter` can ride inside a probe. A
/// `&JsonlWriter<W>` coerces to `&JsonlWriter<dyn Write>`, which is
/// what [`Telemetry`](crate::Telemetry) holds.
///
/// I/O errors are latched rather than panicking mid-algorithm: the
/// first error stops further writes and is surfaced by
/// [`JsonlWriter::finish`].
pub struct JsonlWriter<W: Write + ?Sized> {
    error: RefCell<Option<io::Error>>,
    // Last, so the struct can unsize to `JsonlWriter<dyn Write>`.
    writer: RefCell<W>,
}

impl<W: Write> JsonlWriter<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        Self { error: RefCell::new(None), writer: RefCell::new(writer) }
    }

    /// Flushes and returns the underlying writer, or the first I/O
    /// error encountered while emitting.
    pub fn finish(self) -> io::Result<W> {
        if let Some(e) = self.error.into_inner() {
            return Err(e);
        }
        let mut writer = self.writer.into_inner();
        writer.flush()?;
        Ok(writer)
    }
}

impl<W: Write + ?Sized> std::fmt::Debug for JsonlWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlWriter").finish_non_exhaustive()
    }
}

impl<W: Write + ?Sized> JsonlWriter<W> {
    /// Writes `event` as one JSON line.
    pub fn emit(&self, event: &Event<'_>) {
        let mut error = self.error.borrow_mut();
        if error.is_some() {
            return;
        }
        let mut line = encode_json(event);
        line.push('\n');
        if let Err(e) = self.writer.borrow_mut().write_all(line.as_bytes()) {
            *error = Some(e);
        }
    }
}

/// Encodes `event` as a single JSON object (no trailing newline):
/// `{"event":"miec.place","vm":3,"delta":12.5}`.
pub fn encode_json(event: &Event<'_>) -> String {
    let mut out = String::with_capacity(32 + 16 * event.fields.len());
    out.push_str("{\"event\":");
    push_json_string(&mut out, event.name);
    for (key, value) in event.fields {
        out.push(',');
        push_json_string(&mut out, key);
        out.push(':');
        push_json_value(&mut out, value);
    }
    out.push('}');
    out
}

fn push_json_value(out: &mut String, value: &FieldValue<'_>) {
    use std::fmt::Write as _;
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(s) => push_json_string(out, s),
    }
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>(fields: &'a [(&'a str, FieldValue<'a>)]) -> Event<'a> {
        Event { name: "test.event", fields }
    }

    #[test]
    fn encodes_every_field_type() {
        let fields = [
            ("u", FieldValue::U64(7)),
            ("i", FieldValue::I64(-3)),
            ("f", FieldValue::F64(2.5)),
            ("b", FieldValue::Bool(true)),
            ("s", FieldValue::Str("miec")),
        ];
        assert_eq!(
            encode_json(&sample(&fields)),
            r#"{"event":"test.event","u":7,"i":-3,"f":2.5,"b":true,"s":"miec"}"#
        );
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite_floats() {
        let fields = [
            ("q", FieldValue::Str("a\"b\\c\nd")),
            ("nan", FieldValue::F64(f64::NAN)),
            ("inf", FieldValue::F64(f64::INFINITY)),
        ];
        assert_eq!(
            encode_json(&sample(&fields)),
            r#"{"event":"test.event","q":"a\"b\\c\nd","nan":null,"inf":null}"#
        );
    }

    #[test]
    fn jsonl_writer_streams_one_line_per_event() {
        let sink = JsonlWriter::new(Vec::new());
        sink.emit(&sample(&[("n", FieldValue::U64(1))]));
        sink.emit(&sample(&[("n", FieldValue::U64(2))]));
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with(r#""n":1}"#) && lines[1].ends_with(r#""n":2}"#));
    }

    #[test]
    fn jsonl_writer_is_shared_behind_dyn_write() {
        let sink = JsonlWriter::new(Vec::new());
        let shared: &JsonlWriter<dyn Write> = &sink;
        shared.emit(&sample(&[("x", FieldValue::Bool(false))]));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(text, "{\"event\":\"test.event\",\"x\":false}\n");
    }

    #[test]
    fn jsonl_writer_latches_the_first_error() {
        /// Fails every write, counting the attempts.
        #[derive(Debug)]
        struct Broken(std::rc::Rc<std::cell::Cell<u32>>);
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0.set(self.0.get() + 1);
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let attempts = std::rc::Rc::new(std::cell::Cell::new(0));
        let sink = JsonlWriter::new(Broken(attempts.clone()));
        sink.emit(&sample(&[("n", FieldValue::U64(1))]));
        sink.emit(&sample(&[("n", FieldValue::U64(2))]));
        assert_eq!(attempts.get(), 1, "writes stop after the first error");
        assert_eq!(sink.finish().unwrap_err().to_string(), "disk full");
    }
}
