//! In-memory spans recorded by the benchmark's own code, written out as a
//! Chrome trace (`chrome://tracing`, Perfetto) when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Request spans kept in memory per run; later ones are counted as dropped.
const MAX_REQUEST_SPANS: usize = 1_000_000;
/// Request spans written to the trace file: every layer span is written,
/// requests up to this many, so a file stays tens of megabytes at most.
const MAX_WRITTEN_REQUEST_SPANS: usize = 150_000;

/// Trace lanes: served requests, and in-process layer calls.
pub const LANE_REQUESTS: u32 = 1;
pub const LANE_LAYERS: u32 = 2;

/// One timed interval. Spans of one request share its `id`; a child
/// names its parent span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Empty for a root span.
    pub parent: &'static str,
    pub id: u64,
    pub lane: u32,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans are recorded only while enabled.
    pub enabled: bool,
    spans: Vec<Span>,
    /// Request spans in `spans`.
    requests: usize,
    dropped: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled: false,
            spans: Vec::new(),
            requests: 0,
            dropped: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Keeps `span` while enabled. Layer spans are few and always kept;
    /// request spans past [`MAX_REQUEST_SPANS`] are only counted.
    pub fn record(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        if span.lane != LANE_REQUESTS {
            self.spans.push(span);
        } else if self.requests < MAX_REQUEST_SPANS {
            self.requests += 1;
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// The Chrome trace-event JSON of every layer span and of the first
    /// [`MAX_WRITTEN_REQUEST_SPANS`] request spans, with how many spans
    /// it holds.
    pub fn to_chrome_json(&self) -> (String, usize) {
        let mut requests = 0;
        let written: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| {
                requests += (s.lane == LANE_REQUESTS) as usize;
                s.lane != LANE_REQUESTS || requests <= MAX_WRITTEN_REQUEST_SPANS
            })
            .collect();
        let mut out = String::with_capacity(written.len() * 140 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in written.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
                s.name,
                if s.lane == LANE_REQUESTS { "request" } else { "layer" },
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.lane,
                s.id,
                s.parent,
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"recorded_spans\":\"{}\",\"dropped_spans\":\"{}\"}}}}",
            self.spans.len(),
            self.dropped
        );
        (out, written.len())
    }

    /// Spans recorded plus spans dropped past the in-memory cap.
    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Writes the trace to `path`, reads it back, and checks that it
    /// parses and holds every span written. Returns that span count.
    pub fn write_chrome(&self, path: &Path) -> Result<usize, String> {
        let (json, written) = self.to_chrome_json();
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
        let parsed = parse_chrome(&text)?;
        if parsed != written {
            return Err(format!(
                "{} holds {parsed} events, expected {written}",
                path.display()
            ));
        }
        Ok(parsed)
    }
}

/// Checks that `text` is one well-formed JSON object and returns the
/// length of its `traceEvents` array. A linear single-pass check: traces
/// run to megabytes, which a general-purpose value parser need not handle
/// quickly.
pub fn parse_chrome(text: &str) -> Result<usize, String> {
    let mut p = JsonCheck {
        b: text.as_bytes(),
        pos: 0,
    };
    p.expect(b'{')?;
    let mut events = None;
    if !p.close(b'}')? {
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            let count = p.value()?;
            if key == "traceEvents" {
                events = Some(count);
            }
            if p.close(b'}')? {
                break;
            }
            p.expect(b',')?;
        }
    }
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    events.ok_or_else(|| "no traceEvents array".to_string())
}

struct JsonCheck<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> JsonCheck<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("trace does not parse: expected {what} at byte {}", self.pos)
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("'{}'", c as char)))
        }
    }

    /// Consumes `c` if it comes next.
    fn close(&mut self, c: u8) -> Result<bool, String> {
        self.skip_ws();
        let hit = self.b.get(self.pos) == Some(&c);
        self.pos += hit as usize;
        Ok(hit)
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.b.get(self.pos) {
                Some(b'"') => break,
                Some(b'\\') => self.pos += 2,
                Some(_) => self.pos += 1,
                None => return Err(self.err("a closing quote")),
            }
        }
        self.pos += 1;
        std::str::from_utf8(&self.b[start..self.pos - 1]).map_err(|_| self.err("UTF-8"))
    }

    /// Consumes one value; returns its element count when it is an array.
    fn value(&mut self) -> Result<usize, String> {
        self.skip_ws();
        match self.b.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                if !self.close(b'}')? {
                    loop {
                        self.string()?;
                        self.expect(b':')?;
                        self.value()?;
                        if self.close(b'}')? {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(0)
            }
            Some(b'[') => {
                self.pos += 1;
                let mut count = 0;
                if !self.close(b']')? {
                    loop {
                        self.value()?;
                        count += 1;
                        if self.close(b']')? {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(count)
            }
            Some(b'"') => self.string().map(|_| 0),
            Some(b't' | b'f' | b'n') => {
                let rest = &self.b[self.pos..];
                let lit = [&b"true"[..], b"false", b"null"]
                    .into_iter()
                    .find(|l| rest.starts_with(l))
                    .ok_or_else(|| self.err("a literal"))?;
                self.pos += lit.len();
                Ok(0)
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.b.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.b[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(|_| 0)
                    .ok_or_else(|| self.err("a number"))
            }
            _ => Err(self.err("a value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_round_trips_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let span = Span {
            name: "request",
            parent: "",
            id: 7,
            lane: LANE_REQUESTS,
            start_ns: 1500,
            dur_ns: 2500,
        };
        t.record(span);
        assert_eq!(parse_chrome(&t.to_chrome_json().0).unwrap(), 0);
        t.enabled = true;
        t.record(span);
        t.record(Span {
            name: "client.verify",
            parent: "request",
            ..span
        });
        assert_eq!(parse_chrome(&t.to_chrome_json().0).unwrap(), 2);
        assert!(parse_chrome("{\"traceEvents\":[").is_err());
        assert!(parse_chrome("{\"traceEvents\":[{\"a\":1.5e3,\"b\":[true,null]}]} x").is_err());
        assert!(parse_chrome("{\"other\":[]}").is_err());
        assert_eq!(
            parse_chrome(" {\"x\":\"a\\\"b\",\"traceEvents\":[{},{\"k\":-1}]} ").unwrap(),
            2
        );
    }
}
