//! In-memory spans for the traced pass: one per call into a layer's
//! public entry point, kept in a vector and written out once at the end
//! of the run.

use std::io::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The layer entry point called, e.g. `serve.step_slot`.
    pub name: &'static str,
    /// The slot (or call) number within its round.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// The span store of one traced pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }
}

impl Recorder {
    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished call and returns its index, for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded, in the order they were pushed.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV (`index,name,id,parent,start_ns,end_ns`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,id,parent,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{},{},{parent},{},{}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_order_parent_and_offsets() {
        let mut r = Recorder::default();
        let t0 = r.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let round = r.push("round", 0, None, at(0), at(10));
        let slot = r.push("slot", 7, Some(round), at(1), at(4));
        let s = r.spans()[slot];
        assert_eq!((s.name, s.id, s.parent), ("slot", 7, Some(round)));
        assert_eq!((s.start_ns, s.end_ns), (1_000_000, 4_000_000));
        let path = std::env::temp_dir().join(format!("repobench-trace-{}.csv", std::process::id()));
        r.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().nth(2), Some("1,slot,7,0,1000000,4000000"));
    }
}
