//! Spans recorded by the benchmark itself, around its calls into each
//! layer. Held in memory, written out once at the end of a traced run.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`; spans of one op
//! share the op number. A span's self time is its duration minus the
//! part its children cover. With the tracer switched off, [`Tracer::span`]
//! only runs the closure, which is how the untraced layer pass and the
//! traced replay share their stage functions.

use serde::{Serialize, Value};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified stage name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Start the next op: spans opened from now on carry its number.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in whichever span is
    /// open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a span whose duration was measured elsewhere (the engine
    /// time a daemon reports for a submit): it is placed at the end of
    /// the innermost open span, clamped to that span's start.
    pub fn reported(&mut self, name: &'static str, seconds: f64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let floor = self.open.last().map_or(0, |&p| self.spans[p].start_ns);
        let start_ns = end_ns.saturating_sub((seconds * 1e9) as u64).max(floor);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, seconds: duration minus the children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.seconds();
        }
    }
    own
}

/// Self times of the spans named `name`, one per occurrence.
pub fn self_times_of(spans: &[Span], name: &str) -> Vec<f64> {
    self_times(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t)
        .collect()
}

/// The trace file: one object per span, in start order of recording.
pub fn to_value(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name", s.name.to_value()),
                    ("start_ns", s.start_ns.to_value()),
                    ("end_ns", s.end_ns.to_value()),
                    (
                        "parent",
                        match s.parent {
                            Some(p) => p.to_value(),
                            None => Value::Null,
                        },
                    ),
                    ("op", s.op.to_value()),
                ])
            })
            .collect(),
    )
}

/// Structural check used by the smoke test and at write time: every
/// child lies inside its parent, belongs to the same op, and no span
/// has negative self time.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (ix, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {ix} ({}) ends before it starts", span.name));
        }
        if let Some(p) = span.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < ix)
                .ok_or_else(|| format!("span {ix} ({}) has no earlier parent", span.name))?;
            if span.start_ns < parent.start_ns
                || span.end_ns > parent.end_ns
                || span.op != parent.op
            {
                return Err(format!(
                    "span {ix} ({}) is not nested in its parent {}",
                    span.name, parent.name
                ));
            }
        }
    }
    match self_times(spans).iter().position(|&t| t < 0.0) {
        Some(ix) => Err(format!(
            "span {ix} ({}) has negative self time",
            spans[ix].name
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::on();
        t.next_op();
        t.span("op", |t| {
            t.span("a", |t| {
                t.span("a.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        t.next_op();
        t.span("op", |t| t.reported("engine", 3600.0));
        let spans = t.spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["op", "a", "a.inner", "b", "op", "engine"]
        );
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!((spans[0].op, spans[4].op, spans[5].op), (1, 2, 2));
        validate(spans).unwrap();
        // a reported span is clamped into its parent
        assert_eq!(spans[5].start_ns, spans[4].start_ns);
        let own = self_times(spans);
        assert!(own[1] < spans[1].seconds());
        assert!(
            (own[0] - (spans[0].seconds() - spans[1].seconds() - spans[3].seconds())).abs() < 1e-9
        );
        assert_eq!(self_times_of(spans, "op").len(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        t.reported("z", 1.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn validate_rejects_escaping_children() {
        let span = |start_ns, end_ns, parent| Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 1,
        };
        assert!(validate(&[span(0, 10, None), span(2, 8, Some(0))]).is_ok());
        assert!(validate(&[span(0, 10, None), span(2, 12, Some(0))]).is_err());
        assert!(validate(&[span(0, 10, None), span(2, 8, Some(1))]).is_err());
        // two children covering more than the parent: negative self time
        assert!(validate(&[span(0, 10, None), span(0, 8, Some(0)), span(1, 9, Some(0))]).is_err());
    }
}
