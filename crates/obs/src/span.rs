//! RAII timing spans.

use std::time::Instant;

use crate::recorder;

/// Times a region of code and records the elapsed seconds into the
/// global histogram named at construction when dropped.
///
/// When metrics are disabled at construction time the span is inert: no
/// clock read, no work on drop.
#[must_use = "a span records its duration when dropped; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Starts a span that will record into histogram `name`.
    pub fn new(name: &'static str) -> Self {
        let start = recorder::metrics_enabled().then(Instant::now);
        Span { name, start }
    }

    /// Elapsed seconds so far, or `None` for an inert span.
    #[cfg(test)]
    pub(crate) fn elapsed_secs(&self) -> Option<f64> {
        self.start.map(|s| s.elapsed().as_secs_f64())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            recorder::record(self.name, start.elapsed().as_secs_f64());
        }
    }
}

/// Starts a [`Span`] recording into histogram `name`.
pub fn span(name: &'static str) -> Span {
    Span::new(name)
}
