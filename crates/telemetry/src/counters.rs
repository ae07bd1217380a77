//! Wall-clock spans.

use std::time::Instant;

/// A wall-clock span timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Milliseconds elapsed since the start.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Seconds elapsed since the start, fractional.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// A throughput estimate: `count` per elapsed second (0 when no
    /// measurable time has passed yet).
    pub fn rate(&self, count: u64) -> f64 {
        let seconds = self.elapsed_secs();
        if seconds > 0.0 {
            count as f64 / seconds
        } else {
            0.0
        }
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let watch = Stopwatch::start();
        let first = watch.elapsed_secs();
        let second = watch.elapsed_secs();
        assert!(second >= first);
        assert!(watch.rate(0) >= 0.0);
    }
}
