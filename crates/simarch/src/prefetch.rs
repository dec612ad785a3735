//! Hardware stream prefetcher model.
//!
//! A table of recently observed access streams is kept per hardware thread.
//! When consecutive accesses fall on sequential (or constant-stride) lines,
//! the stream's confidence rises and the prefetcher issues fills for the
//! next `degree` lines ahead. Regular scans — like the repetitive poly-Q
//! candidate rescans in the paper's `promo` workload — are therefore served
//! largely from prefetched lines, while pointer-ish random traffic defeats
//! the table (paper §V-B2a: "regular access patterns ... align well with
//! hardware prefetchers").

/// One tracked stream.
#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    /// Last line address observed for this stream.
    last_line: u64,
    /// Detected stride in lines (signed).
    stride: i64,
    /// Saturating confidence 0..=3; >=2 triggers prefetch.
    confidence: u8,
    /// Recency stamp for replacement.
    stamp: u64,
    valid: bool,
}

/// A stream prefetcher covering one hardware thread.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    entries: Vec<StreamEntry>,
    degree: usize,
    line: u64,
    clock: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Create a prefetcher with `streams` tracked streams issuing `degree`
    /// lines ahead on confident streams.
    ///
    /// # Panics
    ///
    /// Panics if `streams == 0` or `line` is not a power of two.
    pub fn new(streams: usize, degree: usize, line: usize) -> StreamPrefetcher {
        assert!(streams > 0, "need at least one stream entry");
        assert!(line.is_power_of_two(), "line size must be a power of two");
        StreamPrefetcher {
            entries: vec![
                StreamEntry {
                    last_line: 0,
                    stride: 0,
                    confidence: 0,
                    stamp: 0,
                    valid: false,
                };
                streams
            ],
            degree,
            line: line as u64,
            clock: 0,
            issued: 0,
        }
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observe a demand access and return line addresses to prefetch.
    ///
    /// The returned addresses are line-aligned byte addresses, yielded
    /// without allocating.
    pub fn observe(&mut self, addr: u64) -> impl ExactSizeIterator<Item = u64> {
        self.clock += 1;
        let line_addr = addr / self.line;

        // Find a stream whose extrapolation matches this access.
        let mut best: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if !e.valid {
                continue;
            }
            let delta = line_addr as i64 - e.last_line as i64;
            // Accept continuations with the learned stride, or nearby
            // forward progress while still training.
            if (e.stride != 0 && delta == e.stride)
                || (e.stride == 0 && delta.abs() <= 4 && delta != 0)
            {
                best = Some(i);
                break;
            }
        }

        let (stride, ahead) = match best {
            Some(i) => {
                let e = &mut self.entries[i];
                let delta = line_addr as i64 - e.last_line as i64;
                if e.stride == delta {
                    e.confidence = (e.confidence + 1).min(3);
                } else {
                    e.stride = delta;
                    e.confidence = 1;
                }
                e.last_line = line_addr;
                e.stamp = self.clock;
                if e.confidence >= 2 {
                    self.issued += self.degree as u64;
                    (e.stride, self.degree)
                } else {
                    (0, 0)
                }
            }
            None => {
                // Allocate a new stream over the LRU slot.
                let slot = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| if e.valid { e.stamp } else { 0 })
                    .map(|(i, _)| i)
                    .expect("prefetcher has entries");
                self.entries[slot] = StreamEntry {
                    last_line: line_addr,
                    stride: 0,
                    confidence: 0,
                    stamp: self.clock,
                    valid: true,
                };
                (0, 0)
            }
        };
        let line = self.line;
        (1..ahead + 1).map(move |k| ((line_addr as i64 + stride * k as i64).max(0) as u64) * line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_trains_and_issues() {
        let mut p = StreamPrefetcher::new(8, 2, 64);
        let mut issued = Vec::new();
        for i in 0..8u64 {
            issued.extend(p.observe(i * 64));
        }
        assert!(!issued.is_empty(), "sequential stream must trigger");
        // The third access confirms the stride: lines 3 and 4 are issued.
        let mut q = StreamPrefetcher::new(8, 2, 64);
        assert_eq!(q.observe(0).len(), 0);
        assert_eq!(q.observe(64).len(), 0);
        assert_eq!(q.observe(128).collect::<Vec<_>>(), [192, 256]);
        // Prefetches run ahead of the demand stream.
        assert!(issued.iter().all(|a| a % 64 == 0));
        assert!(p.issued() > 0);
    }

    #[test]
    fn strided_stream_detected() {
        let mut p = StreamPrefetcher::new(8, 1, 64);
        let mut hits = 0;
        for i in 0..10u64 {
            // Stride of 2 lines.
            if let Some(first) = p.observe(i * 128).next() {
                hits += 1;
                assert_eq!(first % 64, 0);
            }
        }
        assert!(hits >= 5, "stride-2 stream should train quickly");
    }

    #[test]
    fn random_traffic_stays_quiet() {
        let mut p = StreamPrefetcher::new(8, 2, 64);
        // Large pseudo-random jumps never form a stream.
        let mut addr = 1u64;
        let mut total = 0;
        for _ in 0..200 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            total += p.observe(addr % (1 << 30)).len();
        }
        assert!(
            total < 20,
            "random traffic should rarely trigger, got {total}"
        );
    }

    #[test]
    fn multiple_interleaved_streams() {
        let mut p = StreamPrefetcher::new(8, 1, 64);
        let mut issued = 0;
        for i in 0..16u64 {
            issued += p.observe(i * 64).len(); // stream A
            issued += p.observe((1 << 20) + i * 64).len(); // stream B
        }
        assert!(issued >= 16, "both streams should train, got {issued}");
    }
}
