//! Ordered request queues shared by the serving loops.
//!
//! Every event loop keeps two backlogs that it repeatedly asks "which
//! request is next?": the GPU's pool of ready requests (earliest
//! `ready_s` first) and, in the policy loop, the central MSA queue
//! (lowest discipline key first). Answering with a full sort or a
//! min-scan per event made each loop O(n²) once a backlog grew with the
//! stream. Both queues here are ordered sets, so push, pop and removal
//! are O(log n) and the order is exactly the one the scans produced:
//! `f64::total_cmp` on the key, then the request id.

use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A finite `f64` ordered by [`f64::total_cmp`]. On the finite,
/// non-negative times and costs the loops use, this is the IEEE order.
#[derive(Debug, Clone, Copy)]
struct TotalF64(f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &TotalF64) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for TotalF64 {}
impl Ord for TotalF64 {
    fn cmp(&self, other: &TotalF64) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &TotalF64) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One GPU-ready request: when its features became ready and its id
/// (stream position, which is also its outcome index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyEntry {
    /// Simulated second the request's features became GPU-ready.
    pub ready_s: f64,
    /// The request id.
    pub request: usize,
}

/// The GPU's pool of ready-but-unserved requests, ordered by
/// `(ready_s, request id)`. The key is captured at push: the loops
/// only ever move a request's `ready_s` (retimed MSA jobs, delayed
/// fills) before its readiness event pops and pushes it here.
#[derive(Debug, Clone, Default)]
pub struct ReadyPool {
    set: BTreeSet<(TotalF64, usize)>,
}

impl ReadyPool {
    /// An empty pool.
    pub fn new() -> ReadyPool {
        ReadyPool::default()
    }

    /// Add a request that became ready at `ready_s`.
    pub fn push(&mut self, ready_s: f64, request: usize) {
        let fresh = self.set.insert((TotalF64(ready_s), request));
        debug_assert!(fresh, "request {request} is already in the ready pool");
    }

    /// Ready requests waiting.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The earliest `ready_s` in the pool.
    pub fn earliest_ready(&self) -> Option<f64> {
        self.set.first().map(|&(TotalF64(t), _)| t)
    }

    /// The greedy batch rule: take the earliest entry, then keep taking
    /// while the next one was ready by `start` and the batch holds
    /// fewer than `max` requests. Returns the ids in pool order.
    pub fn take_batch(&mut self, start: f64, max: usize) -> Vec<usize> {
        let mut batch = Vec::new();
        while let Some(&(TotalF64(t), request)) = self.set.first() {
            if !batch.is_empty() && (batch.len() >= max || t > start) {
                break;
            }
            self.set.pop_first();
            batch.push(request);
        }
        batch
    }

    /// The eligible window at batch start `start`, in pool order: every
    /// entry ready by `start`, and always the earliest entry.
    pub fn window(&self, start: f64) -> impl Iterator<Item = ReadyEntry> + '_ {
        self.set
            .iter()
            .enumerate()
            .take_while(move |&(k, &(TotalF64(t), _))| k == 0 || t <= start)
            .map(|(_, &(TotalF64(ready_s), request))| ReadyEntry { ready_s, request })
    }

    /// Remove one entry returned by [`ReadyPool::window`].
    pub fn remove(&mut self, entry: ReadyEntry) -> bool {
        self.set.remove(&(TotalF64(entry.ready_s), entry.request))
    }
}

/// A priority queue of requests keyed `(key, request id)`, lowest
/// first, with removal by request. The key is fixed when the request is
/// pushed; a request is in the queue at most once.
#[derive(Debug, Clone, Default)]
pub struct KeyedQueue {
    set: BTreeSet<(TotalF64, usize)>,
    /// Each queued request's key, indexed by request id.
    keys: Vec<Option<TotalF64>>,
}

impl KeyedQueue {
    /// An empty queue for request ids below `n`.
    pub fn new(n: usize) -> KeyedQueue {
        KeyedQueue {
            set: BTreeSet::new(),
            keys: vec![None; n],
        }
    }

    /// Enqueue `request` under priority `key` (lower pops first).
    pub fn push(&mut self, key: f64, request: usize) {
        let slot = &mut self.keys[request];
        assert!(slot.is_none(), "request {request} is already queued");
        *slot = Some(TotalF64(key));
        self.set.insert((TotalF64(key), request));
    }

    /// Dequeue the request with the lowest `(key, id)`.
    pub fn pop(&mut self) -> Option<usize> {
        let (_, request) = self.set.pop_first()?;
        self.keys[request] = None;
        Some(request)
    }

    /// Remove `request` if it is queued; returns whether it was.
    pub fn remove(&mut self, request: usize) -> bool {
        match self.keys.get_mut(request).and_then(Option::take) {
            Some(key) => self.set.remove(&(key, request)),
            None => false,
        }
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_takes_earliest_then_ready_by_start_up_to_max() {
        let mut p = ReadyPool::new();
        for (t, r) in [(5.0, 3), (1.0, 7), (5.0, 1), (9.0, 0)] {
            p.push(t, r);
        }
        assert_eq!(p.earliest_ready(), Some(1.0));
        assert_eq!(p.take_batch(5.0, 2), vec![7, 1]);
        assert_eq!(p.take_batch(5.0, 8), vec![3]);
        // The earliest entry goes even when it is not ready by start.
        assert_eq!(p.take_batch(0.0, 8), vec![0]);
        assert!(p.is_empty());
    }

    #[test]
    fn window_is_ordered_and_removable() {
        let mut p = ReadyPool::new();
        for (t, r) in [(2.0, 4), (2.0, 2), (3.0, 1), (8.0, 0)] {
            p.push(t, r);
        }
        let w: Vec<ReadyEntry> = p.window(3.0).collect();
        assert_eq!(
            w.iter().map(|e| e.request).collect::<Vec<_>>(),
            vec![2, 4, 1]
        );
        assert!(p.remove(w[1]));
        assert!(!p.remove(w[1]));
        assert_eq!(p.take_batch(3.0, 8), vec![2, 1]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn keyed_queue_pops_lowest_key_then_id_and_removes() {
        let mut q = KeyedQueue::new(6);
        q.push(3.0, 5);
        q.push(1.0, 4);
        q.push(1.0, 2);
        q.push(0.5, 3);
        assert!(q.remove(3));
        assert!(!q.remove(3));
        assert!(!q.remove(99));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(2));
        q.push(0.0, 2); // re-pushed under a new key
        assert_eq!(
            (q.pop(), q.pop(), q.pop(), q.pop()),
            (Some(2), Some(4), Some(5), None)
        );
    }
}
