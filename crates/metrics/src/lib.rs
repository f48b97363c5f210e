//! Operator-level work metrics: zero-overhead-when-disabled counters for
//! every kernel family in the reproduction.
//!
//! The paper's performance arguments (§4–§9) are claims about *work
//! counts* — lanes active per vector, hash probes per key, cuckoo
//! displacements, conflict-serialization retries, buffer flushes — but
//! wall-clock timing alone cannot explain why a variant wins, nor catch a
//! kernel that silently does twice the work. This crate gives each
//! operator crate a common place to report those counts:
//!
//! * [`Metric`] — the flat counter namespace (plus a few histograms that
//!   live directly on [`Counters`]),
//! * [`record_phase`] — wall time per named operator phase (histogram,
//!   shuffle, build, probe, ...), kept per worker in [`Counters::phases`],
//! * [`CountingSink`] — one [`Counters`] slot per worker, the one record
//!   of what each worker of a metered run did,
//! * [`collect`] — run a closure with metering enabled and harvest the
//!   counters its call tree recorded; [`unmetered`] runs one with
//!   metering off inside a session.
//!
//! # Sessions follow the call tree
//!
//! A session is a value, not process state: [`collect`] makes a sink and
//! installs a [`Session`] handle to it on the calling thread, and the
//! scheduler in `rsv-exec` carries that handle into every worker it
//! spawns. Sessions on different threads therefore never share a sink or
//! wait for each other, and a nested `collect` only saves and restores
//! the calling thread's handle.
//!
//! # Zero overhead when disabled
//!
//! Recording is gated per *thread*. Kernels hoist one [`enabled`] check
//! out of their hot loops and accumulate into stack locals, flushing once
//! per call; with metering off the cost is one thread-local read per
//! kernel invocation plus a well-predicted branch per loop. With the
//! `noop` cargo feature, [`enabled`] is a constant `false`, so the
//! compiler removes every recording body and metered path — CI's
//! benchmark-parity check runs both builds.
//!
//! # Determinism classes
//!
//! Counters are classified ([`Metric::class`]) by how reproducible they
//! are, which is what turns them into cross-backend test oracles:
//!
//! * [`MetricClass::Work`] — pure per-tuple work sums (tuples scanned,
//!   hash-chain slots inspected, blocks decoded…). Byte-identical across
//!   SIMD backends *of any lane width* for the same kernel, input and
//!   thread count.
//! * [`MetricClass::WidthDependent`] — deterministic for a fixed lane
//!   width and thread count, but legitimately different between 8- and
//!   16-lane backends (lanes-active histograms, conflict serializations,
//!   staging-buffer flushes, linear-probe and double-hashing slot
//!   inspections).
//! * [`MetricClass::Unstable`] — timing- or schedule-dependent (steals,
//!   the named phase times); never compared, and never part of
//!   [`Counters::work_bytes`] or [`Counters::deterministic_bytes`].

#![deny(missing_docs)]
#![warn(clippy::all)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Lanes-active histogram buckets (`0..=32` active lanes per vector).
pub const LANE_BUCKETS: usize = 33;

/// Scan-variant slots for the lanes-active histograms, indexed by the
/// variant's position in `rsv_scan::ScanVariant::ALL`.
pub const SCAN_VARIANTS: usize = 6;

/// Column-width histogram buckets (packed widths `0..=32` bits).
pub const WIDTH_BUCKETS: usize = 33;

/// Log₂-nanosecond buckets of a phase's latency histogram.
pub const PHASE_BUCKETS: usize = 40;

/// One named work counter. The discriminant is the index into
/// [`Counters::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Tuples fed into a selection scan.
    ScanTuplesIn,
    /// Tuples a selection scan emitted (qualifiers).
    ScanTuplesOut,
    /// Keys probed against a linear-probing table.
    LpKeysProbed,
    /// Linear-probe slot inspections (≥ keys probed; the excess is the
    /// chain-walk cost the paper's Figure 7 is about). Width-dependent: on
    /// a duplicate-free table a probe stops at its key's bucket, and where
    /// the vertical build puts colliding keys depends on the lane count.
    /// A concurrent shared build (the no-partition join) also places them
    /// in the workers' claim order.
    LpProbes,
    /// Keys probed against a double-hashing table.
    DhKeysProbed,
    /// Double-hashing slot inspections. Width-dependent like `LpProbes`:
    /// where the vertical build puts colliding keys depends on the lane
    /// count, and so do the probes' slot inspections.
    DhProbes,
    /// Keys inserted into linear-probing tables.
    LpKeysBuilt,
    /// Lanes that lost the scatter-conflict race in the vertical build
    /// and had to retry (paper §5: "conflicts during building").
    LpBuildConflictRetries,
    /// Keys inserted into cuckoo tables.
    CuckooKeysBuilt,
    /// Cuckoo displacement-loop iterations (kicks) over all inserts.
    CuckooDisplacements,
    /// Keys probed against a Bloom filter.
    BloomKeysProbed,
    /// Bloom filter words fetched (early abort makes this ≪ k per key).
    BloomWordsTouched,
    /// Tuples histogrammed by a partitioning pass.
    PartHistTuples,
    /// Tuples shuffled by a partitioning pass.
    PartShuffleTuples,
    /// Lanes serialized by the scatter-conflict detection (Algorithms
    /// 12/13): lanes whose partition collided inside one vector.
    PartConflictsSerialized,
    /// Full staging-buffer lines flushed with streaming stores.
    PartBufferFlushes,
    /// Bytes written through streaming (non-temporal) stores.
    PartStreamingStoreBytes,
    /// Tuples that left a buffered shuffle through a full-line flush.
    PartTuplesFlushed,
    /// Tuples that left a buffered shuffle through the cleanup pass
    /// (per-partition residues that never filled a line).
    PartTuplesResidual,
    /// Compressed blocks decoded (per-width breakdown in
    /// [`Counters::col_width_blocks`]).
    ColBlocksDecoded,
    /// Radixsort partitioning passes executed.
    SortPasses,
    /// Bytes a radixsort moved between its ping/pong columns.
    SortBytesMoved,
    /// Build-side tuples fed into a hash join.
    JoinBuildTuples,
    /// Probe-side tuples fed into a hash join.
    JoinProbeTuples,
    /// Sum of partitioning-pass fanouts a join executed.
    JoinPartitionFanout,
    /// Morsels claimed from work-stealing queues.
    MorselsClaimed,
    /// Morsels claimed from *another* worker's span.
    MorselsStolen,
    /// Hash-table builds that degraded from cuckoo to linear probing after
    /// exhausting the rehash budget.
    FallbackBuilds,
    /// Sum of the part counts of the group-bys that took the partitioned
    /// route (zero for a single-table group-by).
    AggPartitionFanout,
}

/// Reproducibility class of a counter (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Byte-identical across backends of any lane width (fixed kernel,
    /// input and thread count).
    Work,
    /// Deterministic for a fixed lane width and thread count.
    WidthDependent,
    /// Timing- or schedule-dependent; never compared.
    Unstable,
}

impl Metric {
    /// Number of flat counters.
    pub const COUNT: usize = Metric::AggPartitionFanout as usize + 1;

    /// Every counter, in index order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::ScanTuplesIn,
        Metric::ScanTuplesOut,
        Metric::LpKeysProbed,
        Metric::LpProbes,
        Metric::DhKeysProbed,
        Metric::DhProbes,
        Metric::LpKeysBuilt,
        Metric::LpBuildConflictRetries,
        Metric::CuckooKeysBuilt,
        Metric::CuckooDisplacements,
        Metric::BloomKeysProbed,
        Metric::BloomWordsTouched,
        Metric::PartHistTuples,
        Metric::PartShuffleTuples,
        Metric::PartConflictsSerialized,
        Metric::PartBufferFlushes,
        Metric::PartStreamingStoreBytes,
        Metric::PartTuplesFlushed,
        Metric::PartTuplesResidual,
        Metric::ColBlocksDecoded,
        Metric::SortPasses,
        Metric::SortBytesMoved,
        Metric::JoinBuildTuples,
        Metric::JoinProbeTuples,
        Metric::JoinPartitionFanout,
        Metric::MorselsClaimed,
        Metric::MorselsStolen,
        Metric::FallbackBuilds,
        Metric::AggPartitionFanout,
    ];

    /// Snake-case label used in JSON snapshots.
    pub fn label(self) -> &'static str {
        match self {
            Metric::ScanTuplesIn => "scan_tuples_in",
            Metric::ScanTuplesOut => "scan_tuples_out",
            Metric::LpKeysProbed => "lp_keys_probed",
            Metric::LpProbes => "lp_probes",
            Metric::DhKeysProbed => "dh_keys_probed",
            Metric::DhProbes => "dh_probes",
            Metric::LpKeysBuilt => "lp_keys_built",
            Metric::LpBuildConflictRetries => "lp_build_conflict_retries",
            Metric::CuckooKeysBuilt => "cuckoo_keys_built",
            Metric::CuckooDisplacements => "cuckoo_displacements",
            Metric::BloomKeysProbed => "bloom_keys_probed",
            Metric::BloomWordsTouched => "bloom_words_touched",
            Metric::PartHistTuples => "part_hist_tuples",
            Metric::PartShuffleTuples => "part_shuffle_tuples",
            Metric::PartConflictsSerialized => "part_conflicts_serialized",
            Metric::PartBufferFlushes => "part_buffer_flushes",
            Metric::PartStreamingStoreBytes => "part_streaming_store_bytes",
            Metric::PartTuplesFlushed => "part_tuples_flushed",
            Metric::PartTuplesResidual => "part_tuples_residual",
            Metric::ColBlocksDecoded => "col_blocks_decoded",
            Metric::SortPasses => "sort_passes",
            Metric::SortBytesMoved => "sort_bytes_moved",
            Metric::JoinBuildTuples => "join_build_tuples",
            Metric::JoinProbeTuples => "join_probe_tuples",
            Metric::JoinPartitionFanout => "join_partition_fanout",
            Metric::MorselsClaimed => "morsels_claimed",
            Metric::MorselsStolen => "morsels_stolen",
            Metric::FallbackBuilds => "fallback_builds",
            Metric::AggPartitionFanout => "agg_partition_fanout",
        }
    }

    /// The counter's reproducibility class.
    pub fn class(self) -> MetricClass {
        use Metric::*;
        match self {
            ScanTuplesIn | ScanTuplesOut | LpKeysProbed | DhKeysProbed | LpKeysBuilt
            | CuckooKeysBuilt | BloomKeysProbed | BloomWordsTouched | PartHistTuples
            | PartShuffleTuples | ColBlocksDecoded | SortPasses | SortBytesMoved
            | JoinBuildTuples | JoinProbeTuples | JoinPartitionFanout | AggPartitionFanout => {
                MetricClass::Work
            }
            LpProbes
            | DhProbes
            | LpBuildConflictRetries
            | CuckooDisplacements
            | PartConflictsSerialized
            | PartBufferFlushes
            | PartStreamingStoreBytes
            | PartTuplesFlushed
            | PartTuplesResidual
            | MorselsClaimed
            | FallbackBuilds => MetricClass::WidthDependent,
            MorselsStolen => MetricClass::Unstable,
        }
    }
}

/// The time one worker spent in one named phase (class
/// [`MetricClass::Unstable`]: never compared, only reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTime {
    /// Total wall-clock nanoseconds over every call.
    pub ns: u64,
    /// Per-call latencies in log₂-nanosecond buckets; they sum to the
    /// number of calls.
    pub log2: [u64; PHASE_BUCKETS],
}

impl PhaseTime {
    /// No calls.
    pub const ZERO: PhaseTime = PhaseTime {
        ns: 0,
        log2: [0; PHASE_BUCKETS],
    };

    /// Number of recorded calls.
    pub fn calls(&self) -> u64 {
        self.log2.iter().sum()
    }

    fn add(&mut self, other: &PhaseTime) {
        self.ns += other.ns;
        for (a, b) in self.log2.iter_mut().zip(&other.log2) {
            *a += b;
        }
    }
}

/// One thread's worth of counters: the flat [`Metric`] counts plus the
/// histograms that need more than a single cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Flat counters, indexed by `Metric as usize`.
    pub counts: [u64; Metric::COUNT],
    /// Lanes-active histogram per scan variant: `scan_lanes[v][a]` counts
    /// vectors of variant `v` (index in `ScanVariant::ALL`) that had `a`
    /// predicate-passing lanes.
    pub scan_lanes: [[u64; LANE_BUCKETS]; SCAN_VARIANTS],
    /// Compressed blocks decoded per packed bit width.
    pub col_width_blocks: [u64; WIDTH_BUCKETS],
    /// Time per named phase, by name (class [`MetricClass::Unstable`]).
    pub phases: BTreeMap<&'static str, PhaseTime>,
}

impl Counters {
    /// All-zero counters.
    pub const fn new() -> Counters {
        Counters {
            counts: [0; Metric::COUNT],
            scan_lanes: [[0; LANE_BUCKETS]; SCAN_VARIANTS],
            col_width_blocks: [0; WIDTH_BUCKETS],
            phases: BTreeMap::new(),
        }
    }

    /// The value of one flat counter.
    pub fn get(&self, m: Metric) -> u64 {
        self.counts[m as usize]
    }

    /// Add `n` to one flat counter.
    pub fn bump(&mut self, m: Metric, n: u64) {
        self.counts[m as usize] += n;
    }

    /// Add one call of `ns` nanoseconds to phase `name`.
    pub fn add_phase(&mut self, name: &'static str, ns: u64) {
        let p = self.phases.entry(name).or_insert(PhaseTime::ZERO);
        p.ns += ns;
        p.log2[(64 - ns.leading_zeros() as usize).min(PHASE_BUCKETS - 1)] += 1;
    }

    /// Element-wise accumulate `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (av, bv) in self.scan_lanes.iter_mut().zip(&other.scan_lanes) {
            for (a, b) in av.iter_mut().zip(bv) {
                *a += b;
            }
        }
        for (a, b) in self
            .col_width_blocks
            .iter_mut()
            .zip(&other.col_width_blocks)
        {
            *a += b;
        }
        for (&name, p) in &other.phases {
            self.phases.entry(name).or_insert(PhaseTime::ZERO).add(p);
        }
    }

    /// Reset every counter to zero.
    pub fn clear(&mut self) {
        *self = Counters::new();
    }

    /// `true` when nothing was recorded.
    pub fn is_zero(&self) -> bool {
        self == &Counters::new()
    }

    /// Canonical little-endian bytes of the [`MetricClass::Work`]
    /// counters in [`Metric::ALL`] order, then the per-width block
    /// histogram (whose buckets are fixed by the canonical 16-lane block
    /// format). Byte-identical across backends of any lane width.
    pub fn work_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for m in Metric::ALL {
            if m.class() == MetricClass::Work {
                out.extend_from_slice(&self.get(m).to_le_bytes());
            }
        }
        for b in self.col_width_blocks {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    /// Canonical bytes of every deterministic counter: the work bytes
    /// plus the width-dependent counters and the lanes-active histograms.
    /// Byte-identical across backends with the *same* lane width.
    pub fn deterministic_bytes(&self) -> Vec<u8> {
        let mut out = self.work_bytes();
        for m in Metric::ALL {
            if m.class() == MetricClass::WidthDependent {
                out.extend_from_slice(&self.get(m).to_le_bytes());
            }
        }
        for v in &self.scan_lanes {
            for b in v {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        out
    }

    /// Compact JSON object in the style of the bench harness rows: flat
    /// counters by label (zero counters omitted), then the non-empty
    /// histograms, then the phases as `"phases":{name:{"ns":…,"log2":[…]}}`.
    pub fn to_json(&self) -> String {
        fn array(h: &[u64]) -> String {
            let last = h.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            let vals: Vec<String> = h[..last].iter().map(u64::to_string).collect();
            format!("[{}]", vals.join(","))
        }
        fn object(fields: impl IntoIterator<Item = (String, String)>) -> String {
            let fields: Vec<String> = fields
                .into_iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        let mut fields: Vec<(String, String)> = Metric::ALL
            .iter()
            .filter(|&&m| self.get(m) != 0)
            .map(|&m| (m.label().to_string(), self.get(m).to_string()))
            .collect();
        let lanes: Vec<(String, String)> = self
            .scan_lanes
            .iter()
            .enumerate()
            .filter(|(_, v)| v.iter().any(|&b| b != 0))
            .map(|(vi, v)| (vi.to_string(), array(v)))
            .collect();
        if !lanes.is_empty() {
            fields.push(("scan_lanes".into(), object(lanes)));
        }
        if self.col_width_blocks.iter().any(|&b| b != 0) {
            fields.push(("col_width_blocks".into(), array(&self.col_width_blocks)));
        }
        if !self.phases.is_empty() {
            let phases = self.phases.iter().map(|(name, p)| {
                let time = format!("{{\"ns\":{},\"log2\":{}}}", p.ns, array(&p.log2));
                (name.to_string(), time)
            });
            fields.push(("phases".into(), object(phases)));
        }
        object(fields)
    }
}

impl Default for Counters {
    fn default() -> Counters {
        Counters::new()
    }
}

/// Per-worker counters: slot `i` accumulates everything worker `i`
/// flushed (its claims, steals, work and phase times), and
/// [`CountingSink::merge`] folds another region's sink in by matching
/// slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// One entry per worker, in thread-id order.
    pub workers: Vec<Counters>,
}

impl CountingSink {
    /// An empty sink.
    pub const fn new() -> CountingSink {
        CountingSink {
            workers: Vec::new(),
        }
    }

    /// Fold another sink into this one, worker by worker (commutative and
    /// associative, with `CountingSink::default()` as identity — see the
    /// property tests).
    pub fn merge(&mut self, other: &CountingSink) {
        if self.workers.len() < other.workers.len() {
            self.workers.resize(other.workers.len(), Counters::new());
        }
        for (into, from) in self.workers.iter_mut().zip(&other.workers) {
            into.add(from);
        }
    }

    /// Every worker's counters summed into one.
    pub fn total(&self) -> Counters {
        let mut t = Counters::new();
        for w in &self.workers {
            t.add(w);
        }
        t
    }

    /// Absorb the counters one worker accumulated into slot `thread_id`
    /// (the worker's index in its parallel scope).
    pub fn absorb(&mut self, thread_id: usize, c: &Counters) {
        if self.workers.len() <= thread_id {
            self.workers.resize(thread_id + 1, Counters::new());
        }
        self.workers[thread_id].add(c);
    }

    /// Drop trailing all-zero worker slots (merging sinks from regions
    /// with different thread counts leaves empty tails).
    pub fn trim(&mut self) {
        while self.workers.last().is_some_and(|w| w.is_zero()) {
            self.workers.pop();
        }
    }
}

// ---------------------------------------------------------------------
// Call-tree-scoped recording machinery.
// ---------------------------------------------------------------------

/// A session's sink, shared by every thread of its call tree.
type SharedSink = Arc<Mutex<CountingSink>>;

thread_local! {
    /// Mirrors `CURRENT.is_some()`, so [`enabled`] is one `Cell` read.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<SharedSink>> = const { RefCell::new(None) };
    static LOCAL: RefCell<Counters> = const { RefCell::new(Counters::new()) };
}

/// Is metering enabled on the current thread? Kernels hoist this out of
/// their hot loops; with the `noop` feature it is a constant `false`.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "noop")]
    {
        false
    }
    #[cfg(not(feature = "noop"))]
    {
        ENABLED.with(|e| e.get())
    }
}

/// Add `n` to a flat counter (no-op when metering is off).
#[inline]
pub fn count(m: Metric, n: u64) {
    if enabled() && n != 0 {
        LOCAL.with(|c| c.borrow_mut().counts[m as usize] += n);
    }
}

/// Accumulate a kernel-local lanes-active histogram for one scan variant
/// (`variant` indexes `ScanVariant::ALL`).
#[inline]
pub fn add_scan_lanes(variant: usize, hist: &[u64; LANE_BUCKETS]) {
    if enabled() {
        LOCAL.with(|c| {
            let mut c = c.borrow_mut();
            for (a, b) in c.scan_lanes[variant].iter_mut().zip(hist) {
                *a += b;
            }
        });
    }
}

/// Count `n` decoded blocks of packed width `width` (also bumps
/// [`Metric::ColBlocksDecoded`]).
#[inline]
pub fn count_blocks_decoded(width: usize, n: u64) {
    if enabled() && n != 0 {
        LOCAL.with(|c| {
            let mut c = c.borrow_mut();
            c.counts[Metric::ColBlocksDecoded as usize] += n;
            c.col_width_blocks[width.min(WIDTH_BUCKETS - 1)] += n;
        });
    }
}

/// Record one call of phase `name` that took `ns` nanoseconds (no-op
/// when metering is off).
#[inline]
pub fn record_phase(name: &'static str, ns: u64) {
    if enabled() {
        LOCAL.with(|c| c.borrow_mut().add_phase(name, ns));
    }
}

/// Flush the current thread's counters into its session as worker
/// `thread_id`, clearing the thread-local accumulator. Called by the
/// scheduler when a worker finishes and by [`collect`] on the calling
/// thread.
pub fn flush_worker(thread_id: usize) {
    if !enabled() {
        return;
    }
    LOCAL.with(|c| {
        let mut c = c.borrow_mut();
        if c.is_zero() {
            return;
        }
        CURRENT.with(|s| {
            if let Some(sink) = &*s.borrow() {
                // A panicking metered thread must not take the session's
                // later flushes down with it.
                let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
                sink.absorb(thread_id, &c);
            }
        });
        c.clear();
    });
}

/// Handle to the metering session a thread flushes into: the sink of the
/// innermost [`collect`] on the call tree, or none when metering is off.
/// Schedulers take [`Session::current`] before they spawn workers and
/// [`Session::enter`] it on each, so metering follows the session's call
/// tree and nothing else.
#[derive(Debug)]
pub struct Session(Option<SharedSink>);

impl Session {
    /// The calling thread's session (none when metering is off).
    pub fn current() -> Session {
        if !enabled() {
            return Session(None);
        }
        Session(CURRENT.with(|s| s.borrow().clone()))
    }

    /// Run `f` with this session installed on the calling thread. The
    /// thread's previous session is restored, and counts `f` left
    /// unflushed are dropped, even when `f` panics.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Reinstalls the saved session on drop.
        struct Restore(Option<SharedSink>);
        impl Drop for Restore {
            fn drop(&mut self) {
                LOCAL.with(|c| c.borrow_mut().clear());
                install(self.0.take());
            }
        }
        let _restore = Restore(install(self.0.clone()));
        f()
    }
}

/// Make `session` the calling thread's session, returning the old one.
fn install(session: Option<SharedSink>) -> Option<SharedSink> {
    ENABLED.with(|e| e.set(session.is_some()));
    CURRENT.with(|s| s.replace(session))
}

/// Run `f` with metering enabled on this thread (and, through the
/// scheduler, on every worker it spawns), returning `f`'s result and the
/// per-worker counters. Each call owns its sink, so sessions on different
/// threads run at once without sharing or serializing anything.
///
/// Sessions nest: a `collect` inside a metered closure first flushes this
/// thread's pending counts into the enclosing session, then runs under its
/// own sink and reinstalls the enclosing one. The inner run's counts
/// appear only in the inner result, not in the outer total.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, CountingSink) {
    flush_worker(0);
    let sink = Arc::new(Mutex::new(CountingSink::new()));
    let r = Session(Some(Arc::clone(&sink))).enter(|| {
        let r = f();
        flush_worker(0);
        r
    });
    let mut sink = std::mem::take(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner));
    sink.trim();
    (r, sink)
}

/// Run `f` with metering off on this thread and on every worker it
/// spawns, then reinstall the enclosing session. For work whose tuples a
/// metered pass has counted already (the filter driver's take pass after
/// its mark pass), so each tuple is metered once.
///
/// Like [`collect`], it first flushes this thread's pending counts into
/// the enclosing session: reinstalling a session drops unflushed counts.
pub fn unmetered<R>(f: impl FnOnce() -> R) -> R {
    flush_worker(0);
    Session(None).enter(f)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn counters_accumulate_and_clear() {
        let mut c = Counters::new();
        c.bump(Metric::ScanTuplesIn, 10);
        c.bump(Metric::ScanTuplesIn, 5);
        c.scan_lanes[2][7] += 3;
        assert_eq!(c.get(Metric::ScanTuplesIn), 15);
        let mut d = Counters::new();
        d.add(&c);
        d.add(&c);
        assert_eq!(d.get(Metric::ScanTuplesIn), 30);
        assert_eq!(d.scan_lanes[2][7], 6);
        d.clear();
        assert!(d.is_zero());
    }

    #[test]
    fn sink_absorbs_by_worker_slot() {
        let mut s = CountingSink::new();
        let mut c = Counters::new();
        c.bump(Metric::LpProbes, 4);
        s.absorb(2, &c);
        s.absorb(0, &c);
        s.absorb(2, &c);
        assert_eq!(s.workers.len(), 3);
        assert_eq!(s.workers[0].get(Metric::LpProbes), 4);
        assert_eq!(s.workers[1].get(Metric::LpProbes), 0);
        assert_eq!(s.workers[2].get(Metric::LpProbes), 8);
        assert_eq!(s.total().get(Metric::LpProbes), 12);
    }

    #[test]
    fn every_metric_has_distinct_label_and_index() {
        let mut seen = std::collections::HashSet::new();
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "discriminant order");
            assert!(seen.insert(m.label()), "duplicate label {}", m.label());
        }
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn collect_harvests_only_session_counts() {
        count(Metric::ScanTuplesIn, 999); // ambient, metering off: dropped
        let ((), sink) = collect(|| {
            count(Metric::ScanTuplesIn, 7);
            count(Metric::ScanTuplesOut, 3);
        });
        assert_eq!(sink.total().get(Metric::ScanTuplesIn), 7);
        assert_eq!(sink.total().get(Metric::ScanTuplesOut), 3);
        assert!(!enabled(), "metering flag restored");
        let ((), sink2) = collect(|| count(Metric::LpProbes, 1));
        assert_eq!(sink2.total().get(Metric::ScanTuplesIn), 0, "no bleed");
    }

    /// A `collect` inside a metered closure (bench harness re-run around
    /// `Engine::profile`) must neither deadlock nor leak its counts into
    /// the outer session's total, and must hand the outer session back.
    #[cfg(not(feature = "noop"))]
    #[test]
    fn nested_sessions_do_not_deadlock_or_leak() {
        let ((), outer) = collect(|| {
            count(Metric::ScanTuplesIn, 5);
            let ((), inner) = collect(|| count(Metric::ScanTuplesIn, 7));
            assert_eq!(inner.total().get(Metric::ScanTuplesIn), 7);
            count(Metric::ScanTuplesIn, 11);
        });
        assert_eq!(outer.total().get(Metric::ScanTuplesIn), 16);
        assert!(!enabled(), "metering flag restored");
    }

    /// `unmetered` keeps the counts made before it, drops the ones made
    /// inside it, and hands the session back for the counts after it.
    #[cfg(not(feature = "noop"))]
    #[test]
    fn unmetered_keeps_counts_around_it_and_drops_its_own() {
        let ((), sink) = collect(|| {
            count(Metric::ScanTuplesIn, 5);
            unmetered(|| {
                assert!(!enabled(), "metering off inside");
                count(Metric::ScanTuplesIn, 100);
                assert!(Session::current().0.is_none(), "no session to hand on");
            });
            assert!(enabled(), "session reinstalled");
            count(Metric::ScanTuplesOut, 3);
        });
        assert_eq!(sink.total().get(Metric::ScanTuplesIn), 5);
        assert_eq!(sink.total().get(Metric::ScanTuplesOut), 3);
        assert!(!enabled(), "metering flag restored");
        // Outside any session, it is a plain call.
        assert_eq!(unmetered(|| 7), 7);
        assert!(!enabled());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn panic_in_session_restores_flag() {
        let r = std::panic::catch_unwind(|| {
            let _ = collect(|| -> () { panic!("boom") });
        });
        assert!(r.is_err());
        assert!(!enabled(), "flag restored after panic");
        let ((), sink) = collect(|| count(Metric::ScanTuplesIn, 1));
        assert_eq!(sink.total().get(Metric::ScanTuplesIn), 1);
    }

    #[test]
    fn json_snapshot_shape() {
        let mut c = Counters::new();
        c.bump(Metric::ScanTuplesIn, 100);
        c.bump(Metric::ScanTuplesOut, 40);
        c.scan_lanes[5][3] = 2;
        let j = c.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"scan_tuples_in\":100"), "{j}");
        assert!(j.contains("\"scan_tuples_out\":40"), "{j}");
        assert!(j.contains("\"scan_lanes\":{\"5\":[0,0,0,2]}"), "{j}");
        assert!(!j.contains("lp_probes"), "zero counters omitted: {j}");
    }

    #[test]
    fn work_bytes_are_dense() {
        let work = Metric::ALL
            .iter()
            .filter(|m| m.class() == MetricClass::Work)
            .count();
        let mut a = Counters::new();
        assert_eq!(a.work_bytes().len(), 8 * (work + WIDTH_BUCKETS));
        a.bump(Metric::AggPartitionFanout, 32);
        assert_eq!(a.work_bytes().len(), 8 * (work + WIDTH_BUCKETS));
    }

    #[test]
    fn json_lists_phases_by_name() {
        let mut c = Counters::new();
        c.add_phase("probe", 3);
        c.add_phase("build", 1000);
        c.add_phase("build", 1);
        let j = c.to_json();
        let want = "{\"phases\":{\"build\":{\"ns\":1001,\"log2\":[0,1,0,0,0,0,0,0,0,0,1]},\
                    \"probe\":{\"ns\":3,\"log2\":[0,0,1]}}}";
        assert_eq!(j, want);
        assert_eq!(c.phases["build"].calls(), 2);
    }

    #[test]
    fn work_bytes_ignore_width_dependent_counters() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        a.bump(Metric::ScanTuplesIn, 10);
        b.bump(Metric::ScanTuplesIn, 10);
        b.bump(Metric::PartBufferFlushes, 5); // width-dependent
        b.scan_lanes[2][8] = 1; // width-dependent
        assert_eq!(a.work_bytes(), b.work_bytes());
        assert_ne!(a.deterministic_bytes(), b.deterministic_bytes());
        // Phase times are unstable: in neither byte string.
        let mut c = a.clone();
        c.add_phase("scan", 10);
        assert_eq!(a.deterministic_bytes(), c.deterministic_bytes());
    }
}
