//! Campaign observability: per-phase wall-clock timers, per-instance
//! latency histograms and traces, dictionary-cache hit/miss counters and
//! simulated-sample counters.
//!
//! A [`MetricsSink`] is the live, thread-safe accumulator threaded
//! through a campaign (plain relaxed atomics — the counters are
//! monotonic and independent, no cross-counter invariant is read back
//! during the run). At the end of the campaign it is frozen into a
//! [`CampaignMetrics`] snapshot carried by [`AccuracyReport`].
//!
//! Every accumulating counter is one row of the counter table below: the
//! row declares the [`Counter`] variant, the [`CampaignMetrics`] field
//! and, when marked, the [`InstanceTrace`] field, and every fold over
//! the counters (snapshot, delta, per-instance commit, trace-sum check)
//! is a loop over the table.
//!
//! Phase timers are summed across worker threads, so under a parallel
//! campaign the per-phase totals measure aggregate CPU time and can
//! exceed [`CampaignMetrics::total_nanos`], which is the single
//! wall-clock span of the whole campaign.
//!
//! Summed timers cannot answer tail-latency questions ("p99 dictionary
//! build time"), so each diagnosed instance additionally records one
//! observation per phase into a [`LatencyHistogram`] and emits an
//! [`InstanceTrace`] into a bounded ring ([`TRACE_RING_CAPACITY`]).
//! Both are exported machine-readably through [`MetricsReport`] /
//! [`MetricsExport`] (the `--metrics-json` flag of the bench binaries).

use crate::evaluate::AccuracyReport;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The instrumented phases of one diagnosis (see
/// [`crate::session::DiagnosisSession::diagnose_instance`]). `phase as
/// usize` indexes the phase's latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Test generation through the hypothesized site (ATPG).
    Patterns,
    /// Clock selection and behaviour-matrix observation.
    Observe,
    /// Suspect pruning plus probabilistic-dictionary construction.
    Dictionary,
    /// Error-function scoring of every suspect.
    Rank,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 4] = [
        Phase::Patterns,
        Phase::Observe,
        Phase::Dictionary,
        Phase::Rank,
    ];

    /// Stable lower-case name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Patterns => "patterns",
            Phase::Observe => "observe",
            Phase::Dictionary => "dictionary",
            Phase::Rank => "rank",
        }
    }

    /// The counter summing this phase's time: the counter table opens
    /// with the four phase timers, in phase order.
    pub(crate) fn counter(self) -> Counter {
        Counter::ALL[self as usize]
    }
}

/// Sub-bucket resolution of [`LatencyHistogram`]: each power-of-two
/// octave is split into `2^SUB_BITS` linear sub-buckets, bounding the
/// relative quantization error at `2^-SUB_BITS` (25 %).
const SUB_BITS: u32 = 2;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count: indices `0..4` hold the exact values `0..4`,
/// then 4 sub-buckets per octave up to `u64::MAX`
/// (`bucket_index(u64::MAX) == 251`).
const NUM_BUCKETS: usize = 252;

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS;
    let sub = (v >> octave) & (SUB_BUCKETS - 1);
    (((octave + 1) << SUB_BITS) + sub as u32) as usize
}

/// Inclusive `(lower, upper)` value range of bucket `ix`.
fn bucket_bounds(ix: u32) -> (u64, u64) {
    if u64::from(ix) < SUB_BUCKETS {
        return (u64::from(ix), u64::from(ix));
    }
    let octave = (ix >> SUB_BITS) - 1;
    let sub = u64::from(ix) & (SUB_BUCKETS - 1);
    let lower = (SUB_BUCKETS + sub) << octave;
    // `((1 << octave) - 1)` first: the top bucket's upper bound is
    // exactly `u64::MAX`, so `lower + (1 << octave)` would overflow.
    (lower, lower + ((1u64 << octave) - 1))
}

/// A fixed-size log-spaced latency histogram over relaxed atomics:
/// lock-free recording from any number of worker threads, mergeable,
/// frozen into a [`HistogramSnapshot`] for percentile queries and
/// serialization.
///
/// Layout (HdrHistogram-style): values `0..4` get exact unit buckets;
/// every power-of-two octave above is split into 4 linear sub-buckets,
/// so any `u64` lands in one of 252 fixed buckets with at most 25 %
/// relative error. `max` is tracked exactly, and percentile queries
/// clamp to it.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Adds every observation of `other` into `self` (bucket-wise; the
    /// exact `sum`/`max` are merged too).
    pub fn merge_from(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Freezes the histogram into a queryable, serializable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (ix, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((ix as u32, n));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Frozen form of a [`LatencyHistogram`]: sparse `(bucket index, count)`
/// pairs in ascending index order plus exact `count`, `sum` and `max`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(bucket index, observation count)`,
    /// ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Exact maximum observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact maximum observed value; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(self.max)
        }
    }

    /// The value at or below which `pct` percent of observations fall
    /// (bucket upper bound, clamped to the exact maximum); `None` when
    /// empty. `pct` is clamped to `[0, 100]`.
    pub fn percentile(&self, pct: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let pct = pct.clamp(0.0, 100.0);
        let target = ((pct / 100.0) * self.count as f64).ceil() as u64;
        let target = target.clamp(1, self.count);
        let mut cum = 0u64;
        for &(ix, n) in &self.buckets {
            cum += n;
            if cum >= target {
                return Some(bucket_bounds(ix).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median latency; `None` when empty.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 90th-percentile latency; `None` when empty.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(90.0)
    }

    /// 99th-percentile latency; `None` when empty.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Adds every observation of `other` into `self` (bucket-wise merge
    /// of the two sorted sparse vectors).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(a, na)), Some(&(b, nb))) if a == b => {
                    merged.push((a, na + nb));
                    i += 1;
                    j += 1;
                }
                (Some(&(a, na)), Some(&(b, _))) if a < b => {
                    merged.push((a, na));
                    i += 1;
                }
                (Some(_), Some(&(b, nb))) => {
                    merged.push((b, nb));
                    j += 1;
                }
                (Some(&(a, na)), None) => {
                    merged.push((a, na));
                    i += 1;
                }
                (None, Some(&(b, nb))) => {
                    merged.push((b, nb));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The observations accumulated *since* `baseline` (bucket-wise
    /// saturating difference — exact, because bucket counts are
    /// monotonic). The delta's `max` is conservative: the smaller of the
    /// lifetime maximum and the upper bound of the highest surviving
    /// bucket.
    pub fn since(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut j = 0usize;
        for &(ix, n) in &self.buckets {
            while j < baseline.buckets.len() && baseline.buckets[j].0 < ix {
                j += 1;
            }
            let base = match baseline.buckets.get(j) {
                Some(&(bix, bn)) if bix == ix => bn,
                _ => 0,
            };
            let delta = n.saturating_sub(base);
            if delta > 0 {
                buckets.push((ix, delta));
            }
        }
        let count = self.count.saturating_sub(baseline.count);
        let max = match buckets.last() {
            Some(&(ix, _)) => bucket_bounds(ix).1.min(self.max),
            None => 0,
        };
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.saturating_sub(baseline.sum),
            max,
        }
    }

    /// Checks the sparse bucket list that percentile queries index:
    /// every index names one of the fixed buckets, indices strictly
    /// ascend, and the bucket counts sum to `count`.
    fn check_buckets(&self) -> Result<(), String> {
        let mut total = 0u64;
        for (i, &(ix, n)) in self.buckets.iter().enumerate() {
            if ix as usize >= NUM_BUCKETS {
                return Err(format!(
                    "bucket index {ix} out of range (last is {})",
                    NUM_BUCKETS - 1
                ));
            }
            if i > 0 && self.buckets[i - 1].0 >= ix {
                return Err(format!("bucket indices not strictly ascending at {ix}"));
            }
            total = total
                .checked_add(n)
                .ok_or_else(|| "bucket counts overflow u64".to_string())?;
        }
        if total != self.count {
            return Err(format!("buckets sum to {total}, count says {}", self.count));
        }
        Ok(())
    }
}

/// One [`HistogramSnapshot`] per diagnosis phase: the distribution of
/// per-instance latencies, as opposed to the summed
/// `CampaignMetrics::*_nanos` totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseLatencies {
    /// Per-instance ATPG latency distribution.
    pub patterns: HistogramSnapshot,
    /// Per-instance clock-selection/observation latency distribution.
    pub observe: HistogramSnapshot,
    /// Per-instance dictionary-build latency distribution.
    pub dictionary: HistogramSnapshot,
    /// Per-instance ranking latency distribution.
    pub rank: HistogramSnapshot,
}

impl PhaseLatencies {
    fn from_fn(f: impl FnMut(Phase) -> HistogramSnapshot) -> PhaseLatencies {
        let [patterns, observe, dictionary, rank] = Phase::ALL.map(f);
        PhaseLatencies {
            patterns,
            observe,
            dictionary,
            rank,
        }
    }

    /// The snapshot for `phase`.
    pub fn get(&self, phase: Phase) -> &HistogramSnapshot {
        [&self.patterns, &self.observe, &self.dictionary, &self.rank][phase as usize]
    }

    /// Field-wise [`HistogramSnapshot::since`].
    pub fn since(&self, baseline: &PhaseLatencies) -> PhaseLatencies {
        PhaseLatencies::from_fn(|phase| self.get(phase).since(baseline.get(phase)))
    }
}

/// How one instance's diagnosis ended (see [`InstanceTrace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOutcome {
    /// A dictionary was built and every error function produced a
    /// ranking.
    Diagnosed,
    /// A failing behaviour was observed but dictionary construction
    /// failed (no suspects) — scored as a diagnosis failure.
    DictionaryFailed,
    /// No observable failing configuration within the redraw budget.
    Undetected,
}

/// Expands the counter table into [`Counter`], [`CampaignMetrics`] and
/// [`InstanceTrace`]. A counter row reads
///
/// ```text
/// /// Doc comment of the `CampaignMetrics` field.
/// #[serde(default)]          // optional
/// Variant field_name [mark], // mark: empty, `trace` or `trace_last`
/// ```
///
/// and declares a `Counter` variant, a `u64` field of `CampaignMetrics`
/// in table order (which is the JSON order), a slot of [`MetricsSink`]'s
/// atomic array and, when marked, a field of `InstanceTrace`: `trace`
/// rows in table order, then `trace_last` rows, which is the trace's
/// JSON order. A `pub name: Type,` row is a plain `CampaignMetrics`
/// field, not a counter.
///
/// Attributes travel as raw token trees. Forwarded as `$a:meta`, the
/// vendored serde derive could not see `default` inside the fragment's
/// invisible group and would drop `#[serde(default)]`.
macro_rules! counter_table {
    ($(#[$($sa:tt)*])* pub struct CampaignMetrics { $($rows:tt)* }) => {
        counter_table!(@rows [$(#[$($sa)*])*] [] [] [] [] $($rows)*);
    };
    (@rows $head:tt [$($cm:tt)*] $ctr:tt $tr:tt $last:tt
        $(#[$($a:tt)*])* pub $f:ident: $t:ty, $($rest:tt)*) => {
        counter_table!(@rows $head [$($cm)* $(#[$($a)*])* pub $f: $t,] $ctr $tr $last $($rest)*);
    };
    (@rows $head:tt [$($cm:tt)*] [$($ctr:tt)*] $tr:tt $last:tt
        $(#[doc = $doc:literal])* $(#[serde $s:tt])? $C:ident $f:ident [$($mark:ident)?],
        $($rest:tt)*) => {
        counter_table!(@mark [$($mark)?] ($C $f $(#[serde $s])?) $head
            [$($cm)* $(#[doc = $doc])* $(#[serde $s])? pub $f: u64,] [$($ctr)* $C $f]
            $tr $last $($rest)*);
    };
    (@mark [] $row:tt $head:tt $cm:tt $ctr:tt $tr:tt $last:tt $($rest:tt)*) => {
        counter_table!(@rows $head $cm $ctr $tr $last $($rest)*);
    };
    (@mark [trace] $row:tt $head:tt $cm:tt $ctr:tt [$($tr:tt)*] $last:tt $($rest:tt)*) => {
        counter_table!(@rows $head $cm $ctr [$($tr)* $row] $last $($rest)*);
    };
    (@mark [trace_last] $row:tt $head:tt $cm:tt $ctr:tt $tr:tt [$($last:tt)*] $($rest:tt)*) => {
        counter_table!(@rows $head $cm $ctr $tr [$($last)* $row] $($rest)*);
    };
    (@rows $head:tt $cm:tt $ctr:tt [$($tr:tt)*] [$($last:tt)*]) => {
        counter_table!(@emit $head $cm $ctr [$($tr)* $($last)*]);
    };
    (@emit [$($head:tt)*] [$($cm:tt)*] [$($C:ident $f:ident)*]
        [$(($TC:ident $tf:ident $($ta:tt)*))*]) => {
        $($head)*
        pub struct CampaignMetrics {
            $($cm)*
        }

        impl CampaignMetrics {
            /// The value of `counter`.
            fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$C => self.$f,)*
                }
            }

            /// `self` with every counter set to `value(counter)`.
            fn with_counters(self, value: impl Fn(Counter) -> u64) -> CampaignMetrics {
                CampaignMetrics { $($f: value(Counter::$C),)* ..self }
            }
        }

        /// One accumulating counter: a row of the counter table. It
        /// indexes [`MetricsSink`]'s atomic array and names a `u64` field
        /// of [`CampaignMetrics`] (and of [`InstanceTrace`] when traced).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $(
                #[doc = concat!("[`CampaignMetrics::", stringify!($f), "`].")]
                $C,
            )*
        }

        impl Counter {
            /// Every counter, in table order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$C),*];
            /// The number of counters.
            pub const COUNT: usize = [$(Counter::$C),*].len();
            /// The counters an [`InstanceTrace`] carries, in field order.
            pub(crate) const TRACED: &'static [Counter] = &[$(Counter::$TC),*];

            /// The counter's field name in [`CampaignMetrics`] and JSON.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$C => stringify!($f),)*
                }
            }
        }

        /// Per-instance diagnosis trace: what one chip did, where its time
        /// went, and how the cache/store served it. Collected into
        /// [`AccuracyReport::traces`] (bounded by [`TRACE_RING_CAPACITY`]).
        /// Its counter fields are the instance's shares of the
        /// same-named [`CampaignMetrics`] counters.
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        pub struct InstanceTrace {
            /// Campaign chip index.
            pub chip_index: u64,
            /// Defect draws beyond the first (0 = first draw was observable).
            pub redraws: u64,
            /// Edge index of the last injected defect site (`None` only when
            /// the redraw budget was zero).
            pub injected_edge: Option<u64>,
            /// Suspect-set size after pruning (0 unless diagnosed).
            pub n_suspects: u64,
            /// Patterns applied in the last attempt.
            pub n_patterns: u64,
            /// The cut-off period `B` was recorded at (`None` when the chip
            /// never failed).
            pub clk: Option<f64>,
            $(
                #[doc = concat!("This instance's share of [`CampaignMetrics::", stringify!($tf), "`].")]
                $($ta)*
                pub $tf: u64,
            )*
            /// Tenant whose session committed this trace (empty for untenanted
            /// sinks; stamped by [`MetricsSink::record_instance`] when the sink
            /// was built via [`MetricsSink::for_tenant`]).
            #[serde(default)]
            pub tenant: String,
            /// How the diagnosis ended.
            pub outcome: TraceOutcome,
        }

        impl InstanceTrace {
            /// A trace of `outcome` whose counter fields are read from
            /// `counters` (the instance's scratch snapshot); every other
            /// field is zero, `None` or empty.
            pub(crate) fn new(outcome: TraceOutcome, counters: &CampaignMetrics) -> InstanceTrace {
                InstanceTrace {
                    chip_index: 0,
                    redraws: 0,
                    injected_edge: None,
                    n_suspects: 0,
                    n_patterns: 0,
                    clk: None,
                    $($tf: counters.$tf,)*
                    tenant: String::new(),
                    outcome,
                }
            }

            /// The value of `counter`; 0 for one the trace does not carry.
            fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$TC => self.$tf,)*
                    _ => 0,
                }
            }
        }
    };
}

counter_table! {
    /// Frozen campaign metrics, carried by [`AccuracyReport`]. This is
    /// the counter table: each counter row is one [`Counter`].
    ///
    /// Deliberately excluded from `AccuracyReport`'s equality: two runs of
    /// the same campaign produce identical accuracy numbers but different
    /// timings.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct CampaignMetrics {
        /// Aggregate nanoseconds in ATPG (summed over threads).
        PatternsNanos patterns_nanos [trace],
        /// Aggregate nanoseconds choosing clocks and observing `B`.
        ObserveNanos observe_nanos [trace],
        /// Aggregate nanoseconds pruning suspects and building dictionaries.
        /// This includes time blocked on the dictionary cache: a build
        /// that finds another session building the same bank waits in
        /// `KeyedMemo::with` for that key's lock, and the wait is booked
        /// here too, so concurrent tenants of one bank can read more
        /// dictionary time than kernel plus screen plus their own work.
        DictionaryNanos dictionary_nanos [trace],
        /// Aggregate nanoseconds ranking suspects.
        RankNanos rank_nanos [trace],
        /// Wall-clock nanoseconds of the whole campaign.
        pub total_nanos: u64,
        /// Dictionary-cache requests served without simulation.
        DictCacheHits dict_cache_hits [trace],
        /// Dictionary-cache requests that had to simulate at least one bank.
        DictCacheMisses dict_cache_misses [trace],
        /// Full-circuit dynamic timing walks actually run, one per
        /// (pattern, chip sample) pair: `patterns × n_samples` per
        /// dictionary miss, plus `min(sta_samples, 150) × patterns` per
        /// observed chip under a tested-delay or sweep clock. Only the
        /// clock estimate's chip draws are memoized, not its walks, so a
        /// fully warm run still books the latter.
        SamplesSimulated samples_simulated [],
        /// Aggregate nanoseconds inside the Monte-Carlo dictionary kernel's
        /// parallel regions (wall clock on the calling thread, excluding
        /// suspect pruning and grid post-processing); a subset of
        /// `dictionary_nanos`.
        #[serde(default)]
        KernelNanos kernel_nanos [],
        /// Defect-cone evaluations, one per (pattern, chip sample, suspect)
        /// triple, across all dictionary builds.
        #[serde(default)]
        ConeEvals cone_evals [],
        /// (pattern, suspect) pairs whose defect cone the Monte-Carlo kernel
        /// actually walked; the rest of the `cone_evals` lanes were settled
        /// from the defect-free baseline. Never exceeds `cone_evals`.
        #[serde(default)]
        ConeWalks cone_walks [trace_last],
        /// Aggregate nanoseconds inside the screen's stage-1 moment
        /// propagation (wall clock on the calling thread); a subset of
        /// `screen_nanos` and so of `dictionary_nanos`, disjoint from
        /// `kernel_nanos`.
        #[serde(default)]
        AnalyticNanos analytic_nanos [],
        /// Cone propagations of the screen's stage 1, one per (pattern,
        /// suspect, quadrature point) triple computed, across all screened
        /// dictionary builds.
        #[serde(default)]
        AnalyticEvals analytic_evals [],
        /// Aggregate nanoseconds in the analytic screening stage of the
        /// screened dictionary pipeline (stage 1 of `SimKernel::Screened`);
        /// a subset of `dictionary_nanos`. Zero unless the screened kernel
        /// ran.
        #[serde(default)]
        ScreenNanos screen_nanos [],
        /// Candidate suspects that entered the analytic screen, summed over
        /// all screened dictionary builds.
        #[serde(default)]
        SuspectsScreened suspects_screened [],
        /// Screening survivors handed to Monte-Carlo refinement, summed over
        /// all screened dictionary builds; never exceeds
        /// `suspects_screened`.
        #[serde(default)]
        SuspectsRefined suspects_refined [],
        /// Dictionary banks loaded intact from the on-disk store (each one a
        /// full Monte-Carlo build skipped).
        StoreHits store_hits [trace],
        /// Store probes that found no usable checkpoint (absent, corrupt or
        /// mismatched files all count here — they degrade to recomputation).
        StoreMisses store_misses [trace],
        /// Dictionary banks checkpointed to the on-disk store.
        StoreFlushes store_flushes [],
        /// Aggregate nanoseconds spent reading and validating store files.
        StoreLoadNanos store_load_nanos [],
        /// Pattern-cache requests served from memory (no ATPG, no store I/O).
        #[serde(default)]
        PatternCacheHits pattern_cache_hits [trace],
        /// Pattern-cache requests not in memory (each one either a store
        /// load or a fresh ATPG run).
        #[serde(default)]
        PatternCacheMisses pattern_cache_misses [trace],
        /// Pattern sets loaded intact from the on-disk store (each one a
        /// full ATPG run skipped).
        #[serde(default)]
        PatternStoreHits pattern_store_hits [trace],
        /// Pattern-store probes that found no usable checkpoint (absent,
        /// corrupt or mismatched files — they degrade to regeneration).
        #[serde(default)]
        PatternStoreMisses pattern_store_misses [trace],
        /// Pattern sets checkpointed to the on-disk store.
        #[serde(default)]
        PatternStoreFlushes pattern_store_flushes [],
        /// Aggregate nanoseconds reading and validating pattern checkpoints.
        #[serde(default)]
        PatternStoreLoadNanos pattern_store_load_nanos [],
        /// Per-instance latency distribution of each phase (one observation
        /// per diagnosed instance; the summed `*_nanos` fields above are the
        /// corresponding totals).
        #[serde(default)]
        pub phase_latency: PhaseLatencies,
        /// Wall-clock latency distribution of session-level requests (one
        /// observation per [`crate::session::DiagnosisSession`] entry-point
        /// call — instance diagnosis, behaviour diagnosis or campaign).
        /// Unlike the per-phase histograms its count is *not* tied to the
        /// diagnosed-instance count: a campaign is one request covering many
        /// instances. Empty for sinks never driven through a session.
        #[serde(default)]
        pub session_latency: HistogramSnapshot,
    }
}

/// Upper bound on retained [`InstanceTrace`]s per [`MetricsSink`]: a
/// ring that keeps the most recent traces, so paper-scale campaigns
/// stay cheap while quick runs keep every instance.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// Thread-safe metrics accumulator for one campaign (or one session's
/// lifetime).
#[derive(Debug, Default)]
pub struct MetricsSink {
    counters: [AtomicU64; Counter::COUNT],
    phase_hists: [LatencyHistogram; Phase::ALL.len()],
    session_hist: LatencyHistogram,
    traces: Mutex<VecDeque<(u64, InstanceTrace)>>,
    trace_seq: AtomicU64,
    tenant: String,
}

impl MetricsSink {
    /// A fresh sink with all counters at zero.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// A fresh sink whose committed traces are tagged with `tenant`
    /// (see [`InstanceTrace::tenant`]). A
    /// [`crate::session::DiagnosisSession`] builds its private sink this
    /// way so a multi-tenant export can attribute every trace.
    pub fn for_tenant(tenant: impl Into<String>) -> MetricsSink {
        MetricsSink {
            tenant: tenant.into(),
            ..MetricsSink::default()
        }
    }

    /// The tenant label stamped into committed traces (empty for plain
    /// sinks).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Records the wall-clock latency of one session-level request (an
    /// instance diagnosis, a behaviour diagnosis, or a whole campaign)
    /// into the session-latency histogram surfaced as
    /// [`CampaignMetrics::session_latency`].
    pub fn record_session_latency(&self, nanos: u64) {
        self.session_hist.record(nanos);
    }

    /// Runs `f`, charging its wall-clock time to `phase`.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(phase.counter(), start.elapsed().as_nanos() as u64);
        out
    }

    /// Adds `n` to `counter`: events for a count, nanoseconds for a
    /// `*_nanos` counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Folds one diagnosed instance into the sink: every counter of
    /// `instance` (a snapshot of a per-instance scratch sink; its
    /// `total_nanos` is ignored) is added to the aggregates, each phase
    /// that actually ran (nonzero total) is recorded as one observation
    /// in that phase's latency histogram, and `trace` enters the bounded
    /// trace ring. Phases that were skipped entirely (0 ns — e.g. the
    /// pattern phase of a served instance reusing a shared pattern set)
    /// are *not* recorded, so they cannot drag the phase percentiles
    /// toward zero.
    ///
    /// Because the same numbers feed the aggregate counters, the
    /// histograms and the trace, the three views agree *exactly*: the
    /// per-phase histogram `sum` equals the summed phase counter, and a
    /// complete trace set sums to the aggregates.
    pub fn record_instance(&self, instance: &CampaignMetrics, trace: InstanceTrace) {
        let mut trace = trace;
        if trace.tenant.is_empty() && !self.tenant.is_empty() {
            trace.tenant = self.tenant.clone();
        }
        for counter in Counter::ALL {
            self.add(counter, instance.get(counter));
        }
        // Only phases that actually ran enter the latency histograms: a
        // phase skipped on this instance (e.g. dictionary/rank on an
        // undetected chip, or patterns on a served request) reports 0 ns,
        // and recording those zeros would pile observations into the
        // [0,1] bucket and drag the percentiles down — a skew, not a
        // latency. The aggregate counters above still absorb the zeros,
        // so `sum(hist) == aggregate` stays exact.
        for phase in Phase::ALL {
            let nanos = instance.get(phase.counter());
            if nanos > 0 {
                self.phase_hists[phase as usize].record(nanos);
            }
        }
        let mut ring = self.traces.lock().expect("trace ring poisoned");
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        ring.push_back((seq, trace));
        while ring.len() > TRACE_RING_CAPACITY {
            ring.pop_front();
        }
    }

    /// The next trace sequence number (equivalently: traces ever
    /// recorded). Capture before a campaign, pass to
    /// [`traces_since`](Self::traces_since) after.
    pub fn trace_seq(&self) -> u64 {
        self.trace_seq.load(Ordering::Relaxed)
    }

    /// The traces recorded at or after sequence number `seq` and still
    /// in the ring, sorted by chip index (deterministic regardless of
    /// worker interleaving).
    pub fn traces_since(&self, seq: u64) -> Vec<InstanceTrace> {
        let ring = self.traces.lock().expect("trace ring poisoned");
        let mut out: Vec<InstanceTrace> = ring
            .iter()
            .filter(|(s, _)| *s >= seq)
            .map(|(_, t)| t.clone())
            .collect();
        out.sort_by_key(|t| t.chip_index);
        out
    }

    /// Freezes the counters into a snapshot; `total` is the campaign's
    /// wall-clock span.
    pub fn snapshot(&self, total: Duration) -> CampaignMetrics {
        CampaignMetrics {
            total_nanos: total.as_nanos() as u64,
            phase_latency: PhaseLatencies::from_fn(|phase| {
                self.phase_hists[phase as usize].snapshot()
            }),
            session_latency: self.session_hist.snapshot(),
            ..CampaignMetrics::default()
        }
        .with_counters(|counter| self.counters[counter as usize].load(Ordering::Relaxed))
    }
}

impl CampaignMetrics {
    /// The counters accumulated *since* `baseline` (field-wise
    /// saturating difference), with `total` as the wall-clock span.
    ///
    /// A long-lived [`crate::session::DiagnosisSession`] keeps one
    /// [`MetricsSink`] across campaigns; each campaign's report carries
    /// the delta between the sink before and after, so per-campaign
    /// numbers stay comparable to the single-campaign free functions.
    pub fn since(&self, baseline: &CampaignMetrics, total: Duration) -> CampaignMetrics {
        CampaignMetrics {
            total_nanos: total.as_nanos() as u64,
            phase_latency: self.phase_latency.since(&baseline.phase_latency),
            session_latency: self.session_latency.since(&baseline.session_latency),
            ..CampaignMetrics::default()
        }
        .with_counters(|counter| self.get(counter).saturating_sub(baseline.get(counter)))
    }

    /// Cache hit rate in percent; `None` when the cache was never
    /// queried (distinct from a genuinely cold cache reporting 0 %).
    pub fn cache_hit_percent(&self) -> Option<f64> {
        let total = self.dict_cache_hits + self.dict_cache_misses;
        if total == 0 {
            None
        } else {
            Some(100.0 * self.dict_cache_hits as f64 / total as f64)
        }
    }

    /// Pattern-cache hit rate in percent, under the same convention as
    /// [`cache_hit_percent`](Self::cache_hit_percent): `None` when the
    /// pattern cache was never queried, never a misleading `0.0`.
    pub fn pattern_cache_hit_percent(&self) -> Option<f64> {
        let total = self.pattern_cache_hits + self.pattern_cache_misses;
        if total == 0 {
            None
        } else {
            Some(100.0 * self.pattern_cache_hits as f64 / total as f64)
        }
    }

    /// Fraction of screened suspects that survived the analytic screen
    /// (`suspects_refined / suspects_screened`); `None` when the
    /// screened kernel never ran (distinct from a degenerate screen
    /// keeping everyone, which reports `1.0`).
    pub fn screen_survivor_ratio(&self) -> Option<f64> {
        if self.suspects_screened == 0 {
            None
        } else {
            Some(self.suspects_refined as f64 / self.suspects_screened as f64)
        }
    }

    /// Renders the metrics as an indented text block for the bench
    /// binaries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  campaign wall clock: {}\n",
            fmt_nanos(self.total_nanos)
        ));
        // "patterns .. | observe .. | dictionary .. | rank ..".
        let per_phase = |value: &dyn Fn(Phase) -> String| {
            (Phase::ALL.map(|phase| format!("{} {}", phase.name(), value(phase)))).join(" | ")
        };
        out.push_str(&format!(
            "  phase cpu (summed over threads): {}\n",
            per_phase(&|phase| fmt_nanos(self.get(phase.counter())))
        ));
        if !self.phase_latency.patterns.is_empty() {
            let latency = |phase| {
                let h = self.phase_latency.get(phase);
                let [p50, p99, max] =
                    [h.p50(), h.p99(), h.max()].map(|v| fmt_nanos(v.unwrap_or(0)));
                format!("{p50}/{p99}/{max}")
            };
            out.push_str(&format!(
                "  per-instance latency (p50/p99/max): {}\n",
                per_phase(&latency)
            ));
        }
        if !self.session_latency.is_empty() {
            out.push_str(&format!(
                "  session latency (p50/p99/max): {} / {} / {} over {} requests\n",
                fmt_nanos(self.session_latency.p50().unwrap_or(0)),
                fmt_nanos(self.session_latency.p99().unwrap_or(0)),
                fmt_nanos(self.session_latency.max().unwrap_or(0)),
                self.session_latency.count(),
            ));
        }
        let hit_rate = match self.cache_hit_percent() {
            Some(pct) => format!("{pct:.0}% hit rate"),
            None => "hit rate n/a".to_string(),
        };
        out.push_str(&format!(
            "  dictionary cache: {} hits / {} misses ({hit_rate}); {} samples simulated",
            self.dict_cache_hits, self.dict_cache_misses, self.samples_simulated,
        ));
        if let Some(pct) = self.pattern_cache_hit_percent() {
            out.push_str(&format!(
                "\n  pattern cache: {} hits / {} misses ({pct:.0}% hit rate)",
                self.pattern_cache_hits, self.pattern_cache_misses,
            ));
        }
        if self.pattern_store_hits + self.pattern_store_misses + self.pattern_store_flushes > 0 {
            out.push_str(&format!(
                "\n  pattern store: {} loads / {} misses ({} spent loading); {} sets flushed",
                self.pattern_store_hits,
                self.pattern_store_misses,
                fmt_nanos(self.pattern_store_load_nanos),
                self.pattern_store_flushes,
            ));
        }
        if self.cone_evals > 0 {
            out.push_str(&format!(
                "\n  dictionary kernel: {} cone evals in {} ({} cone walks)",
                self.cone_evals,
                fmt_nanos(self.kernel_nanos),
                self.cone_walks,
            ));
        }
        if self.analytic_evals > 0 {
            out.push_str(&format!(
                "\n  analytic kernel: {} cone propagations in {}",
                self.analytic_evals,
                fmt_nanos(self.analytic_nanos),
            ));
        }
        if let Some(ratio) = self.screen_survivor_ratio() {
            out.push_str(&format!(
                "\n  analytic screen: {} suspects screened -> {} refined ({:.0}% survive) in {}",
                self.suspects_screened,
                self.suspects_refined,
                100.0 * ratio,
                fmt_nanos(self.screen_nanos),
            ));
        }
        if self.store_hits + self.store_misses + self.store_flushes > 0 {
            out.push_str(&format!(
                "\n  dictionary store: {} loads / {} misses ({} spent loading); {} banks flushed",
                self.store_hits,
                self.store_misses,
                fmt_nanos(self.store_load_nanos),
                self.store_flushes,
            ));
        }
        out
    }
}

/// Schema version stamped into [`MetricsReport`] and [`MetricsExport`];
/// bumped whenever their JSON layout changes incompatibly.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Machine-readable observability report of one campaign (or one
/// session lifetime): counters, per-phase latency histograms and the
/// per-instance traces. Written by the bench binaries' `--metrics-json`
/// flag and validated by the `metrics_check` binary / CI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// [`METRICS_SCHEMA_VERSION`] at the time of writing.
    pub schema_version: u32,
    /// Circuit (or scope) the report covers.
    pub circuit: String,
    /// Diagnosed chip instances (the histograms' expected `count`).
    pub trials: u64,
    /// Aggregate counters plus per-phase latency histograms.
    pub counters: CampaignMetrics,
    /// Per-instance traces (possibly truncated to the most recent
    /// [`TRACE_RING_CAPACITY`]).
    pub traces: Vec<InstanceTrace>,
}

impl MetricsReport {
    /// Builds the report carried by a finished campaign.
    pub fn from_report(report: &AccuracyReport) -> MetricsReport {
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            circuit: report.circuit.clone(),
            trials: report.trials as u64,
            counters: report.metrics.clone(),
            traces: report.traces.clone(),
        }
    }

    /// Checks the report's internal invariants: schema version, histogram
    /// bucket lists in range and strictly ascending (checked before any
    /// percentile query), per-phase histogram `count ≤ trials` (phases
    /// that did not run — 0 ns — are not recorded) and `sum ==` the
    /// summed phase counter, percentile monotonicity
    /// (`p50 ≤ p90 ≤ p99 ≤ max`), bucket-count consistency,
    /// `kernel_nanos ⊆ dictionary_nanos`, and — when the trace set is
    /// complete — per-trace sums equal to the aggregates.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != METRICS_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {METRICS_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        let c = &self.counters;
        let phases = Phase::ALL.map(|phase| (phase.name(), c.phase_latency.get(phase)));
        for (name, h) in phases
            .into_iter()
            .chain([("session latency", &c.session_latency)])
        {
            h.check_buckets()
                .map_err(|e| format!("{name} histogram {e}"))?;
            if let (Some(p50), Some(p90), Some(p99), Some(max)) =
                (h.p50(), h.p90(), h.p99(), h.max())
            {
                if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
                    return Err(format!(
                        "{name} percentiles not monotone: p50 {p50}, p90 {p90}, p99 {p99}, max {max}"
                    ));
                }
            }
        }
        for phase in Phase::ALL {
            let (name, h) = (phase.name(), c.phase_latency.get(phase));
            // Phases that did not run on an instance (0 ns) record no
            // histogram observation, so the count is bounded by — not
            // equal to — the trial count.
            if h.count() > self.trials {
                return Err(format!(
                    "{name} histogram count {} exceeds trials {}",
                    h.count(),
                    self.trials
                ));
            }
            let aggregate = c.get(phase.counter());
            if h.sum() != aggregate {
                return Err(format!(
                    "{name} histogram sum {} != aggregate counter {aggregate}",
                    h.sum()
                ));
            }
        }
        for (part, whole) in [
            (Counter::KernelNanos, Counter::DictionaryNanos),
            (Counter::AnalyticNanos, Counter::DictionaryNanos),
            (Counter::ScreenNanos, Counter::DictionaryNanos),
            (Counter::ConeWalks, Counter::ConeEvals),
            (Counter::SuspectsRefined, Counter::SuspectsScreened),
        ] {
            if c.get(part) > c.get(whole) {
                return Err(format!(
                    "{} {} exceeds {} {}",
                    part.name(),
                    c.get(part),
                    whole.name(),
                    c.get(whole)
                ));
            }
        }
        if self.traces.len() as u64 > self.trials {
            return Err(format!(
                "{} traces but only {} trials",
                self.traces.len(),
                self.trials
            ));
        }
        if self.traces.len() as u64 == self.trials {
            for &counter in Counter::TRACED {
                let traced = self
                    .traces
                    .iter()
                    .fold(0u64, |sum, t| sum.saturating_add(t.get(counter)));
                let aggregate = c.get(counter);
                if traced != aggregate {
                    return Err(format!(
                        "trace sum of {} is {traced}, aggregate counter says {aggregate}",
                        counter.name()
                    ));
                }
            }
            // With a complete trace set, each phase histogram holds
            // exactly one observation per trace whose phase actually ran
            // (nonzero nanos) — no more (zeros would skew the
            // percentiles), no fewer (every ran phase is observed).
            for phase in Phase::ALL {
                let ran = self
                    .traces
                    .iter()
                    .filter(|t| t.get(phase.counter()) > 0)
                    .count() as u64;
                let h = c.phase_latency.get(phase);
                if h.count() != ran {
                    return Err(format!(
                        "{} histogram count {} != {ran} traces with a nonzero phase",
                        phase.name(),
                        h.count()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Top-level `--metrics-json` document: one [`MetricsReport`] per
/// campaign the binary ran (bins that run no campaign write an empty
/// list, keeping the flag uniform across all of them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsExport {
    /// [`METRICS_SCHEMA_VERSION`] at the time of writing.
    pub schema_version: u32,
    /// One report per campaign, in execution order.
    pub reports: Vec<MetricsReport>,
}

impl MetricsExport {
    /// Wraps campaign reports into an export document.
    pub fn new(reports: Vec<MetricsReport>) -> MetricsExport {
        MetricsExport {
            schema_version: METRICS_SCHEMA_VERSION,
            reports,
        }
    }

    /// Validates the document and every contained report.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != METRICS_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {METRICS_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        for (ix, report) in self.reports.iter().enumerate() {
            report
                .validate()
                .map_err(|e| format!("report {ix} ({}): {e}", report.circuit))?;
        }
        Ok(())
    }

    /// Serializes the document to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metrics export serializes")
    }

    /// Parses a document produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// A description of the JSON or shape mismatch.
    pub fn from_json(text: &str) -> Result<MetricsExport, String> {
        serde_json::from_str(text).map_err(|e| format!("metrics export: {e:?}"))
    }
}

/// Renders a nanosecond count at a human scale: integral `ns` below a
/// microsecond, one decimal of `µs`/`ms`, two decimals of `s`, and
/// `min` above a minute. Decimals round half away from zero, so
/// `1250 ns` is `1.3 µs` (not the banker's `1.2`).
fn fmt_nanos(nanos: u64) -> String {
    const US: u64 = 1_000;
    const MS: u64 = 1_000_000;
    const SEC: u64 = 1_000_000_000;
    const MIN: u64 = 60 * SEC;
    // Integer half-up rounding: float formatting rounds half to even
    // (1.25 → "1.2") and a `(v * scale + 0.5).floor()` dance inherits
    // representation error (1.255 * 100 is 125.499…); scaling in u128
    // keeps ties exact at every magnitude.
    let scaled = |divisor: u64, decimals: u32, unit: &str| -> String {
        let pow = 10u64.pow(decimals);
        let scaled = ((u128::from(nanos) * u128::from(pow) + u128::from(divisor / 2))
            / u128::from(divisor)) as u64;
        format!(
            "{}.{:0width$} {unit}",
            scaled / pow,
            scaled % pow,
            width = decimals as usize
        )
    };
    if nanos < US {
        format!("{nanos} ns")
    } else if nanos < MS {
        scaled(US, 1, "µs")
    } else if nanos < SEC {
        scaled(MS, 1, "ms")
    } else if nanos < MIN {
        scaled(SEC, 2, "s")
    } else {
        scaled(MIN, 2, "min")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_accumulate_per_phase() {
        let sink = MetricsSink::new();
        let x = sink.time(Phase::Patterns, || 7);
        assert_eq!(x, 7);
        sink.time(Phase::Rank, || std::thread::sleep(Duration::from_millis(2)));
        let snap = sink.snapshot(Duration::from_millis(5));
        assert!(snap.rank_nanos >= 2_000_000);
        assert_eq!(snap.observe_nanos, 0);
        assert_eq!(snap.total_nanos, 5_000_000);
    }

    #[test]
    fn phase_timers_open_the_counter_table() {
        for phase in Phase::ALL {
            assert_eq!(phase.counter().name(), format!("{}_nanos", phase.name()));
        }
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(counter as usize, i);
        }
    }

    #[test]
    fn cache_counters_and_hit_rate() {
        let sink = MetricsSink::new();
        sink.add(Counter::DictCacheHits, 1);
        sink.add(Counter::DictCacheHits, 1);
        sink.add(Counter::DictCacheMisses, 1);
        sink.add(Counter::SamplesSimulated, 120);
        let snap = sink.snapshot(Duration::ZERO);
        assert_eq!(snap.dict_cache_hits, 2);
        assert_eq!(snap.dict_cache_misses, 1);
        assert_eq!(snap.samples_simulated, 120);
        let pct = snap.cache_hit_percent().expect("cache was queried");
        assert!((pct - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unqueried_cache_has_no_hit_rate() {
        let snap = CampaignMetrics::default();
        assert_eq!(snap.cache_hit_percent(), None);
        assert!(snap.render().contains("hit rate n/a"));
        // As soon as the cache is consulted, a percentage appears.
        let warm = CampaignMetrics {
            dict_cache_hits: 3,
            dict_cache_misses: 1,
            ..CampaignMetrics::default()
        };
        assert_eq!(warm.cache_hit_percent(), Some(75.0));
        assert!(warm.render().contains("75% hit rate"));
    }

    #[test]
    fn render_mentions_cache_and_phases() {
        let snap = CampaignMetrics {
            total_nanos: 1_500_000_000,
            dict_cache_hits: 5,
            ..CampaignMetrics::default()
        };
        let text = snap.render();
        assert!(text.contains("1.50 s"));
        assert!(text.contains("5 hits"));
        assert!(text.contains("dictionary"));
    }

    #[test]
    fn store_counters_accumulate_and_render() {
        let sink = MetricsSink::new();
        sink.add(Counter::StoreHits, 1);
        sink.add(Counter::StoreLoadNanos, 1_000);
        sink.add(Counter::StoreMisses, 1);
        sink.add(Counter::StoreLoadNanos, 500);
        sink.add(Counter::StoreFlushes, 1);
        sink.add(Counter::StoreFlushes, 1);
        let snap = sink.snapshot(Duration::ZERO);
        assert_eq!(snap.store_hits, 1);
        assert_eq!(snap.store_misses, 1);
        assert_eq!(snap.store_flushes, 2);
        assert_eq!(snap.store_load_nanos, 1_500);
        let text = snap.render();
        assert!(text.contains("dictionary store"));
        assert!(text.contains("2 banks flushed"));
        // A run with no store configured stays silent about it.
        assert!(!MetricsSink::new()
            .snapshot(Duration::ZERO)
            .render()
            .contains("dictionary store"));
    }

    #[test]
    fn since_subtracts_baseline_fieldwise() {
        let sink = MetricsSink::new();
        sink.add(Counter::DictCacheMisses, 1);
        sink.add(Counter::SamplesSimulated, 100);
        sink.add(Counter::StoreFlushes, 1);
        let baseline = sink.snapshot(Duration::ZERO);
        sink.add(Counter::DictCacheHits, 1);
        sink.add(Counter::DictCacheMisses, 1);
        sink.add(Counter::SamplesSimulated, 40);
        sink.add(Counter::StoreHits, 1);
        sink.add(Counter::StoreLoadNanos, 9);
        let delta = sink
            .snapshot(Duration::ZERO)
            .since(&baseline, Duration::from_nanos(77));
        assert_eq!(delta.dict_cache_hits, 1);
        assert_eq!(delta.dict_cache_misses, 1);
        assert_eq!(delta.samples_simulated, 40);
        assert_eq!(delta.store_hits, 1);
        assert_eq!(delta.store_flushes, 0);
        assert_eq!(delta.total_nanos, 77);
    }

    #[test]
    fn kernel_counters_accumulate_and_render() {
        let sink = MetricsSink::new();
        sink.add(Counter::KernelNanos, 2_000_000);
        sink.add(Counter::KernelNanos, 1_000_000);
        sink.add(Counter::ConeEvals, 640);
        sink.add(Counter::ConeWalks, 3);
        sink.add(Counter::ConeWalks, 2);
        let snap = sink.snapshot(Duration::ZERO);
        assert_eq!(snap.kernel_nanos, 3_000_000);
        assert_eq!(snap.cone_evals, 640);
        assert_eq!(snap.cone_walks, 5);
        let text = snap.render();
        assert!(text.contains("640 cone evals"));
        assert!(text.contains("(5 cone walks)"));
        let later = MetricsSink::new();
        later.add(Counter::ConeWalks, 9);
        later.add(Counter::ConeEvals, 700);
        let delta = later.snapshot(Duration::ZERO).since(&snap, Duration::ZERO);
        assert_eq!((delta.cone_evals, delta.cone_walks), (60, 4));
        // A run that never built a dictionary stays silent about the kernel.
        assert!(!MetricsSink::new()
            .snapshot(Duration::ZERO)
            .render()
            .contains("cone evals"));
    }

    #[test]
    fn analytic_counters_accumulate_and_render() {
        let sink = MetricsSink::new();
        sink.add(Counter::AnalyticNanos, 4_000_000);
        sink.add(Counter::AnalyticEvals, 96);
        let snap = sink.snapshot(Duration::ZERO);
        assert_eq!(snap.analytic_nanos, 4_000_000);
        assert_eq!(snap.analytic_evals, 96);
        // The MC counters stay untouched: the screen's stage 1 must not
        // masquerade as Monte-Carlo work.
        assert_eq!(snap.kernel_nanos, 0);
        assert_eq!(snap.cone_evals, 0);
        let text = snap.render();
        assert!(text.contains("96 cone propagations"));
        assert!(!MetricsSink::new()
            .snapshot(Duration::ZERO)
            .render()
            .contains("cone propagations"));
    }

    #[test]
    fn screen_counters_accumulate_render_and_validate() {
        let sink = MetricsSink::new();
        sink.add(Counter::ScreenNanos, 5_000_000);
        sink.add(Counter::SuspectsScreened, 120);
        sink.add(Counter::SuspectsRefined, 30);
        let snap = sink.snapshot(Duration::ZERO);
        assert_eq!(snap.screen_nanos, 5_000_000);
        assert_eq!(snap.suspects_screened, 120);
        assert_eq!(snap.suspects_refined, 30);
        let ratio = snap.screen_survivor_ratio().expect("screen ran");
        assert!((ratio - 0.25).abs() < 1e-12);
        let text = snap.render();
        assert!(text.contains("120 suspects screened"));
        assert!(text.contains("30 refined"));
        assert!(text.contains("25% survive"));
        // A run that never screened stays silent and reports no ratio.
        let cold = MetricsSink::new().snapshot(Duration::ZERO);
        assert_eq!(cold.screen_survivor_ratio(), None);
        assert!(!cold.render().contains("analytic screen"));
        // validate() rejects a screen that "refined" more suspects than
        // it screened, and screen time exceeding the dictionary phase.
        let good = consistent_report();
        let mut more_refined = good.clone();
        more_refined.counters.suspects_screened = 5;
        more_refined.counters.suspects_refined = 6;
        assert!(more_refined
            .validate()
            .unwrap_err()
            .contains("suspects_refined"));
        let mut screen_overflow = good.clone();
        screen_overflow.counters.screen_nanos = screen_overflow.counters.dictionary_nanos + 1;
        assert!(screen_overflow
            .validate()
            .unwrap_err()
            .contains("screen_nanos"));
    }

    #[test]
    fn cone_walks_are_bounded_by_evals_and_traced() {
        let good = consistent_report();
        let mut evals = good.clone();
        evals.counters.cone_evals = 640;
        evals.counters.cone_walks = 640;
        evals.traces[0].cone_walks = 640;
        evals.validate().expect("every lane walking is legal");
        let mut overflow = evals.clone();
        overflow.counters.cone_walks = 641;
        overflow.traces[0].cone_walks = 641;
        assert!(overflow
            .validate()
            .unwrap_err()
            .contains("cone_walks 641 exceeds cone_evals 640"));
        // A report that books no MC lanes walks none.
        let mut no_lanes = good.clone();
        no_lanes.counters.cone_walks = 1;
        no_lanes.traces[0].cone_walks = 1;
        assert!(no_lanes.validate().unwrap_err().contains("cone_walks"));
        let mut untraced = evals;
        untraced.traces[0].cone_walks -= 1;
        assert!(untraced
            .validate()
            .unwrap_err()
            .contains("trace sum of cone_walks"));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let hist = LatencyHistogram::new();
        hist.record(5);
        hist.record(1_000_000);
        let snap = CampaignMetrics {
            patterns_nanos: 1,
            observe_nanos: 2,
            dictionary_nanos: 3,
            rank_nanos: 4,
            total_nanos: 10,
            dict_cache_hits: 5,
            dict_cache_misses: 6,
            samples_simulated: 7,
            kernel_nanos: 12,
            cone_evals: 13,
            cone_walks: 2,
            analytic_nanos: 20,
            analytic_evals: 21,
            screen_nanos: 22,
            suspects_screened: 24,
            suspects_refined: 23,
            store_hits: 8,
            store_misses: 9,
            store_flushes: 10,
            store_load_nanos: 11,
            pattern_cache_hits: 14,
            pattern_cache_misses: 15,
            pattern_store_hits: 16,
            pattern_store_misses: 17,
            pattern_store_flushes: 18,
            pattern_store_load_nanos: 19,
            phase_latency: PhaseLatencies {
                patterns: hist.snapshot(),
                ..PhaseLatencies::default()
            },
            session_latency: hist.snapshot(),
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: CampaignMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    // --- fmt_nanos tiers (pinning the boundaries) ---

    #[test]
    fn fmt_nanos_tier_boundaries() {
        assert_eq!(fmt_nanos(0), "0 ns");
        assert_eq!(fmt_nanos(1), "1 ns");
        assert_eq!(fmt_nanos(999), "999 ns");
        assert_eq!(fmt_nanos(1_000), "1.0 µs");
        assert_eq!(fmt_nanos(999_949), "999.9 µs");
        assert_eq!(fmt_nanos(1_000_000), "1.0 ms");
        assert_eq!(fmt_nanos(999_949_999), "999.9 ms");
        assert_eq!(fmt_nanos(1_000_000_000), "1.00 s");
        assert_eq!(fmt_nanos(59_994_999_999), "59.99 s");
        assert_eq!(fmt_nanos(60_000_000_000), "1.00 min");
        // An hour-and-a-half campaign no longer prints thousands of
        // seconds.
        assert_eq!(fmt_nanos(5_400_000_000_000), "90.00 min");
    }

    #[test]
    fn fmt_nanos_rounds_half_up() {
        // `{:.1}` alone rounds half to even (1.25 → "1.2"); the half-up
        // rule makes ties predictable.
        assert_eq!(fmt_nanos(1_250), "1.3 µs");
        assert_eq!(fmt_nanos(1_350), "1.4 µs");
        assert_eq!(fmt_nanos(2_500_000), "2.5 ms");
        assert_eq!(fmt_nanos(1_255_000_000), "1.26 s");
    }

    // --- LatencyHistogram ---

    #[test]
    fn histogram_bucket_boundaries() {
        // Values 0..4 are exact unit buckets.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as u32), (v, v));
        }
        // First sub-bucketed octave: 4..8 in steps of 1.
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_bounds(4), (4, 4));
        // 8..16 in steps of 2: 8 and 9 share a bucket, 10 starts the next.
        assert_eq!(bucket_index(8), bucket_index(9));
        assert_ne!(bucket_index(9), bucket_index(10));
        assert_eq!(bucket_bounds(bucket_index(8) as u32), (8, 9));
        // Every value lands inside its bucket's bounds, and bucket
        // indices are monotone across octave boundaries.
        let probes = [
            0u64,
            1,
            3,
            4,
            7,
            8,
            15,
            16,
            17,
            1_023,
            1_024,
            1_025,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last_ix = 0usize;
        for &v in &probes {
            let ix = bucket_index(v);
            assert!(ix < NUM_BUCKETS, "index {ix} out of range for {v}");
            let (lo, hi) = bucket_bounds(ix as u32);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
            assert!(ix >= last_ix, "bucket index not monotone at {v}");
            last_ix = ix;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_bounds((NUM_BUCKETS - 1) as u32).1, u64::MAX);
    }

    #[test]
    fn histogram_records_and_reports_percentiles() {
        let h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v * 1_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), (1..=100u64).map(|v| v * 1_000).sum::<u64>());
        assert_eq!(s.max(), Some(100_000));
        // Log-bucket quantization error is bounded by 25 %.
        let p50 = s.p50().unwrap();
        assert!((50_000..=62_500).contains(&p50), "p50 {p50} out of range");
        let p99 = s.p99().unwrap();
        assert!(p99 <= 100_000, "p99 {p99} exceeds the exact max");
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let h = LatencyHistogram::new();
        let mut seed = 0x9E3779B97F4A7C15u64;
        for _ in 0..500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(seed >> 40);
        }
        let s = h.snapshot();
        let mut last = 0u64;
        for pct in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(pct).unwrap();
            assert!(v >= last, "percentile({pct}) = {v} < {last}");
            last = v;
        }
        assert_eq!(s.percentile(100.0), s.max());
    }

    #[test]
    fn empty_histogram_accessors() {
        let s = LatencyHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.sum(), 0);
        assert_eq!(s.max(), None);
        assert_eq!(s.p50(), None);
        assert_eq!(s.p90(), None);
        assert_eq!(s.p99(), None);
        assert_eq!(s.percentile(0.0), None);
    }

    #[test]
    fn histogram_merge_is_associative() {
        let make = |values: &[u64]| {
            let h = LatencyHistogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let a = make(&[1, 5, 9, 1_000]);
        let b = make(&[2, 9, 500_000]);
        let c = make(&[0, 3, 9, u64::MAX]);
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // And equal to recording everything into one histogram.
        let all = make(&[1, 5, 9, 1_000, 2, 9, 500_000, 0, 3, 9, u64::MAX]);
        assert_eq!(ab_c, all);
        // The live merge agrees with the snapshot merge.
        let live = LatencyHistogram::new();
        for &v in &[1u64, 5, 9, 1_000] {
            live.record(v);
        }
        let other = LatencyHistogram::new();
        for &v in &[2u64, 9, 500_000] {
            other.record(v);
        }
        live.merge_from(&other);
        assert_eq!(live.snapshot(), ab);
    }

    #[test]
    fn histogram_since_subtracts_bucketwise() {
        let h = LatencyHistogram::new();
        h.record(10);
        h.record(2_000);
        let baseline = h.snapshot();
        h.record(10);
        h.record(64);
        let delta = h.snapshot().since(&baseline);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 74);
        // The max is conservative but bounded by the highest delta
        // bucket (64 lives in [64, 79]).
        let max = delta.max().unwrap();
        assert!((64..=79).contains(&max), "delta max {max} out of range");
        // Nothing recorded → empty delta.
        let snap = h.snapshot();
        assert!(snap.since(&snap).is_empty());
    }

    // --- instance traces ---

    fn trace(chip: u64) -> InstanceTrace {
        InstanceTrace {
            chip_index: chip,
            redraws: 0,
            injected_edge: Some(3),
            n_suspects: 4,
            n_patterns: 6,
            clk: Some(1.25),
            patterns_nanos: 100,
            observe_nanos: 200,
            dictionary_nanos: 300,
            rank_nanos: 400,
            dict_cache_hits: 1,
            dict_cache_misses: 0,
            store_hits: 0,
            store_misses: 0,
            pattern_cache_hits: 0,
            pattern_cache_misses: 0,
            pattern_store_hits: 0,
            pattern_store_misses: 0,
            cone_walks: 0,
            tenant: String::new(),
            outcome: TraceOutcome::Diagnosed,
        }
    }

    #[test]
    fn record_instance_feeds_counters_histograms_and_ring() {
        let sink = MetricsSink::new();
        let per_instance = CampaignMetrics {
            patterns_nanos: 100,
            observe_nanos: 200,
            dictionary_nanos: 300,
            rank_nanos: 400,
            dict_cache_hits: 1,
            samples_simulated: 60,
            ..CampaignMetrics::default()
        };
        sink.record_instance(&per_instance, trace(0));
        sink.record_instance(&per_instance, trace(1));
        let snap = sink.snapshot(Duration::ZERO);
        assert_eq!(snap.patterns_nanos, 200);
        assert_eq!(snap.rank_nanos, 800);
        assert_eq!(snap.dict_cache_hits, 2);
        assert_eq!(snap.samples_simulated, 120);
        for phase in Phase::ALL {
            assert_eq!(snap.phase_latency.get(phase).count(), 2);
        }
        assert_eq!(snap.phase_latency.dictionary.sum(), snap.dictionary_nanos);
        assert_eq!(sink.trace_seq(), 2);
        let traces = sink.traces_since(0);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].chip_index, 0);
        assert_eq!(traces[1].chip_index, 1);
        // A later baseline only sees later traces.
        assert!(sink.traces_since(2).is_empty());
    }

    #[test]
    fn skipped_phases_do_not_skew_phase_histograms() {
        // Regression: a served instance that reuses a shared pattern set
        // spends 0 ns in the pattern phase. Those instances used to record
        // a 0 ns observation, dragging the pattern-phase percentiles
        // toward zero; now a phase that never ran is simply not recorded.
        let sink = MetricsSink::new();
        let full = CampaignMetrics {
            patterns_nanos: 100,
            observe_nanos: 200,
            dictionary_nanos: 300,
            rank_nanos: 400,
            dict_cache_hits: 1,
            ..CampaignMetrics::default()
        };
        let served = CampaignMetrics {
            patterns_nanos: 0,
            observe_nanos: 200,
            dictionary_nanos: 300,
            rank_nanos: 400,
            dict_cache_hits: 1,
            ..CampaignMetrics::default()
        };
        let mut served_trace = trace(1);
        served_trace.patterns_nanos = 0;
        sink.record_instance(&full, trace(0));
        sink.record_instance(&served, served_trace);
        let snap = sink.snapshot(Duration::ZERO);
        // Only the instance that actually ran the pattern phase shows up
        // in its histogram; the other phases keep both observations.
        assert_eq!(snap.phase_latency.patterns.count(), 1);
        assert_eq!(snap.phase_latency.observe.count(), 2);
        assert_eq!(snap.phase_latency.dictionary.count(), 2);
        assert_eq!(snap.phase_latency.rank.count(), 2);
        // The percentile floor is the real 100 ns observation, not 0.
        assert!(snap.phase_latency.patterns.percentile(0.0).unwrap() > 0);
        // The sum == aggregate invariant survives (zeros add nothing).
        assert_eq!(snap.phase_latency.patterns.sum(), snap.patterns_nanos);
        // And a complete report over these traces still validates.
        let report = MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            circuit: "demo".into(),
            trials: 2,
            counters: snap,
            traces: sink.traces_since(0),
        };
        report.validate().expect("skip-aware report validates");
    }

    #[test]
    fn trace_ring_is_bounded() {
        let sink = MetricsSink::new();
        let zero = CampaignMetrics::default();
        let n = TRACE_RING_CAPACITY as u64 + 10;
        for chip in 0..n {
            sink.record_instance(&zero, trace(chip));
        }
        assert_eq!(sink.trace_seq(), n);
        let kept = sink.traces_since(0);
        assert_eq!(kept.len(), TRACE_RING_CAPACITY);
        // The ring keeps the most recent traces.
        assert_eq!(kept.first().unwrap().chip_index, 10);
        assert_eq!(kept.last().unwrap().chip_index, n - 1);
    }

    // --- MetricsReport / MetricsExport ---

    fn consistent_report() -> MetricsReport {
        let sink = MetricsSink::new();
        let per_instance = CampaignMetrics {
            patterns_nanos: 100,
            observe_nanos: 200,
            dictionary_nanos: 300,
            rank_nanos: 400,
            dict_cache_hits: 1,
            ..CampaignMetrics::default()
        };
        sink.record_instance(&per_instance, trace(0));
        sink.record_instance(&per_instance, trace(1));
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            circuit: "demo".into(),
            trials: 2,
            counters: sink.snapshot(Duration::ZERO),
            traces: sink.traces_since(0),
        }
    }

    #[test]
    fn metrics_report_validates_and_roundtrips_through_json() {
        let report = consistent_report();
        report.validate().expect("consistent report validates");
        let export = MetricsExport::new(vec![report]);
        export.validate().expect("export validates");
        let back = MetricsExport::from_json(&export.to_json()).expect("json parses");
        assert_eq!(export, back);
        back.validate().expect("round-tripped export validates");
    }

    #[test]
    fn metrics_report_validation_catches_inconsistencies() {
        let good = consistent_report();

        let mut wrong_version = good.clone();
        wrong_version.schema_version = 99;
        assert!(wrong_version.validate().unwrap_err().contains("schema"));

        // Trials larger than the trace/histogram count is legal (an
        // incomplete trace set), but a histogram count *exceeding* the
        // trial count can never be right.
        let mut extra_trials = good.clone();
        extra_trials.trials = 5;
        extra_trials
            .validate()
            .expect("incomplete trace set is legal");
        let mut wrong_trials = good.clone();
        wrong_trials.trials = 1;
        assert!(wrong_trials.validate().unwrap_err().contains("count"));

        let mut wrong_sum = good.clone();
        wrong_sum.counters.rank_nanos += 1;
        assert!(wrong_sum.validate().is_err());

        let mut kernel_overflow = good.clone();
        kernel_overflow.counters.kernel_nanos = kernel_overflow.counters.dictionary_nanos + 1;
        assert!(kernel_overflow
            .validate()
            .unwrap_err()
            .contains("kernel_nanos"));

        let mut analytic_overflow = good.clone();
        analytic_overflow.counters.analytic_nanos = analytic_overflow.counters.dictionary_nanos + 1;
        assert!(analytic_overflow
            .validate()
            .unwrap_err()
            .contains("analytic_nanos"));

        let mut wrong_trace_sum = good.clone();
        wrong_trace_sum.traces[0].dict_cache_hits += 1;
        assert!(wrong_trace_sum
            .validate()
            .unwrap_err()
            .contains("dict_cache_hits"));
    }

    #[test]
    fn metrics_report_validation_rejects_corrupt_histogram_buckets() {
        let good = consistent_report();
        let corrupt = |buckets: Vec<(u32, u64)>| {
            let mut report = good.clone();
            report.counters.session_latency = HistogramSnapshot {
                count: buckets.iter().fold(0, |sum, &(_, n)| sum.wrapping_add(n)),
                buckets,
                sum: 5,
                max: 5,
            };
            report.validate().unwrap_err()
        };
        // Past the shift width: percentile queries would overflow.
        assert!(corrupt(vec![(300, 1)]).contains("bucket index 300 out of range"));
        // Past the last bucket (251) but still shiftable.
        assert!(corrupt(vec![(254, 1)]).contains("bucket index 254 out of range"));
        // Sparse buckets must be strictly ascending: no reordering, no
        // duplicates.
        assert!(corrupt(vec![(40, 1), (30, 1)]).contains("not strictly ascending"));
        assert!(corrupt(vec![(33, 1), (33, 1)]).contains("not strictly ascending"));
        // Bucket counts whose sum wraps must not pass as the count.
        assert!(corrupt(vec![(30, u64::MAX), (40, 2)]).contains("overflow"));
        // The same check guards the phase histograms.
        let mut phase = good.clone();
        phase.counters.phase_latency.rank.buckets = vec![(NUM_BUCKETS as u32, 2)];
        assert!(phase
            .validate()
            .unwrap_err()
            .contains("rank histogram bucket index 252 out of range"));
    }

    // --- schema v1 contract ---

    /// A deterministic report with every counter nonzero and distinct,
    /// all five histograms non-empty and one trace with every field set.
    /// It validates (the trace set is incomplete, so trace sums are not
    /// checked) and exercises every optional `render` line.
    fn schema_v1_report() -> MetricsReport {
        let hist = |values: &[u64]| {
            let h = LatencyHistogram::new();
            for &v in values {
                h.record(v);
            }
            h.snapshot()
        };
        let counters = CampaignMetrics {
            patterns_nanos: 2_251_500_000,
            observe_nanos: 100_500,
            dictionary_nanos: 50_000_000,
            rank_nanos: 750,
            total_nanos: 75_000_000_000,
            dict_cache_hits: 31,
            dict_cache_misses: 11,
            samples_simulated: 4_800,
            kernel_nanos: 20_000_000,
            cone_evals: 96_000,
            cone_walks: 1_234,
            analytic_nanos: 7_000_000,
            analytic_evals: 5_120,
            screen_nanos: 3_000_000,
            suspects_screened: 64,
            suspects_refined: 16,
            store_hits: 5,
            store_misses: 2,
            store_flushes: 3,
            store_load_nanos: 1_250,
            pattern_cache_hits: 17,
            pattern_cache_misses: 4,
            pattern_store_hits: 6,
            pattern_store_misses: 1,
            pattern_store_flushes: 9,
            pattern_store_load_nanos: 987_654,
            phase_latency: PhaseLatencies {
                patterns: hist(&[1_500_000, 2_250_000_000]),
                observe: hist(&[40_000, 60_500]),
                dictionary: hist(&[12_000_000, 30_000_000, 8_000_000]),
                rank: hist(&[750]),
            },
            session_latency: hist(&[5_000_000_000, 70_000_000_000]),
        };
        let trace = InstanceTrace {
            chip_index: 7,
            redraws: 2,
            injected_edge: Some(42),
            n_suspects: 13,
            n_patterns: 20,
            clk: Some(1.875),
            patterns_nanos: 1_500_000,
            observe_nanos: 40_000,
            dictionary_nanos: 12_000_000,
            rank_nanos: 750,
            dict_cache_hits: 10,
            dict_cache_misses: 8,
            store_hits: 3,
            store_misses: 1,
            pattern_cache_hits: 12,
            pattern_cache_misses: 2,
            pattern_store_hits: 4,
            pattern_store_misses: 1,
            cone_walks: 600,
            tenant: "alpha".into(),
            outcome: TraceOutcome::Diagnosed,
        };
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            circuit: "s1196".into(),
            trials: 3,
            counters,
            traces: vec![trace],
        }
    }

    const SCHEMA_V1_JSON: &str = include_str!("../tests/golden/metrics_schema_v1.json");
    const SCHEMA_V1_RENDER: &str = include_str!("../tests/golden/metrics_schema_v1_render.txt");

    #[test]
    fn metrics_schema_v1_json_is_pinned() {
        let report = schema_v1_report();
        report.validate().expect("the golden report is consistent");
        let export = MetricsExport::new(vec![report]);
        assert_eq!(export.to_json(), SCHEMA_V1_JSON.trim_end());
        assert_eq!(
            MetricsExport::from_json(SCHEMA_V1_JSON).expect("golden parses"),
            export
        );
    }

    #[test]
    fn metrics_schema_v1_render_is_pinned() {
        assert_eq!(
            schema_v1_report().counters.render(),
            SCHEMA_V1_RENDER.trim_end()
        );
    }

    /// Exports written before the `#[serde(default)]` fields existed must
    /// still parse, with those fields reading zero or empty.
    #[test]
    fn metrics_schema_v1_parses_exports_without_defaulted_fields() {
        const DEFAULTED_COUNTERS: [&str; 16] = [
            "kernel_nanos",
            "cone_evals",
            "cone_walks",
            "analytic_nanos",
            "analytic_evals",
            "screen_nanos",
            "suspects_screened",
            "suspects_refined",
            "pattern_cache_hits",
            "pattern_cache_misses",
            "pattern_store_hits",
            "pattern_store_misses",
            "pattern_store_flushes",
            "pattern_store_load_nanos",
            "phase_latency",
            "session_latency",
        ];
        const DEFAULTED_TRACE: [&str; 6] = [
            "pattern_cache_hits",
            "pattern_cache_misses",
            "pattern_store_hits",
            "pattern_store_misses",
            "cone_walks",
            "tenant",
        ];
        fn entry<'a>(value: &'a mut serde::Value, key: &str) -> &'a mut serde::Value {
            match value {
                serde::Value::Map(entries) => {
                    &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1
                }
                _ => panic!("{key}: not a map"),
            }
        }
        fn first(value: &mut serde::Value) -> &mut serde::Value {
            match value {
                serde::Value::Array(items) => &mut items[0],
                _ => panic!("not an array"),
            }
        }
        fn strip(value: &mut serde::Value, keys: &[&str]) {
            let serde::Value::Map(entries) = value else {
                panic!("not a map")
            };
            for key in keys {
                let before = entries.len();
                entries.retain(|(k, _)| k != key);
                assert_eq!(entries.len() + 1, before, "{key} missing from golden");
            }
        }
        let mut doc: serde::Value = serde_json::from_str(SCHEMA_V1_JSON).unwrap();
        let report = first(entry(&mut doc, "reports"));
        strip(entry(report, "counters"), &DEFAULTED_COUNTERS);
        strip(first(entry(report, "traces")), &DEFAULTED_TRACE);
        let old = MetricsExport::from_json(&serde_json::to_string(&doc).unwrap())
            .expect("old export parses");
        let (m, t) = (&old.reports[0].counters, &old.reports[0].traces[0]);
        let golden = schema_v1_report();
        let expected = CampaignMetrics {
            patterns_nanos: golden.counters.patterns_nanos,
            observe_nanos: golden.counters.observe_nanos,
            dictionary_nanos: golden.counters.dictionary_nanos,
            rank_nanos: golden.counters.rank_nanos,
            total_nanos: golden.counters.total_nanos,
            dict_cache_hits: golden.counters.dict_cache_hits,
            dict_cache_misses: golden.counters.dict_cache_misses,
            samples_simulated: golden.counters.samples_simulated,
            store_hits: golden.counters.store_hits,
            store_misses: golden.counters.store_misses,
            store_flushes: golden.counters.store_flushes,
            store_load_nanos: golden.counters.store_load_nanos,
            ..CampaignMetrics::default()
        };
        assert_eq!(m, &expected);
        let expected_trace = InstanceTrace {
            pattern_cache_hits: 0,
            pattern_cache_misses: 0,
            pattern_store_hits: 0,
            pattern_store_misses: 0,
            cone_walks: 0,
            tenant: String::new(),
            ..golden.traces[0].clone()
        };
        assert_eq!(t, &expected_trace);
    }
}
