//! # benchspine — the benchmark spine
//!
//! One suite, fixed workload and metric names, comparable across PRs and
//! attributed by layer. See `README.md` next to this crate for the metric
//! tables, the commands, and the public API the suite is allowed to call.
//!
//! The crate is deliberately *outside* the repository's workspace: every
//! number is taken from outside the program, by timing calls into the
//! layers' public functions.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fixpoint;
pub mod json;
pub mod persist;
pub mod relational;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A workload of the suite: its stable name and why it exists.
pub struct Workload {
    /// The name used on the command line and in every result.
    pub name: &'static str,
    /// One line on which layers it stresses.
    pub why: &'static str,
    /// The untraced run: the end-to-end metrics.
    pub run: fn(&RunConfig) -> EndToEnd,
    /// The traced run: the per-layer metrics; spans go to the given file.
    pub trace: fn(&RunConfig, &std::path::Path) -> Traced,
}

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve.read",
        why: "TCP serving of repeat point queries and scans: transport, codec, parser and result encode dominate; engine idle",
        run: |cfg| serve::run(serve::Mix::Read, cfg),
        trace: |cfg, spans| serve::trace(serve::Mix::Read, cfg, spans),
    },
    Workload {
        name: "serve.mixed",
        why: "same server with 5% Eval, 5% committing Advance, 5% re-pin: writer mutex, MVCC head swap, intern misses, store growth",
        run: |cfg| serve::run(serve::Mix::Mixed, cfg),
        trace: |cfg, spans| serve::trace(serve::Mix::Mixed, cfg, spans),
    },
    Workload {
        name: "fixpoint.fresh",
        why: "library closures over salted chain/tree/join inputs: match/merge rounds, intern misses, memo and sweep cost; no parser or server",
        run: fixpoint::run,
        trace: fixpoint::trace,
    },
    Workload {
        name: "relational.pipeline",
        why: "columnar select/project/join/union over 5000-row flat relations checked against the flat algebra; server and engine idle",
        run: relational::run,
        trace: relational::trace,
    },
    Workload {
        name: "persist.cycle",
        why: "full checkpoint, three delta layers, chain restore to disk: wire encode and decode with re-interning against a live store",
        run: persist::run,
        trace: persist::trace,
    },
];

/// A metric of the suite: name and unit. Directions and bounds live in
/// `BENCHMARK.json`; the suite only has to emit the right names.
pub struct Metric {
    /// Stable metric name.
    pub name: &'static str,
    /// Its unit, as printed.
    pub unit: &'static str,
}

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [Metric; 5] = [
    Metric {
        name: "setup_s",
        unit: "s",
    },
    Metric {
        name: "ops_per_s",
        unit: "1/s",
    },
    Metric {
        name: "latency_p50_us",
        unit: "us",
    },
    Metric {
        name: "latency_p99_us",
        unit: "us",
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
    },
];

/// The per-layer metrics a traced run reports. A layer that is idle on a
/// workload reads 0 there — that *is* the "should not move" prediction.
/// Times are mean self time per replayed op; `1/op` counts are means per
/// replayed op as well, so the time lines add up to the op's duration.
pub const PER_LAYER: [Metric; 32] = [
    Metric {
        name: "server.transport_us",
        unit: "us",
    },
    Metric {
        name: "server.codec_us",
        unit: "us",
    },
    Metric {
        name: "server.handle_us",
        unit: "us",
    },
    Metric {
        name: "parser.parse_us",
        unit: "us",
    },
    Metric {
        name: "parser.bytes",
        unit: "1/op",
    },
    Metric {
        name: "core.interpret_us",
        unit: "us",
    },
    Metric {
        name: "core.result_elems",
        unit: "1/op",
    },
    Metric {
        name: "engine.pin_us",
        unit: "us",
    },
    Metric {
        name: "engine.closure_us",
        unit: "us",
    },
    Metric {
        name: "engine.rounds",
        unit: "1/op",
    },
    Metric {
        name: "engine.checkpoint_us",
        unit: "us",
    },
    Metric {
        name: "engine.restore_us",
        unit: "us",
    },
    Metric {
        name: "object.build_us",
        unit: "us",
    },
    Metric {
        name: "object.intern_hit_ratio",
        unit: "ratio",
    },
    Metric {
        name: "object.intern_misses",
        unit: "1/op",
    },
    Metric {
        name: "object.memo_hit_ratio",
        unit: "ratio",
    },
    Metric {
        name: "object.live_nodes",
        unit: "count",
    },
    Metric {
        name: "object.gc_us",
        unit: "us",
    },
    Metric {
        name: "object.gc_freed_nodes",
        unit: "1/op",
    },
    Metric {
        name: "relational.select_us",
        unit: "us",
    },
    Metric {
        name: "relational.project_us",
        unit: "us",
    },
    Metric {
        name: "relational.join_us",
        unit: "us",
    },
    Metric {
        name: "relational.union_us",
        unit: "us",
    },
    Metric {
        name: "relational.encode_us",
        unit: "us",
    },
    Metric {
        name: "wire.encode_us",
        unit: "us",
    },
    Metric {
        name: "wire.decode_us",
        unit: "us",
    },
    Metric {
        name: "wire.bytes",
        unit: "1/op",
    },
    Metric {
        name: "persist.stored_bytes",
        unit: "1/op",
    },
    Metric {
        name: "trace.op_us",
        unit: "us",
    },
    Metric {
        name: "trace.unexplained_pct",
        unit: "%",
    },
    Metric {
        name: "trace.overhead_pct",
        unit: "%",
    },
    Metric {
        name: "trace.reconciled",
        unit: "bool",
    },
];

/// How one invocation is sized.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Seed for every generated input.
    pub seed: u64,
    /// The measuring window in seconds. Op counts are frozen *per second
    /// of window* (see each workload's constants), so a fixed `--seconds`
    /// means a fixed op count; the window is also the deadline that cuts
    /// a phase short when the program got much slower.
    pub seconds: f64,
    /// How many times set-up is repeated (the median is reported).
    pub setup_reps: usize,
}

impl RunConfig {
    /// `per_second × seconds`, at least `floor`: the frozen op count of a
    /// phase.
    pub fn count(&self, per_second: f64, floor: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(floor)
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time over the repetitions, seconds.
    pub setup_s: f64,
    /// Closed-loop throughput: ops done ÷ wall time.
    pub ops_per_s: f64,
    /// Median latency, µs.
    pub latency_p50_us: f64,
    /// 99th-percentile latency, µs.
    pub latency_p99_us: f64,
    /// Timed ops attempted (all phases).
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Information that is printed but not bounded (`sched_lag_p99_us`,
    /// latency sample counts, …).
    pub info: Vec<(&'static str, f64)>,
}

/// Per-layer metric name → value.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a traced run measured.
pub struct Traced {
    /// The per-layer metrics; names missing here are reported as 0.
    pub layers: Layers,
    /// Whether the trace's parts add up to its wholes.
    pub reconciliation: trace::Reconciliation,
    /// Ops replayed (all passes).
    pub attempted: u64,
    /// Ops that failed or returned a wrong answer.
    pub failed: u64,
}

/// What one invocation prints: the contract's `attempted` / `failed` /
/// `metrics`, plus unbounded information.
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Every metric of the run's kind, in table order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Printed, not bounded.
    pub info: Vec<(&'static str, f64)>,
}

impl From<EndToEnd> for Outcome {
    fn from(e: EndToEnd) -> Outcome {
        let values = [
            e.setup_s,
            e.ops_per_s,
            e.latency_p50_us,
            e.latency_p99_us,
            peak_rss_mb(),
        ];
        let mut info = e.info;
        info.push(("error_rate", e.failed as f64 / e.attempted.max(1) as f64));
        Outcome {
            attempted: e.attempted,
            failed: e.failed,
            metrics: END_TO_END.iter().zip(values).collect(),
            info,
        }
    }
}

impl From<Traced> for Outcome {
    fn from(mut t: Traced) -> Outcome {
        let reconciled = f64::from(u8::from(t.reconciliation.reconciled()));
        t.layers.insert("trace.reconciled", reconciled);
        let mut info: Vec<_> = t
            .reconciliation
            .parts_vs_handle_pct
            .map(|d| ("parts_vs_handle_pct", d))
            .into_iter()
            .collect();
        info.push(("error_rate", t.failed as f64 / t.attempted.max(1) as f64));
        Outcome {
            attempted: t.attempted,
            failed: t.failed,
            metrics: PER_LAYER
                .iter()
                .map(|m| (m, t.layers.get(m.name).copied().unwrap_or(0.0)))
                .collect(),
            info,
        }
    }
}

/// Distance between the integer atoms of consecutive ops of a library
/// workload that salts its inputs.
pub const OP_STRIDE: i64 = 1_000;
/// Distance between the atom ranges of passes (warm-up, measured, …).
pub const PASS_STRIDE: i64 = 1_000_000_000;

/// The first salt of pass `pass` under `seed`: no two passes, seeds below
/// 1 000, or ops share an atom.
pub fn pass_base(seed: u64, pass: i64) -> i64 {
    ((seed % 1000) as i64 * 8 + pass + 1) * PASS_STRIDE
}

/// The first salt of the warm-up of set-up repetition `rep`.
pub fn warmup_base(seed: u64, rep: usize) -> i64 {
    pass_base(seed, 0) + rep as i64 * (PASS_STRIDE / 16)
}

/// SplitMix64: the suite's only source of randomness, so a seed names
/// one exact input sequence on every machine.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (connection id,
    /// phase, …).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The `q`-quantile (nearest rank) of `samples`, which it sorts.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of a few floats (set-up repetitions).
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nanoseconds → microseconds, keeping the fraction.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Runs `setup(rep)` for `rep` in `1..=reps`, timing each; returns the last
/// state and the median time. Earlier states are torn down outside the
/// timed region.
pub fn timed_setups<S>(reps: usize, mut setup: impl FnMut(usize) -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for rep in 1..=reps.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (
        state.expect("at least one set-up ran"),
        median_f64(&mut times),
    )
}

/// A closed loop of one caller: runs `op(i)` for `i in 0..count`, stopping
/// early at `deadline`. Returns per-op durations (ns), the wall time of
/// the loop, and how many ops reported failure. `between(i)` runs after
/// op `i` inside the wall time but outside the latency samples (the
/// harness-issued `collect()`).
pub fn closed_loop(
    count: usize,
    deadline: Duration,
    mut op: impl FnMut(usize) -> bool,
    mut between: impl FnMut(usize),
) -> (Vec<u64>, Duration, u64) {
    let mut samples = Vec::with_capacity(count);
    let mut failed = 0;
    let start = Instant::now();
    for i in 0..count {
        let t = Instant::now();
        let ok = op(i);
        samples.push(t.elapsed().as_nanos() as u64);
        failed += u64::from(!ok);
        between(i);
        if start.elapsed() >= deadline {
            break;
        }
    }
    (samples, start.elapsed(), failed)
}

/// Consecutive parts a latency series is cut into (see
/// [`steady_quantile`]).
pub const SLICES: usize = 5;

/// A latency quantile that one stall cannot move: every caller's series
/// (in time order) is cut into [`SLICES`] consecutive parts, the quantile
/// is taken over each part of the window, and the median of the parts is
/// reported. An fsync or scheduler stall lands in one or two parts; the
/// pooled p99 of a few hundred samples would have *been* that stall
/// (`persist.cycle`: pooled p99 quartiles 26 % of the median apart).
pub fn steady_quantile(series: &[&[u64]], q: f64) -> f64 {
    let mut parts: Vec<f64> = (0..SLICES)
        .filter_map(|k| {
            let mut part: Vec<u64> = series
                .iter()
                .flat_map(|s| {
                    s[k * s.len() / SLICES..(k + 1) * s.len() / SLICES]
                        .iter()
                        .copied()
                })
                .collect();
            (!part.is_empty()).then(|| us(quantile(&mut part, q)))
        })
        .collect();
    median_f64(&mut parts)
}

/// The end-to-end numbers of a one-caller library workload, where the
/// same closed loop yields both throughput and per-op latency.
pub fn library_result(
    setup_s: f64,
    mut samples: Vec<u64>,
    wall: Duration,
    failed: u64,
) -> EndToEnd {
    let (p50, p99) = (
        steady_quantile(&[&samples], 0.50),
        steady_quantile(&[&samples], 0.99),
    );
    EndToEnd {
        setup_s,
        ops_per_s: samples.len() as f64 / wall.as_secs_f64(),
        latency_p50_us: p50,
        latency_p99_us: p99,
        attempted: samples.len() as u64,
        failed,
        info: vec![
            ("latency_samples", samples.len() as f64),
            ("latency_p50_pooled_us", us(quantile(&mut samples, 0.50))),
            ("latency_p99_pooled_us", us(quantile(&mut samples, 0.99))),
            ("latency_max_us", us(quantile(&mut samples, 1.0))),
        ],
    }
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The directory the suite writes into (span files, result files, the
/// checkpoint scratch area): `out/` next to this crate's manifest, so a
/// run reads and writes only inside its checkout.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the suite's out/ directory");
    dir
}

/// Store counters at a boundary of a traced region.
pub struct StoreMark(co_object::store::StoreStats);

impl StoreMark {
    /// Reads `store::stats()` now.
    pub fn now() -> StoreMark {
        StoreMark(co_object::store::stats())
    }

    /// Writes the `object.*` layer metrics for the region since `self`,
    /// which covered `ops` ops.
    pub fn finish(&self, ops: usize, layers: &mut Layers) {
        let (a, b) = (&self.0, co_object::store::stats());
        let ratio = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        let (hits, misses) = (
            b.intern_hits - a.intern_hits,
            b.intern_misses - a.intern_misses,
        );
        let memo = |s: &co_object::store::StoreStats| {
            let (l, u, i) = (s.le_memo, s.union_memo, s.intersect_memo);
            (l.hits + u.hits + i.hits, l.misses + u.misses + i.misses)
        };
        let ((mh0, mm0), (mh1, mm1)) = (memo(a), memo(&b));
        layers.insert("object.intern_hit_ratio", ratio(hits, misses));
        layers.insert("object.intern_misses", misses as f64 / ops as f64);
        layers.insert("object.memo_hit_ratio", ratio(mh1 - mh0, mm1 - mm0));
        layers.insert("object.live_nodes", b.live_nodes as f64);
        layers.insert(
            "object.gc_freed_nodes",
            (b.gc_freed_nodes - a.gc_freed_nodes) as f64 / ops as f64,
        );
    }
}
