//! The batch workload `search` (one bi-level architecture search per
//! call), plus the dataset, config and genotype every workload shares. A
//! call is one job a user waits for; the timed phase repeats identical
//! calls.

use crate::metrics::Values;
use crate::trace::Delta;
use crate::{lap, Args, Phase, Workload};
use autocts::{AutoCts, BlockGenotype, Genotype, SearchConfig, SupernetModel};
use cts_data::{build_windows, generate, CtsData, DatasetSpec, SplitWindows};
use cts_ops::OpKind;
use rand::{rngs::SmallRng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Sensors in the synthetic METR-LA-like dataset.
pub const SENSORS: usize = 32;
/// Time-axis scale of the dataset (of METR-LA's 34 272 steps).
const TIME_SCALE: f32 = 0.02;
/// Window stride.
const STRIDE: usize = 1;

/// The dataset every workload builds from its seed: generated, then cut
/// into train/val/test windows (at most `cap` per split).
pub struct Dataset {
    pub spec: DatasetSpec,
    pub data: CtsData,
    pub windows: SplitWindows,
}

impl Dataset {
    /// Generate and window the dataset for `seed`, timing both steps into
    /// `laps` when tracing.
    pub fn build(seed: u64, cap: usize, trace: bool, laps: &mut Values) -> Self {
        let spec = DatasetSpec::metr_la().scaled(SENSORS as f32 / 207.0, TIME_SCALE);
        let data = lap(trace, laps, "data.generate_s", || generate(&spec, seed));
        let windows = lap(trace, laps, "data.windows_s", || {
            build_windows(&data, STRIDE, cap)
        });
        Self {
            spec,
            data,
            windows,
        }
    }
}

/// The fixed supernet / model size every workload uses.
pub fn config(seed: u64, batch_size: usize) -> SearchConfig {
    SearchConfig {
        m: 3,
        b: 2,
        d_model: 16,
        batch_size,
        epochs: 1,
        seed,
        ..Default::default()
    }
}

/// The fixed genotype served: GDCC then Informer-T, with a
/// DGCN skip edge, in every block.
pub fn genotype(cfg: &SearchConfig) -> Genotype {
    let block = BlockGenotype {
        m: 3,
        edges: vec![
            (0, 1, OpKind::Gdcc),
            (1, 2, OpKind::InformerT),
            (0, 2, OpKind::Dgcn),
        ],
    };
    Genotype {
        blocks: vec![block; cfg.b],
        backbone: vec![0, 1],
    }
}

/// Median milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// Repeat `call` until `seconds` have passed (at least once), recording
/// each call's latency. `call` returns `Ok(units)` or a failure message.
fn repeat_calls(
    seconds: f64,
    notes: &mut Vec<String>,
    mut call: impl FnMut() -> Result<f64, String>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = call();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        phase.attempted += 1;
        match out {
            Ok(units) => {
                phase.units += units;
                phase.rates.push(units * 1e3 / ms);
                phase.latency.record(ms);
            }
            Err(e) => {
                phase.failed += 1;
                notes.push(e);
            }
        }
    }
    phase.secs = start.elapsed().as_secs_f64();
    phase
}

/// Search windows per split: 32 training windows give 16 pseudo-train
/// windows, i.e. two step pairs per epoch (one call) at batch 8.
const SEARCH_WINDOWS: usize = 32;
const SEARCH_BATCH: usize = 8;

/// `search`: `AutoCts::try_search` on a fixed small supernet, one epoch
/// per call, derive and preflight included.
pub struct Search {
    set: Dataset,
    cfg: SearchConfig,
    auto: AutoCts,
    /// Text of the first derived genotype; every later call must match.
    reference: Option<String>,
    last: Option<Genotype>,
    notes: Vec<String>,
}

impl Search {
    /// Set up the dataset and the search facade.
    pub fn setup(args: &Args, laps: &mut Values) -> Result<Self, String> {
        let set = Dataset::build(args.seed, SEARCH_WINDOWS, args.trace, laps);
        let cfg = config(args.seed, SEARCH_BATCH);
        let auto = AutoCts::try_new(cfg.clone()).map_err(|e| e.to_string())?;
        Ok(Self {
            set,
            cfg,
            auto,
            reference: None,
            last: None,
            notes: Vec::new(),
        })
    }
}

/// One call of the batch workload, failing on any failed call.
fn warm_up_call(work: &mut dyn Workload) -> Result<(), String> {
    let phase = work.run(0.0, false);
    if phase.failed > 0 {
        let mut notes = Vec::new();
        work.check(&mut notes);
        return Err(format!("warm-up call failed: {}", notes.join("; ")));
    }
    Ok(())
}

impl Workload for Search {
    fn warm_up(&mut self) -> Result<(), String> {
        warm_up_call(self)
    }

    fn run(&mut self, seconds: f64, _traced: bool) -> Phase {
        let Self {
            set,
            auto,
            reference,
            last,
            notes,
            ..
        } = self;
        repeat_calls(seconds, notes, || {
            let out = auto
                .try_search(&set.spec, &set.data.graph, &set.windows)
                .map_err(|e| format!("search failed: {e}"))?;
            let text = out.genotype.to_text();
            match reference {
                None => *reference = Some(text),
                Some(r) if *r != text => {
                    return Err(format!(
                        "search derived a different genotype: {text} vs {r}"
                    ))
                }
                Some(_) => {}
            }
            *last = Some(out.genotype);
            Ok(out.stats.steps as f64)
        })
    }

    fn check(&mut self, notes: &mut Vec<String>) -> (u64, u64) {
        notes.append(&mut self.notes);
        let Some(g) = &self.last else {
            notes.push("no search call succeeded".into());
            return (1, 1);
        };
        notes.push(format!("derived genotype: {}", g.to_text()));
        match autocts::preflight::preflight(&self.cfg, g, &self.set.spec, &self.set.data.graph) {
            Ok(_) => (1, 0),
            Err(e) => {
                notes.push(format!("derived genotype fails preflight: {e}"));
                (1, 1)
            }
        }
    }

    fn layers(&mut self, delta: &Delta, phase: &Phase, v: &mut Values) {
        let derive_ns = delta.phase_ns(cts_obs::Phase::Derive);
        v.set(
            "core.derive_ms",
            derive_ns as f64 / 1e6 / phase.attempted.max(1) as f64,
        );
        if let Some(g) = &self.last {
            let (cfg, set) = (&self.cfg, &self.set);
            v.set(
                "verify.preflight_ms",
                median_ms(5, || {
                    black_box(
                        autocts::preflight::preflight(cfg, g, &set.spec, &set.data.graph).is_ok(),
                    );
                }),
            );
        }
        let set = &self.set;
        let build_ms = median_ms(5, || {
            let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
            black_box(SupernetModel::new(
                &mut rng,
                &self.cfg,
                &set.spec,
                &set.data.graph,
                &set.windows.scaler,
            ));
        });
        v.set("core.model_build_s", build_ms / 1e3);
    }
}
