//! Predicted-vs-measured audit of the static cost model: writes
//! `BENCH_cost.json` at the repo root (or `$BENCH_OUT_DIR`).
//!
//! One row per operator family in the full Table 1 set. Each family is
//! embedded in a canonical two-block architecture dominated by that
//! operator (non-parametric families ride with a parametric anchor so
//! the analyzer accepts the genotype), compiled to a tape-free
//! `ExecPlan`, and then priced twice:
//!
//! - **statically** by `autocts::preflight::analyze_cost`, which never executes
//!   a kernel, and
//! - **dynamically** by running the plan under the `cts_tensor::meter`
//!   instrumentation and a wall-clock timer.
//!
//! FLOPs and bytes must match bit for bit — the model claims exactness,
//! not approximation — so those columns are booleans. Latency is a
//! 3-coefficient linear model; the JSON carries two calibrations: the
//! shipped `LatencyModel::default()` (what the search pre-flight and
//! `verify_space` price with) and a weighted least-squares refit against
//! the measured family rows. `--gate` holds every refit ratio inside a
//! generous 3x band — i.e. it tests that dense-flops/light-flops/calls
//! explain real forward latency at all — and fails on any exactness
//! miss. `--gate` also compares the compiled-in `LatencyModel::default()`
//! flop coefficients against the refit: if a kernel-speed change (e.g.
//! the SIMD microkernels) moves real throughput more than 3x away from
//! the shipped defaults, the gate fails until the defaults are
//! re-calibrated (dispatch overhead is host-scheduling noise and is
//! excluded). A candidate priced more than 10x off its measured forward
//! is `verify_space`'s alarm, not this gate's.

use autocts::preflight::{analyze_cost, arch_spec};
use autocts::{BlockGenotype, DerivedModel, Genotype, SearchConfig};
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_ops::{full_set, OpKind};
use cts_tensor::{arena, meter};
use cts_verify::LatencyModel;
use rand::{rngs::SmallRng, SeedableRng};
use std::time::Instant;

/// The canonical M = 3 derived-block architecture dominated by `op`,
/// falling back to an anchor operator on the middle slot when the pure
/// assignment is rejected (all-`zero` feeds nothing forward, all-
/// `identity` has no trainable parameter).
fn family_genotype(
    op: OpKind,
    cfg: &SearchConfig,
    spec: &DatasetSpec,
    data: &cts_data::CtsData,
) -> Option<Genotype> {
    let mut slates = vec![vec![(0, 1, op), (1, 2, op), (0, 2, op)]];
    for anchor in full_set() {
        slates.push(vec![(0, 1, anchor), (1, 2, anchor), (0, 2, op)]);
    }
    for edges in slates {
        let block = BlockGenotype { m: 3, edges };
        let genotype = Genotype {
            blocks: vec![block.clone(); cfg.b],
            backbone: vec![0, 1],
        };
        if cts_verify::validate_genotype(&arch_spec(cfg, &genotype, spec, &data.graph)).is_ok() {
            return Some(genotype);
        }
    }
    None
}

struct Row {
    family: &'static str,
    dense_flops: f64,
    light_flops: f64,
    calls: f64,
    predicted_ns: f64,
    measured_ns: f64,
    peak_bytes: u64,
    genotype: String,
    counts: String,
    exact: bool,
}

/// Weighted least-squares refit of the 3-coefficient latency model
/// against the measured rows: minimises the squared **relative** error
/// (each row scaled by its measured time), solved via the 3x3 normal
/// equations, coefficients clamped positive.
fn refit(rows: &[Row]) -> LatencyModel {
    let mut ata = [[0.0f64; 3]; 3];
    let mut atb = [0.0f64; 3];
    for r in rows {
        let w = 1.0 / r.measured_ns.max(1.0);
        let a = [r.dense_flops * w, r.light_flops * w, r.calls * w];
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += a[i] * a[j];
            }
            atb[i] += a[i]; // target is measured_ns * w = 1
        }
    }
    let det3 = |m: &[[f64; 3]; 3]| -> f64 {
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    };
    let d = det3(&ata);
    let solve = |col: usize| -> f64 {
        let mut m = ata;
        for (row, &b) in m.iter_mut().zip(&atb) {
            row[col] = b;
        }
        det3(&m) / d
    };
    if d.abs() < 1e-30 {
        return LatencyModel::default();
    }
    LatencyModel {
        dense_ns_per_flop: solve(0).clamp(0.001, 1e4),
        light_ns_per_flop: solve(1).clamp(0.001, 1e4),
        dispatch_ns: solve(2).clamp(0.1, 1e7),
    }
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let out_dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".into());

    let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
    let data = generate(&spec, 11);
    let windows = build_windows(&data, 6, 24);
    let cfg = SearchConfig {
        m: 3,
        b: 2,
        d_model: 16,
        batch_size: 4,
        ..Default::default()
    };
    let batches = batches_from_windows(&windows.train, cfg.batch_size);
    let (x, _) = &batches[0];
    let batch = x.shape()[0];

    let latency = LatencyModel::default();
    println!(
        "bench_cost: default {{dense {:.3} ns/flop, light {:.3} ns/flop, dispatch {:.0} ns/call}}",
        latency.dense_ns_per_flop, latency.light_ns_per_flop, latency.dispatch_ns
    );

    let mut rows: Vec<Row> = Vec::new();
    for op in full_set() {
        let Some(genotype) = family_genotype(op, &cfg, &spec, &data) else {
            eprintln!(
                "bench_cost: no accepted architecture for family {}",
                op.label()
            );
            std::process::exit(1);
        };
        let mut rng = SmallRng::seed_from_u64(17);
        let model = DerivedModel::new(
            &mut rng,
            &cfg,
            &genotype,
            &spec,
            &data.graph,
            &windows.scaler,
        );
        // invariant: family_genotype only returns analyzer-accepted genotypes
        let plan = model.compiled_plan().expect("accepted genotypes compile");
        let static_cost = plan.static_cost(batch);
        let arch = arch_spec(&cfg, &genotype, &spec, &data.graph);
        // invariant: the same accepted spec priced fine via the plan walk above
        let report = analyze_cost(&arch, batch).expect("accepted genotypes price");
        assert_eq!(
            report.total, static_cost,
            "analyzer disagrees with plan walk"
        );

        // Exactness: one instrumented forward against the static counts.
        arena::clear();
        meter::reset();
        meter::set_enabled(true);
        let out = plan.try_run(x);
        meter::set_enabled(false);
        let m = meter::snapshot();
        assert!(
            out.is_ok(),
            "family {} failed to run: {:?}",
            op.label(),
            out.err()
        );
        let exact = static_cost.flops == m.flops
            && static_cost.bytes_read == m.bytes_read()
            && static_cost.bytes_written == m.bytes_written()
            && static_cost.kernel_calls == m.kernel_calls;

        // Latency: warm best-of-5 forward against the fitted model.
        let mut best_ns = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            // invariant: the instrumented cold run above already succeeded
            let y = plan.try_run(x).expect("warm forward");
            best_ns = best_ns.min(t0.elapsed().as_nanos() as f64);
            drop(y);
        }
        rows.push(Row {
            family: op.label(),
            dense_flops: report.total.dense_flops as f64,
            light_flops: report.total.flops.saturating_sub(report.total.dense_flops) as f64,
            calls: report.total.kernel_calls as f64,
            predicted_ns: latency.predict_ns(&report.total),
            measured_ns: best_ns,
            peak_bytes: report.peak_bytes,
            genotype: genotype.to_text(),
            counts: format!(
                "\"flops\": {}, \"flops_measured\": {}, \"flops_exact\": {}, \
                 \"bytes_read\": {}, \"bytes_read_measured\": {}, \"bytes_read_exact\": {}, \
                 \"bytes_written\": {}, \"bytes_written_measured\": {}, \"bytes_written_exact\": {}, \
                 \"kernel_calls\": {}, \"kernel_calls_measured\": {}",
                static_cost.flops,
                m.flops,
                static_cost.flops == m.flops,
                static_cost.bytes_read,
                m.bytes_read(),
                static_cost.bytes_read == m.bytes_read(),
                static_cost.bytes_written,
                m.bytes_written(),
                static_cost.bytes_written == m.bytes_written(),
                static_cost.kernel_calls,
                m.kernel_calls,
            ),
            exact,
        });
    }

    let fitted = refit(&rows);
    println!(
        "bench_cost: refit from rows {{dense {:.3} ns/flop, light {:.3} ns/flop, dispatch {:.0} ns/call}}",
        fitted.dense_ns_per_flop, fitted.light_ns_per_flop, fitted.dispatch_ns
    );

    let fit_ns = |r: &Row| {
        r.dense_flops * fitted.dense_ns_per_flop
            + r.light_flops * fitted.light_ns_per_flop
            + r.calls * fitted.dispatch_ns
    };
    for r in &rows {
        println!(
            "  {:<14} exact {:<5}  default {:>9.1} us  fit {:>9.1} us  meas {:>9.1} us  fit ratio {:>5.2}",
            r.family,
            r.exact,
            r.predicted_ns / 1e3,
            fit_ns(r) / 1e3,
            r.measured_ns / 1e3,
            fit_ns(r) / r.measured_ns.max(1.0),
        );
    }

    let all_exact = rows.iter().all(|r| r.exact);
    let worst_ratio = rows
        .iter()
        .map(|r| {
            let q = fit_ns(r) / r.measured_ns.max(1.0);
            q.max(1.0 / q.max(1e-12))
        })
        .fold(1.0f64, f64::max);

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"family\": \"{}\", \"genotype\": \"{}\", \"batch\": {}, {}, \
                 \"peak_bytes\": {}, \"default_predicted_ns\": {:.0}, \"fit_predicted_ns\": {:.0}, \
                 \"measured_ns\": {:.0}, \"latency_ratio\": {:.4}}}",
                r.family,
                r.genotype,
                batch,
                r.counts,
                r.peak_bytes,
                r.predicted_ns,
                fit_ns(r),
                r.measured_ns,
                fit_ns(r) / r.measured_ns.max(1.0),
            )
        })
        .collect();
    let par = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut body = format!(
        "{{\n  \"host\": {{\"available_parallelism\": {par}, \"simd_detected\": \"{}\", \
         \"simd_active\": \"{}\"}},\n  \"rows\": [\n",
        cts_tensor::simd::detected_name(),
        cts_tensor::simd::level_name()
    );
    body.push_str(&json_rows.join(",\n"));
    body.push_str(&format!(
        "\n  ],\n  \"calibration_default\": {{\"dense_ns_per_flop\": {:.4}, \
         \"light_ns_per_flop\": {:.4}, \"dispatch_ns\": {:.1}}},\n  \
         \"calibration_fit\": {{\"dense_ns_per_flop\": {:.4}, \
         \"light_ns_per_flop\": {:.4}, \"dispatch_ns\": {:.1}}},\n  \
         \"summary\": {{\"families\": {}, \"all_exact\": {}, \"worst_fit_latency_ratio\": {:.4}}}\n}}\n",
        latency.dense_ns_per_flop,
        latency.light_ns_per_flop,
        latency.dispatch_ns,
        fitted.dense_ns_per_flop,
        fitted.light_ns_per_flop,
        fitted.dispatch_ns,
        rows.len(),
        all_exact,
        worst_ratio,
    ));
    let path = std::path::Path::new(&out_dir).join("BENCH_cost.json");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("bench_cost: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
    println!(
        "summary: {} families, all_exact {}, worst fitted latency ratio {:.2}",
        rows.len(),
        all_exact,
        worst_ratio
    );

    if gate {
        let mut bad = false;
        for r in rows.iter().filter(|r| !r.exact) {
            eprintln!("GATE: family {} flops/bytes not exact", r.family);
            bad = true;
        }
        if worst_ratio > 3.0 {
            eprintln!("GATE: worst fitted latency ratio {worst_ratio:.2} outside the 3x band");
            bad = true;
        }
        // Stale-default detection: the shipped coefficients back every
        // budget pre-flight, so a kernel-speed change that
        // moves real flop throughput 3x away from them must refresh
        // `LatencyModel::default()` (dispatch excluded — it tracks the host
        // scheduler, not kernel code).
        let band = |fit: f64, def: f64, name: &str| -> bool {
            let q = fit / def.max(1e-12);
            let q = q.max(1.0 / q.max(1e-12));
            if q > 3.0 {
                eprintln!(
                    "GATE: {name} refit {fit:.4} ns/flop is {q:.2}x away from the shipped \
                     default {def:.4} — re-calibrate LatencyModel::default()"
                );
            }
            q > 3.0
        };
        bad |= band(
            fitted.dense_ns_per_flop,
            latency.dense_ns_per_flop,
            "dense_ns_per_flop",
        );
        bad |= band(
            fitted.light_ns_per_flop,
            latency.light_ns_per_flop,
            "light_ns_per_flop",
        );
        if bad {
            std::process::exit(1);
        }
        println!(
            "gate: flops/bytes exact on every family, fitted latency inside the 3x band, \
             shipped defaults within 3x of refit"
        );
    }
}
