//! `verify-space`: sweep the discrete AutoCTS search space through the
//! static analyzer and cross-check its verdicts against the runtime.
//!
//! For every assignment of the compact operator set to the canonical
//! derived micro topology (M = 3: edges (0,1), (1,2), (0,2)) crossed with
//! every macro backbone at B = 2, the sweep:
//!
//! 1. runs `cts-verify` pre-flight (structure + gradient reachability)
//!    — no kernel executed;
//! 2. smoke-trains every *accepted* candidate for one step,
//!    cross-checks the static edge-liveness verdict against the autograd
//!    tape (`Tape::reachable_params`) and the actual gradients, and
//!    proves the compiled tape-free plan (`cts-runtime`) bit-identical
//!    to the tape forward;
//! 3. for candidates rejected as gradient-starved or identically zero,
//!    builds the model anyway and proves the rejection correct: the
//!    starved parameters really receive an exactly-zero gradient.
//!
//! Any disagreement between the analyzer and the runtime — an accepted
//! candidate that panics, a liveness verdict the tape contradicts — is a
//! false positive/negative and exits non-zero. `scripts/check.sh` runs
//! this binary as part of the gate.
//!
//! Every accepted candidate is additionally priced by the static cost
//! model (`autocts::preflight::analyze_cost`): the candidate table gains FLOPs,
//! peak-bytes and predicted-latency columns, and any candidate whose
//! priced forward latency disagrees with the measured compiled-plan
//! forward by more than 10× in either direction is listed as a
//! calibration bug rather than silently accepted. Prices use
//! `LatencyModel::default()`, the coefficients the search pre-flight
//! ships with.

use autocts::preflight::{analyze_cost, arch_spec};
use autocts::{BlockGenotype, DerivedModel, Genotype, SearchConfig};
use cts_autograd::Tape;
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec, Scaler};
use cts_nn::{Forecaster, LossKind};
use cts_ops::compact_set;
use cts_verify::{CostReport, FindingKind, LatencyModel, VerifyReport};
use rand::{rngs::SmallRng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use cts_obs::Stopwatch;

/// Edge slots of the canonical M = 3 derived block: the mandatory
/// predecessor edges (0,1), (1,2) plus the extra edge (0,2).
const SLOTS: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];
const B: usize = 2;

fn main() -> ExitCode {
    let ops = compact_set();
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
    let data = generate(&spec, 11);
    let windows = build_windows(&data, 6, 24);
    let cfg = SearchConfig {
        m: 3,
        b: B,
        d_model: 8,
        batch_size: 2,
        ..Default::default()
    };
    let train_batches = batches_from_windows(&windows.train, cfg.batch_size);
    let backbones: Vec<Vec<usize>> = vec![vec![0, 0], vec![0, 1]];

    let latency = LatencyModel::default();
    println!(
        "default latency model: dense {:.3} ns/flop, light {:.3} ns/flop, dispatch {:.0} ns",
        latency.dense_ns_per_flop, latency.light_ns_per_flop, latency.dispatch_ns
    );

    let mut candidates = 0usize;
    let mut accepted = 0usize;
    let mut smoked = 0usize;
    let mut rejected_proven = 0usize;
    let mut rejections: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut inconsistencies: Vec<String> = Vec::new();
    // One row per analyzed candidate: genotype, backbone, verdict, cost.
    let mut table: Vec<String> = Vec::new();
    let mut calibration_bugs: Vec<String> = Vec::new();

    for ai in 0..ops.len() {
        for bi in 0..ops.len() {
            for ci in 0..ops.len() {
                let combo = [ops[ai], ops[bi], ops[ci]];
                let block = BlockGenotype {
                    m: 3,
                    edges: SLOTS
                        .iter()
                        .zip(combo)
                        .map(|(&(f, t), op)| (f, t, op))
                        .collect(),
                };
                // Both backbones share the block pair, so the runtime
                // cross-check runs once per operator combo (on the chain
                // backbone) while the static pass covers every backbone.
                let mut reports = Vec::new();
                for backbone in &backbones {
                    candidates += 1;
                    let genotype = Genotype {
                        blocks: vec![block.clone(); B],
                        backbone: backbone.clone(),
                    };
                    let arch = arch_spec(&cfg, &genotype, &spec, &data.graph);
                    let report = cts_verify::validate_genotype(&arch);
                    let cost = if report.is_ok() {
                        accepted += 1;
                        match analyze_cost(&arch, cfg.batch_size) {
                            Ok(c) => Some(c),
                            Err(e) => {
                                inconsistencies.push(format!(
                                    "{}: accepted by the analyzer but refused by the cost model: {e}",
                                    genotype.to_text()
                                ));
                                None
                            }
                        }
                    } else {
                        for f in report.errors() {
                            *rejections.entry(kind_name(f.kind)).or_insert(0) += 1;
                        }
                        None
                    };
                    table.push(table_row(
                        &genotype,
                        backbone,
                        &report,
                        cost.as_ref(),
                        &latency,
                    ));
                    reports.push((genotype, report, cost));
                }
                let (genotype, report, cost) = &reports[1]; // chain backbone
                let seed = (ai * 36 + bi * 6 + ci) as u64;
                if report.is_ok() {
                    smoked += 1;
                    match smoke_candidate(
                        &cfg,
                        genotype,
                        &spec,
                        &data,
                        &train_batches,
                        &windows.scaler,
                        report,
                        seed,
                    ) {
                        Err(msg) => inconsistencies.push(format!("{}: {msg}", genotype.to_text())),
                        Ok(Some(measured_ns)) => {
                            if let Some(c) = cost {
                                let predicted_ns = c.predicted_ns(&latency);
                                let ratio = predicted_ns / measured_ns.max(1.0);
                                if !(0.1..=10.0).contains(&ratio) {
                                    calibration_bugs.push(format!(
                                        "{}: predicted {:.1} us vs measured {:.1} us forward ({}x off)",
                                        genotype.to_text(),
                                        predicted_ns / 1e3,
                                        measured_ns / 1e3,
                                        if ratio > 1.0 { format!("{ratio:.1}") } else { format!("1/{:.1}", 1.0 / ratio) },
                                    ));
                                }
                            }
                        }
                        Ok(None) => {}
                    }
                } else if report.errors().all(|f| {
                    matches!(
                        f.kind,
                        FindingKind::StarvedParam | FindingKind::AllZeroInput
                    )
                }) {
                    // The model is still buildable: prove the rejection.
                    rejected_proven += 1;
                    if let Err(msg) = smoke_candidate(
                        &cfg,
                        genotype,
                        &spec,
                        &data,
                        &train_batches,
                        &windows.scaler,
                        report,
                        seed,
                    ) {
                        inconsistencies.push(format!("{}: {msg}", genotype.to_text()));
                    }
                }
            }
        }
    }

    println!(
        "verify-space: M=3 micro slots x {} compact ops x {} backbones at B={B}",
        ops.len(),
        backbones.len()
    );
    println!(
        "  {:<40} {:>8} {:>10} {:>10} {:>10}",
        "genotype", "verdict", "MFLOPs", "peak KB", "pred us"
    );
    for row in &table {
        println!("  {row}");
    }
    println!("  candidates analyzed : {candidates}");
    println!("  accepted            : {accepted}");
    println!("  rejected            : {}", candidates - accepted);
    for (kind, count) in &rejections {
        println!("    {kind}: {count} finding(s)");
    }
    println!(
        "  smoke-trained       : {smoked} accepted combos + {rejected_proven} rejected combos \
         (backbone variants share blocks, so each operator combo trains once)"
    );
    if calibration_bugs.is_empty() {
        println!("  latency calibration : every smoked candidate priced within 10x of its measured forward");
    } else {
        println!(
            "  latency calibration : {} CALIBRATION BUG(S) — priced latency >10x off the measured forward:",
            calibration_bugs.len()
        );
        for bug in &calibration_bugs {
            println!("    {bug}");
        }
    }

    if inconsistencies.is_empty() {
        println!("OK: static verdicts agree with the runtime on every candidate.");
        ExitCode::SUCCESS
    } else {
        eprintln!("{} inconsistencies:", inconsistencies.len());
        for m in &inconsistencies {
            eprintln!("  {m}");
        }
        ExitCode::FAILURE
    }
}

/// Render one candidate table row: genotype, verdict, and (when priced)
/// total MFLOPs, plan-faithful peak KB, and predicted forward latency.
fn table_row(
    genotype: &Genotype,
    backbone: &[usize],
    report: &VerifyReport,
    cost: Option<&CostReport>,
    latency: &LatencyModel,
) -> String {
    let name = format!(
        "{} bb{backbone:?}",
        genotype.blocks[0]
            .edges
            .iter()
            .map(|(_, _, op)| op.label())
            .collect::<Vec<_>>()
            .join("/")
    );
    match cost {
        Some(c) => format!(
            "{:<40} {:>8} {:>10.3} {:>10.1} {:>10.1}",
            name,
            "ok",
            c.total.flops as f64 / 1e6,
            c.peak_bytes as f64 / 1e3,
            c.predicted_ns(latency) / 1e3,
        ),
        None => {
            let verdict = report.errors().next().map_or("ok", |f| kind_name(f.kind));
            format!(
                "{name:<40} {verdict:>8} {:>10} {:>10} {:>10}",
                "-", "-", "-"
            )
        }
    }
}

/// Build the model, run one forward/backward step, and cross-check the
/// analyzer's edge-liveness verdict against the tape and the gradients.
/// For accepted candidates, returns the measured compiled-plan forward
/// time in ns (best of 3) for the latency-calibration cross-check.
#[allow(clippy::too_many_arguments)]
fn smoke_candidate(
    cfg: &SearchConfig,
    genotype: &Genotype,
    spec: &DatasetSpec,
    data: &cts_data::CtsData,
    train_batches: &[(cts_tensor::Tensor, cts_tensor::Tensor)],
    scaler: &Scaler,
    report: &VerifyReport,
    seed: u64,
) -> Result<Option<f64>, String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = DerivedModel::new(&mut rng, cfg, genotype, spec, &data.graph, scaler);
        let (x, y) = &train_batches[0];
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let pred = model.forward(&tape, &xv);
        let loss = LossKind::MaskedMae {
            null_value: spec.null_value,
        }
        .compute(&tape, &pred, y);
        let reachable = tape.reachable_params(&loss);
        tape.backward(&loss);

        let params = model.parameters();
        let mut problems = Vec::new();
        let mut measured_ns = None;
        // Accepted candidates must also compile to a tape-free plan whose
        // forward is bit-identical to the tape forward (epsilon 0).
        if report.is_ok() {
            match model
                .compiled_plan()
                .map_err(|e| e.to_string())
                .and_then(|plan| {
                    plan.try_run(x)
                        .map_err(|e| e.to_string())
                        .map(|out| (plan, out))
                }) {
                Ok((plan, compiled)) => {
                    let tape_out = pred.value();
                    if compiled.shape() != tape_out.shape() {
                        problems.push(format!(
                            "compiled shape {:?} != tape shape {:?}",
                            compiled.shape(),
                            tape_out.shape()
                        ));
                    } else if let Some(i) = compiled
                        .data()
                        .iter()
                        .zip(tape_out.data().iter())
                        .position(|(a, b)| a.to_bits() != b.to_bits())
                    {
                        problems.push(format!(
                            "compiled forward diverges from tape at scalar {i}: {} vs {}",
                            compiled.data()[i],
                            tape_out.data()[i]
                        ));
                    } else {
                        // Warm plan: time the forward, best of 3.
                        let mut best = f64::INFINITY;
                        for _ in 0..3 {
                            let t0 = Stopwatch::start();
                            let _ = plan.try_run(x);
                            best = best.min(t0.elapsed_secs() * 1e9);
                        }
                        measured_ns = Some(best);
                    }
                }
                Err(e) => problems.push(format!("accepted candidate failed to compile/run: {e}")),
            }
        }
        for (i, block) in genotype.blocks.iter().enumerate() {
            for (k, (_, _, op)) in block.edges.iter().enumerate() {
                if !op.is_parametric() {
                    continue;
                }
                let prefix = format!("block{i}.e{k}.");
                let edge_params: Vec<_> = params
                    .iter()
                    .filter(|p| p.name().starts_with(&prefix))
                    .collect();
                if edge_params.is_empty() {
                    problems.push(format!("no parameters found under {prefix}"));
                    continue;
                }
                let static_live = report.edge_liveness[i][k];
                let tape_live = edge_params
                    .iter()
                    .any(|p| reachable.iter().any(|q| q.ptr_eq(p)));
                if static_live != tape_live {
                    problems.push(format!(
                        "{prefix} static liveness {static_live} but tape reachability {tape_live}"
                    ));
                }
                if !static_live {
                    for p in &edge_params {
                        let g = p.grad().norm();
                        if g != 0.0 {
                            problems.push(format!(
                                "{} declared starved but has gradient norm {g}",
                                p.name()
                            ));
                        }
                    }
                }
            }
        }
        (problems, measured_ns)
    }));
    match result {
        Ok((problems, measured_ns)) if problems.is_empty() => Ok(measured_ns),
        Ok((problems, _)) => Err(problems.join("; ")),
        Err(_) => Err("panicked during smoke training".into()),
    }
}

fn kind_name(kind: FindingKind) -> &'static str {
    match kind {
        FindingKind::MalformedBlock => "malformed block",
        FindingKind::DanglingNode => "dangling node",
        FindingKind::BadBackbone => "bad backbone",
        FindingKind::AllZeroInput => "all-zero input",
        FindingKind::StarvedParam => "starved parameter",
        FindingKind::DeadNode => "dead node",
        FindingKind::OverBudget => "over budget",
    }
}
