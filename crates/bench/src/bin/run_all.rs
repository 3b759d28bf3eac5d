//! Runs every table/figure experiment in sequence and echoes the combined
//! report (tee it into a file to refresh EXPERIMENTS.md data).

type ExpFn = fn(&cts_bench::ExpContext) -> String;

fn main() {
    let ctx = cts_bench::ExpContext::from_env();
    eprintln!("context: {ctx:?}");
    let experiments: Vec<(&str, ExpFn)> = vec![
        (
            "Table 38 / Table 1 (taxonomy)",
            cts_bench::experiments::table38::run,
        ),
        (
            "Table 3 (variant pre-study)",
            cts_bench::experiments::table03::run,
        ),
        (
            "Figure 6 (T-operator families)",
            cts_bench::experiments::fig06::run,
        ),
        (
            "Tables 5-6 (multi-step accuracy)",
            cts_bench::experiments::table05_06::run,
        ),
        (
            "Table 7 (search cost)",
            cts_bench::experiments::table07::run,
        ),
        (
            "Table 8 (single-step accuracy)",
            cts_bench::experiments::table08::run,
        ),
        (
            "Tables 9-16 (ablations)",
            cts_bench::experiments::table09_16::run,
        ),
        (
            "Tables 17-26 (M/B sensitivity)",
            cts_bench::experiments::table17_26::run,
        ),
        (
            "Tables 27-34 (runtime & parameters)",
            cts_bench::experiments::table27_34::run,
        ),
        (
            "Table 35 (transferability)",
            cts_bench::experiments::table35::run,
        ),
        (
            "Tables 36-37 (edges per node)",
            cts_bench::experiments::table36_37::run,
        ),
        ("Figure 8 (case study)", cts_bench::experiments::fig08::run),
    ];
    let total = std::time::Instant::now();
    for (name, run) in experiments {
        eprintln!(">>> running {name} ...");
        let started = std::time::Instant::now();
        let report = run(&ctx);
        println!("{report}");
        eprintln!("<<< {name} done in {:.1}s", started.elapsed().as_secs_f64());
    }
    eprintln!("total: {:.1}s", total.elapsed().as_secs_f64());
}
