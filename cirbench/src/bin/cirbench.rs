//! The untraced benchmark run: prints the end-to-end metrics of one
//! workload. Usage: `cirbench --workload <name> --seed <n> --seconds <s>
//! --trace 0`.

fn main() {
    let args = cirbench::Args::from_env();
    if args.trace {
        eprintln!("cirbench: --trace 1 runs the cirbench-traced binary");
        std::process::exit(2);
    }
    let report = cirbench::run_untraced(&args);
    report.print();
}
