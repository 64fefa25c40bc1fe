//! The traced benchmark run: prints the per-layer metrics of one workload.
//! Usage: `cirbench-traced --workload <name> --seed <n> --seconds <s>
//! --trace 1`. Only this binary installs the counting allocator.

#[global_allocator]
static ALLOC: cirbench::trace::CountingAlloc = cirbench::trace::CountingAlloc;

fn main() {
    let args = cirbench::Args::from_env();
    if !args.trace {
        eprintln!("cirbench-traced: --trace 0 runs the cirbench binary");
        std::process::exit(2);
    }
    let report = cirbench::trace::run_traced_bench(&args);
    report.print();
}
