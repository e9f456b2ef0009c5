//! Standalone MIEC scale timer: sequential allocation at arbitrary
//! instance sizes, with an optional wall-time gate.
//!
//! The criterion benches pin their scale points so `BENCH_miec.json`
//! stays comparable across runs; this binary is the free-form
//! counterpart for exploring other sizes without editing a bench:
//!
//! ```text
//! cargo run --release -p esvm-bench --bin miec_scale -- \
//!     --vms 1000000 --servers 100000 [--seed S] [--runs R] \
//!     [--max-seconds T]
//! ```
//!
//! With `--max-seconds T` the binary exits non-zero when the best
//! allocation time exceeds `T` seconds; CI gates the 1M-VM /
//! 100k-server point this way.

use esvm_core::{Allocator, Miec};
use esvm_workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    vms: usize,
    servers: usize,
    seed: u64,
    runs: usize,
    max_seconds: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        vms: 20_000,
        servers: 2_000,
        seed: 1,
        runs: 3,
        max_seconds: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        let int = |name: &str, v: String| v.parse::<usize>().map_err(|e| format!("{name}: {e}"));
        match flag.as_str() {
            "--vms" => args.vms = int("--vms", value("--vms")?)?,
            "--servers" => args.servers = int("--servers", value("--servers")?)?,
            "--seed" => args.seed = int("--seed", value("--seed")?)? as u64,
            "--runs" => args.runs = int("--runs", value("--runs")?)?.max(1),
            "--max-seconds" => {
                let v = value("--max-seconds")?;
                args.max_seconds = Some(
                    v.parse::<f64>()
                        .map_err(|e| format!("--max-seconds: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: miec_scale [--vms N] [--servers N] [--seed S] [--runs R] \
                     [--max-seconds T]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("miec_scale: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "miec_scale: {} VMs / {} servers, seed {}",
        args.vms, args.servers, args.seed
    );

    let start = std::time::Instant::now();
    let problem = WorkloadConfig::new(args.vms, args.servers)
        .mean_interarrival(4.0)
        .generate(args.seed)
        .expect("workload generation");
    println!("generated in {:.3} s", start.elapsed().as_secs_f64());

    let seconds = esvm_bench::time_best(args.runs, || {
        let mut rng = StdRng::seed_from_u64(7);
        Miec::new()
            .allocate(&problem, &mut rng)
            .unwrap()
            .total_cost()
    });
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("sequential {seconds:.3} s ({host} host cores)");
    if let Some(limit) = args.max_seconds {
        if seconds > limit {
            eprintln!("miec_scale: {seconds:.3} s exceeds the {limit} s gate");
            std::process::exit(1);
        }
        println!("within the {limit} s gate");
    }
}
