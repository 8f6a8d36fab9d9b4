//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! Extra flags: `--tiny` runs the workload at its smallest size (the
//! self-tests use it); `--print-pins` prints the per-input check lines for
//! `pins/seed1.txt`, learned from this run, instead of the result.
//! `perfbench --connect <addr>` is the worker process of the
//! `pool_small_batches` workload.

use perfbench::{pins, pool, run_named, Expected, Settings, Size, UNLISTED, WORKLOADS};

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}|{}> --seed <n> --seconds <s> --trace <0|1> \
         [--tiny] [--print-pins]",
        WORKLOADS.join("|"),
        UNLISTED.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, addr] = args.as_slice() {
        if flag == "--connect" {
            if let Err(e) = pool::serve_worker(addr) {
                eprintln!("perfbench worker: {e}");
                std::process::exit(1);
            }
            return;
        }
    }

    let mut args = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut size, mut print_pins) = (Size::Full, false);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--tiny" => size = Size::Tiny,
            "--print-pins" => print_pins = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
                match flag.as_str() {
                    "--workload" => workload = Some(value),
                    "--seed" => seed = value.parse::<u64>().ok(),
                    "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
                    _ => trace = Some(value == "1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed must be an unsigned integer"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds must be a number >= 0"));
    let expected = if print_pins {
        Expected::Learned(Vec::new())
    } else {
        Expected::for_run(&workload, seed, size)
    };
    let settings = Settings {
        seed,
        seconds,
        trace: trace.unwrap_or(false),
        size,
        expected,
    };
    let report = run_named(&workload, settings)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    if print_pins {
        print!("{}", pins::format(&workload, &report.expected.values()));
    } else {
        println!("{}", report.to_json());
    }
}
