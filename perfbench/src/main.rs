//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the workload descriptor, every metric as a readable line, and as the
//! last line one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero when a correctness check fails or an operation fails.

use perfbench::run::{self, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]");
            std::process::exit(2);
        }
    };
    match run::run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
