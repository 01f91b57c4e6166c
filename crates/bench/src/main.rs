//! The `hsc` executable: see `hsc help` and [`hsc_bench::cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    hsc_bench::cli::run(std::env::args().skip(1), &mut std::io::stdout())
}
