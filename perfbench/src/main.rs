//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then the result as the last line of
//! standard output: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

fn main() {
    let code = match perfbench::harness::parse_args(std::env::args().skip(1)) {
        Ok(args) => perfbench::harness::main_with(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
