//! Print the reproduction of every figure and claim of the paper.
//!
//! ```text
//! cargo run -p cf2df-bench --bin figures              # everything
//! cargo run -p cf2df-bench --bin figures -- f9-f11 c4 # selected
//! ```
//!
//! Exit status: 0 on success, 2 for an unknown figure id, and 141 when
//! stdout closes early (e.g. `| head`): the output then ends quietly.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reports = cf2df_bench::figures::all_reports();
    let selected: Vec<_> = if args.is_empty() {
        reports
    } else {
        reports
            .into_iter()
            .filter(|(name, _)| args.iter().any(|a| a == name))
            .collect()
    };
    if selected.is_empty() {
        cf2df_bench::write_stderr(format_args!("unknown figure id; available:\n"));
        for (name, _) in cf2df_bench::figures::all_reports() {
            cf2df_bench::write_stderr(format_args!("  {name}\n"));
        }
        std::process::exit(2);
    }
    cf2df_bench::write_stdout(format_args!("{}", cf2df_bench::figures::render(&selected)));
}
