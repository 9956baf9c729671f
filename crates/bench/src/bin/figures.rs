//! Print the reproduction of every figure and claim of the paper.
//!
//! ```text
//! cargo run -p cf2df-bench --bin figures              # everything
//! cargo run -p cf2df-bench --bin figures -- f9-f11 c4 # selected
//! ```

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
        eprintln!("unknown figure id; available:");
        for (name, _) in cf2df_bench::figures::all_reports() {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
    print!("{}", cf2df_bench::figures::render(&selected));
}
