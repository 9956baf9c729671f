//! `e2ebench --workload <oneshot|run_heavy|serve_open> --seed <n>
//! --seconds <s> --trace <0|1> [--quick]`
//!
//! With `--trace 0`, runs one workload untraced and prints its
//! end-to-end metrics. With `--trace 1`, runs the traced pass of every
//! workload, prints every per-layer metric and writes the spans to
//! `out/trace-seed<n>.json` in this package's directory. The last line
//! of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

use cf2df_e2ebench::{end_to_end, traced, Outcome, Params, Workload};
use std::process::exit;

struct Args {
    workload: Workload,
    params: Params,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <oneshot|run_heavy|serve_open> --seed <n> \
         --seconds <s> --trace <0|1> [--quick]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 3600.0) {
                    usage("--seconds must be in (0, 3600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        params: Params {
            seed: seed.unwrap_or_else(|| usage("--seed is required")),
            seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
            quick,
        },
        trace: trace.unwrap_or(false),
    }
}

fn print(out: &Outcome) {
    println!("{}", out.metrics.render().trim_end());
    println!(
        "attempted {} failed {}; {}",
        out.attempted,
        out.failed,
        out.diagnostics
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("{}", out.to_json());
}

fn main() {
    let args = parse_args();
    let p = args.params;
    if args.trace {
        let (out, tracers) = traced(&p).unwrap_or_else(|e| {
            eprintln!("e2ebench: {e}");
            exit(1)
        });
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-seed{}.json", p.seed));
        let mut doc = cf2df_bench::json::Obj::new();
        for (w, tr) in &tracers {
            doc.raw(w.name(), &tr.to_json());
        }
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.finish())) {
            Ok(()) => eprintln!("e2ebench: spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
        }
        print(&out);
    } else {
        let out = end_to_end(args.workload, &p).unwrap_or_else(|e| {
            eprintln!("e2ebench: {}: {e}", args.workload.name());
            exit(1)
        });
        print(&out);
    }
}
