//! Process and host counters read from `/proc`.
//!
//! Peak RSS and CPU time are metrics; steal time, load average and the
//! available parallelism are diagnostics printed next to the metrics so
//! a noisy run can be told apart from a slow build. Every reader returns
//! `None` where the file is missing (a non-Linux host), and the caller
//! reports what it could read.

use std::time::Duration;

/// The process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time consumed so far by the executor pools' worker threads,
/// which the machine crate names `cf2df-pool-<w>`; summed from each
/// thread's schedstat (ns resolution). Harness threads (callers, load
/// generator, collector) are left out, so spinning in the executor shows
/// and spinning in the harness does not.
pub fn pool_cpu() -> Option<Duration> {
    let mut total = 0u64;
    let mut found = false;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let dir = task.path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("cf2df-pool-") {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        found = true;
    }
    found.then(|| Duration::from_nanos(total))
}

/// Host-wide steal time so far, in jiffies (`USER_HZ`, 1/100 s): CPU
/// time the hypervisor gave to other guests while this one had work.
pub fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// The 1, 5 and 15 minute load averages.
pub fn loadavg() -> Option<[f64; 3]> {
    let s = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = s.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some([it.next()??, it.next()??, it.next()??])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_parse_this_host() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        // A worker names itself when it starts; a finished run proves
        // that it has.
        let pool = cf2df_machine::ExecutorPool::new(1);
        let parsed = cf2df_lang::parse_to_cfg(cf2df_lang::corpus::GCD).expect("corpus parses");
        let opts = cf2df_core::pipeline::TranslateOptions::full_parallel_schema3();
        let t = cf2df_core::pipeline::translate_cfg(parsed.cfg, parsed.alias, &opts)
            .expect("corpus translates");
        let cg = cf2df_machine::compile(&t.dfg).expect("compiles");
        let layout = cf2df_cfg::MemLayout::distinct(&t.cfg.vars);
        let cfg = cf2df_machine::ParConfig::default();
        let (res, _, _) =
            cf2df_machine::run_threaded_compiled_pooled_with(&cg, &layout, &pool, &cfg);
        res.expect("runs");
        assert!(
            pool_cpu().is_some(),
            "the pool's worker thread is found by name"
        );
        drop(pool);
        assert!(steal_jiffies().is_some());
        assert!(loadavg().is_some());
    }
}
