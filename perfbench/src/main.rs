//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, a digest line and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}`; a failed check shows
//! there, with one line per failure on stderr. Exits 2 on a usage error.
//! A traced run also writes its result, provenance and spans to
//! `out/<workload>-seed<n>.trace.json` under the package directory, for
//! `compare.py`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::{run, Opts, Outcome, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper-figs|halo-4k|serve-roundtrip> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut opts = Opts::new(Workload::PaperFigs, 0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(bad)?),
            "--seed" => opts.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = val.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// JSON string literal.
fn js(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust's shortest round-trip form gives.
fn jn(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout the benchmark was built from, read from its
/// `.git` directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(r))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(opts: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git_commit\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"warmups\":{}}}",
        js(&cpu_model()),
        js(env!("PERFBENCH_RUSTC")),
        js(&git_commit()),
        js(opts.workload.name()),
        opts.seed,
        jn(opts.seconds),
        opts.trace,
        opts.setups,
    )
}

fn digest(out: &Outcome) -> String {
    match out.digest {
        Some(d) => format!(
            "{{\"events\":{},\"end_time_ns\":{},\"reports_fnv\":\"{:016x}\"}}",
            d.events, d.end_time, d.reports_fnv
        ),
        None => "null".to_string(),
    }
}

fn result(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                js(&m.name),
                jn(m.value),
                js(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(",")
    )
}

fn write_trace_file(
    opts: &Opts,
    prov: &str,
    digest: &str,
    result: &str,
    out: &Outcome,
) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        opts.workload.name(),
        opts.seed
    ));
    let mut text = format!(
        "{{\"provenance\":{prov},\"digest\":{digest},\"passes\":{},\"spans\":[",
        out.passes
    );
    for (i, s) in out.spans.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let pass = if s.pass == perfbench::span::DIFF_PASS {
            "\"diff\"".to_string()
        } else {
            s.pass.to_string()
        };
        let _ = write!(
            text,
            "\n{{\"id\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{pass}}}",
            s.id,
            js(s.name),
            s.start_ns,
            s.end_ns
        );
    }
    let _ = write!(text, "\n],\"result\":{result}}}\n");
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let started = Instant::now();
    perfbench::alloc::pin_malloc();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let out = run(&opts, started);
    for note in &out.tally.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let prov = provenance(&opts);
    let dig = digest(&out);
    let res = result(&out);
    if opts.trace {
        match write_trace_file(&opts, &prov, &dig, &res, &out) {
            Ok(path) => eprintln!("perfbench: wrote {path}"),
            Err(e) => eprintln!("perfbench: could not write the trace file: {e}"),
        }
    }
    println!("{{\"provenance\":{prov}}}");
    println!("{{\"digest\":{dig},\"passes\":{}}}", out.passes);
    println!("{res}");
    ExitCode::SUCCESS
}
