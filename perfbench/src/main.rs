//! The trilist benchmark: one workload per process.
//!
//! ```text
//! trilist-perfbench --workload <mix_small|mix_large|edit_churn|batch_matrix>
//!                   --seed <n> --seconds <s> --trace <0|1> [--wrong-reference]
//! ```
//!
//! `--trace 0` measures the untraced socket (or library) run and prints
//! the end-to-end metrics; `--trace 1` adds the server's counter deltas
//! and the traced in-process replay, and prints the per-layer metrics.
//! The last stdout line is the JSON result; the run exits non-zero on a
//! wrong answer, a replay mismatch or a gauge-identity failure.
//! `--wrong-reference` corrupts the reference answers, to show that the
//! checks bite.

mod batch;
mod catalog;
mod graphs;
mod replay;
mod report;
mod serve;
mod sys;
mod trace;

use catalog::Values;
use report::Outcome;

pub const WORKLOADS: [&str; 4] = ["mix_small", "mix_large", "edit_churn", "batch_matrix"];

/// Replays per mode (untraced, traced); each request keeps its fastest.
const REPLAY_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    wrong_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        wrong_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--wrong-reference" => args.wrong_reference = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Where runs write their result and span files.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The run's stamp (seed, commit, toolchain, CPU), passed in by the
/// wrapper script as a JSON object.
fn stamp() -> String {
    std::env::var("PERFBENCH_STAMP").unwrap_or_else(|_| "{}".to_string())
}

fn write_file(name: &str, body: &str) {
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        if let Err(e) = std::fs::write(dir.join(name), body) {
            eprintln!("cannot write {name}: {e}");
        }
    }
}

/// Writes the spans of a traced run, one JSON object per line.
fn write_trace(workload: &str, seed: u64, spans: &[trace::Span]) {
    let header = format!("{{\"workload\": \"{workload}\", \"stamp\": {}}}", stamp());
    write_file(
        &format!("spans-{workload}-{seed}.jsonl"),
        &trace::to_jsonl(&header, spans),
    );
}

/// What a workload measured: catalog values, values printed for reading
/// only, and the spans of the traced run (empty untraced).
type Measured = (Values, Values, Vec<trace::Span>);

fn serve_workload(spec: serve::Spec, args: &Args, out: &mut Outcome) -> Measured {
    let mut values = Values::default();
    let mut notes = Values::default();
    let env = serve::Env::new(spec, args.seed, args.wrong_reference);
    let Some((socket, running)) = serve::socket_run(&env, args.seconds, out) else {
        return (values, notes, Vec::new());
    };
    // the server drains and joins before anything else is measured
    drop(running);
    serve::end_to_end(&env, &socket, &mut values, &mut notes);
    if args.trace {
        serve::stats_layers(&socket, &mut values);
        let plain = replay::fastest(&env, &socket, false, REPLAY_PASSES);
        let traced = replay::fastest(&env, &socket, true, REPLAY_PASSES);
        for m in plain.mismatches.iter().chain(&traced.mismatches) {
            out.problem(format!("replay fidelity: {m}"));
        }
        notes.set("replay.compared", traced.compared as f64, traced.compared);
        replay::layers(
            &env,
            &socket,
            &plain,
            &traced,
            &mut values,
            &mut out.problems,
        );
        return (values, notes, traced.tracer.spans);
    }
    (values, notes, Vec::new())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let (values, notes, spans) = match args.workload.as_str() {
        "mix_small" => serve_workload(serve::MIX_SMALL, &args, &mut out),
        "mix_large" => serve_workload(serve::MIX_LARGE, &args, &mut out),
        "edit_churn" => serve_workload(serve::EDIT_CHURN, &args, &mut out),
        _ => {
            let (values, spans) = batch::run(
                batch::N,
                args.seed,
                args.seconds,
                args.trace,
                args.wrong_reference,
                &mut out,
            );
            (values, Values::default(), spans)
        }
    };
    if args.trace {
        write_trace(&args.workload, args.seed, &spans);
    }
    if args.trace {
        out.metrics = values.per_layer();
    } else {
        match values.end_to_end() {
            Ok(m) => out.metrics = m,
            Err(missing) => out.problem(format!("no value for {}", missing.join(", "))),
        }
    }
    for m in &out.metrics.clone() {
        if !report::valid_name(&m.name) {
            out.problem(format!("metric name {:?} breaks the grammar", m.name));
        }
    }
    let mut extras = notes.extras();
    extras.extend(values.extras());
    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!("stamp {}", stamp());
    print!(
        "{}",
        report::table(
            &format!("{} {kind} (seed {})", args.workload, args.seed),
            &out.metrics
        )
    );
    print!("{}", report::table("also measured", &extras));
    for p in &out.problems {
        println!("problem: {p}");
    }
    write_file(
        &format!("result-{}-{}-trace{}.json", args.workload, args.seed, args.trace as u8),
        &format!(
            "{{\"workload\": {}, \"stamp\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"also\": {}, \"problems\": [{}]}}\n",
            report::json_string(&args.workload),
            stamp(),
            out.correct(),
            out.attempted,
            out.failed,
            report::metrics_json(&out.metrics),
            report::metrics_json(&extras),
            out.problems
                .iter()
                .map(|p| report::json_string(p))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    println!("{}", report::result_line(&out));
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrong reference answer fails the run and counts toward the failed
    /// share, on the serve path and the library path alike.
    #[test]
    fn wrong_reference_fails_the_run() {
        let spec = serve::Spec {
            n: 300,
            churn: false,
            replay: 8,
        };
        let args = Args {
            workload: "mix_small".into(),
            seed: 3,
            seconds: 0.3,
            trace: false,
            wrong_reference: true,
        };
        let mut out = Outcome::default();
        let (values, notes, _) = serve_workload(spec, &args, &mut out);
        assert!(!out.correct());
        assert!(out.failed > 0 && out.failed <= out.attempted);
        assert!(notes.get("failed_share").is_some_and(|s| s > 0.0));
        assert!(values.get("throughput_rps").is_some());

        let mut honest = Outcome::default();
        let args = Args {
            wrong_reference: false,
            trace: true,
            ..args
        };
        serve_workload(spec, &args, &mut honest);
        assert!(honest.correct(), "{:?}", honest.problems);

        let mut lib = Outcome::default();
        batch::run(600, 3, 0.0, false, true, &mut lib);
        assert!(!lib.correct());
        assert_eq!(lib.failed, lib.attempted, "every listing disagrees");
        let mut lib = Outcome::default();
        let (values, spans) = batch::run(600, 3, 0.0, true, false, &mut lib);
        assert!(lib.correct(), "{:?}", lib.problems);
        assert!(!spans.is_empty());
        assert!(values
            .get("compressed.bytes_ratio")
            .is_some_and(|r| r > 0.0));
    }

    #[test]
    fn churn_answers_match_the_reference_and_the_replay() {
        let spec = serve::Spec {
            n: 300,
            churn: true,
            replay: 15,
        };
        let args = Args {
            workload: "edit_churn".into(),
            seed: 5,
            seconds: 0.3,
            trace: true,
            wrong_reference: false,
        };
        let mut out = Outcome::default();
        let (values, notes, spans) = serve_workload(spec, &args, &mut out);
        assert!(out.correct(), "{:?}", out.problems);
        assert!(!spans.is_empty());
        assert!(notes.get("replay.compared").is_some_and(|n| n > 10.0));
        assert!(values.get("delta.ops_per_new_edge").is_some());
    }
}
