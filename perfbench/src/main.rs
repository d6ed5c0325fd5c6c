//! End-to-end and per-layer benchmark of the simulator.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload unfolded_2048_faults --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs the three workloads in one process and prints every
//! metric by name and unit. With `--trace 0` a run measures the workload
//! with tracing off and prints the end-to-end metrics; with `--trace 1` it
//! runs the workload twice, untraced and traced, prints the per-layer
//! metrics derived from the traced pass's spans plus the tracing overhead,
//! and writes the spans to `.perfbench_out/`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod folded;
mod gen;
mod http;
mod jsonscan;
mod served;
mod spans;
mod stats;
mod unfolded;

use std::path::{Path, PathBuf};
use std::time::Instant;

use charllm::prelude::*;
use charllm::CacheStats;
use charllm_sim::{ReferenceSimulator, Simulator};

use gen::Catalogue;
use spans::Tracer;
use stats::{valid_name, Metrics};

pub const WORKLOADS: [&str; 3] = [
    "unfolded_2048_faults",
    "folded_16k_powercap",
    "served_sweep_restart",
];

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("gpu_iter_per_s", "gpu-iter/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload's traced run. A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("trace.lower_s", "s"),
    ("sim.new_s.clean", "s"),
    ("sim.new_s.fail_stop", "s"),
    ("sim.new_s.degrade_straggler", "s"),
    ("sim.run_s.clean", "s"),
    ("sim.run_s.fail_stop", "s"),
    ("sim.run_s.degrade_straggler", "s"),
    ("sim.events.clean", "count"),
    ("sim.events.fail_stop", "count"),
    ("sim.events.degrade_straggler", "count"),
    ("sim.cal_pops_per_event.clean", "ratio"),
    ("sim.cal_pops_per_event.fail_stop", "ratio"),
    ("sim.cal_pops_per_event.degrade_straggler", "ratio"),
    ("sim.cal_drains_per_event.clean", "ratio"),
    ("sim.cal_drains_per_event.fail_stop", "ratio"),
    ("sim.cal_drains_per_event.degrade_straggler", "ratio"),
    ("sim.host_us_per_event.clean", "us"),
    ("sim.host_us_per_event.fail_stop", "us"),
    ("sim.host_us_per_event.degrade_straggler", "us"),
    ("sim.host_s_per_sim_s.clean", "s/s"),
    ("sim.host_s_per_sim_s.fail_stop", "s/s"),
    ("sim.host_s_per_sim_s.degrade_straggler", "s/s"),
    ("sim.events", "count"),
    ("sim.flows_launched", "count"),
    ("sim.peak_live", "count"),
    ("sim.plan_builds", "count"),
    ("sim.shared_plan_hits", "count"),
    ("sim.host_s_per_sim_s", "s/s"),
    ("fault.downtime_s", "s"),
    ("fault.restarts", "count"),
    ("fault.host_s_per_outage_s", "s/s"),
    ("fold.plan_build_s", "s"),
    ("fold.event_loop_s", "s"),
    ("fold.fold_expand_s", "s"),
    ("cache.plans_s", "s"),
    ("cache.lowered_hits", "count"),
    ("cache.lowered_misses", "count"),
    ("cache.lowered_disk_hits", "count"),
    ("cache.plan_hits", "count"),
    ("cache.plan_misses", "count"),
    ("cache.plan_disk_hits", "count"),
    ("cache.bytes_written", "B"),
    ("cache.hit_ratio", "fraction"),
    ("experiment.lower_s", "s"),
    ("experiment.plan_setup_s", "s"),
    ("experiment.event_loop_s", "s"),
    ("experiment.report_s", "s"),
    ("server.submit_ms.p50", "ms"),
    ("server.status_ms.p50", "ms"),
    ("server.result_ms.p50", "ms"),
    ("server.overhead_s.p50", "s"),
    ("first_event_s.p50", "s"),
    ("trace_s.p50", "s"),
    ("stream.bytes", "B"),
    ("telemetry.span_run_s", "s"),
    ("telemetry.chrome_export_s", "s"),
    ("json.print_s", "s"),
    ("trace.bytes", "B"),
    ("tracing.overhead", "fraction"),
    ("trace.self_s.op", "s"),
];

/// What one pass over a workload produced.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The contract's end-to-end metrics.
    pub e2e: Metrics,
    /// Workload-specific end-to-end figures, printed for people.
    pub detail: Metrics,
    /// Per-layer metrics (traced pass only).
    pub layers: Metrics,
    /// Exact result bits of a fixed part of the pass, so the traced and
    /// untraced passes of one seed can be compared.
    pub fingerprint: String,
}

impl Pass {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }
}

/// Run `round` as many times as rounds of `nominal_round_s` fit in
/// `seconds`, at least once. The count depends on `seconds` alone, so every
/// run of a workload does the same work and a faster program finishes
/// sooner. Returns the wall seconds spent.
pub fn run_rounds(seconds: f64, nominal_round_s: f64, mut round: impl FnMut(usize)) -> f64 {
    let rounds = ((seconds / nominal_round_s).round() as usize).max(1);
    let start = Instant::now();
    for r in 0..rounds {
        round(r);
    }
    start.elapsed().as_secs_f64()
}

/// Run `f`, appending its wall seconds to `samples`.
pub fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64());
    out
}

pub fn put_cache_stats(m: &mut Metrics, s: &CacheStats) {
    m.put("cache.lowered_hits", s.lowered_hits as f64, "count");
    m.put("cache.lowered_misses", s.lowered_misses as f64, "count");
    m.put(
        "cache.lowered_disk_hits",
        s.lowered_disk_hits as f64,
        "count",
    );
    m.put("cache.plan_hits", s.plan_hits as f64, "count");
    m.put("cache.plan_misses", s.plan_misses as f64, "count");
    m.put("cache.plan_disk_hits", s.plan_disk_hits as f64, "count");
    m.put("cache.bytes_written", s.bytes_written as f64, "B");
    let lookups = s.lookups().max(1) as f64;
    m.put("cache.hit_ratio", s.hits() as f64 / lookups, "fraction");
}

/// Process high-water resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `Simulator` must equal `ReferenceSimulator` byte for byte; checked once
/// per run, untimed, on point 0 of a catalogue job the seed picks.
fn reference_check(seed: u64) -> Result<(), String> {
    let cat = Catalogue::generate(seed);
    let shape = &cat.shapes[seed as usize % cat.shapes.len()];
    let (cluster, placement, trace, _) = served::point_zero(shape, &Tracer::new(false), 0);
    let cfg = SimConfig::fast();
    let fast = Simulator::new(&cluster, &placement, &trace, cfg)
        .and_then(Simulator::run)
        .map_err(|e| format!("reference check: {e}"))?;
    let reference = ReferenceSimulator::new(&cluster, &placement, &trace, cfg)
        .and_then(ReferenceSimulator::run)
        .map_err(|e| format!("reference check: {e}"))?;
    let a = serde_json::to_string(&fast).expect("result serializes");
    let b = serde_json::to_string(&reference).expect("result serializes");
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "reference check: Simulator and ReferenceSimulator differ on {shape:?} point 0"
        ))
    }
}

/// Median self time of the op root spans: the benchmark's own work
/// between its calls into the layers.
fn op_self_s(tr: &Tracer) -> f64 {
    let spans = tr.spans();
    let selfs: Vec<f64> = spans
        .iter()
        .zip(spans::self_times(&spans))
        .filter(|(s, _)| s.name == "op")
        .map(|(_, t)| t)
        .collect();
    stats::median(&selfs)
}

struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Metrics,
    detail: Metrics,
}

fn run_pass(workload: &str, seed: u64, seconds: f64, tr: &Tracer, work_dir: &Path) -> Pass {
    match workload {
        "unfolded_2048_faults" => unfolded::run(seed, seconds, tr),
        "folded_16k_powercap" => folded::run(seed, seconds, tr),
        "served_sweep_restart" => served::run(seed, seconds, tr, work_dir),
        other => unreachable!("unknown workload {other}"),
    }
}

fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool, work_dir: &Path) -> Outcome {
    let mut attempted = 1;
    let mut failures = Vec::new();
    if let Err(e) = reference_check(seed) {
        failures.push(e);
    }
    let untraced = run_pass(workload, seed, seconds, &Tracer::new(false), work_dir);
    attempted += untraced.attempted;
    failures.extend(untraced.failures);
    let mut e2e = untraced.e2e;
    e2e.put("peak_rss_mb", peak_rss_mb(), "MiB");
    let mut detail = untraced.detail;

    if !trace {
        return Outcome {
            attempted,
            failures,
            metrics: pick(&e2e, &END_TO_END, &mut Vec::new()),
            detail,
        };
    }
    let tracer = Tracer::new(true);
    let traced = run_pass(workload, seed, seconds, &tracer, work_dir);
    attempted += traced.attempted;
    failures.extend(traced.failures);
    if traced.fingerprint != untraced.fingerprint {
        failures.push("traced and untraced passes of one seed gave different results".into());
    }
    let mut layers = traced.layers;
    let ratio =
        traced.e2e.get("op_s.p50").unwrap_or(f64::NAN) / e2e.get("op_s.p50").unwrap_or(f64::NAN);
    layers.note(
        "tracing.overhead",
        ratio - 1.0,
        "fraction",
        "traced / untraced op_s.p50 - 1",
    );
    layers.put("trace.self_s.op", op_self_s(&tracer), "s");
    let path = work_dir.join(format!("spans-{workload}-{seed}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        failures.push(format!("writing {}: {e}", path.display()));
    }
    let mut absent = Vec::new();
    let metrics = pick(&layers, &PER_LAYER, &mut absent);
    if !absent.is_empty() {
        detail.note(
            "layers_not_called",
            absent.len() as f64,
            "count",
            absent.join(" "),
        );
    }
    Outcome {
        attempted,
        failures,
        metrics,
        detail,
    }
}

/// The listed metrics in list order. A per-layer metric the workload never
/// produced reads 0 (its layer was not called) and is named in `absent`.
fn pick(from: &Metrics, names: &[(&str, &'static str)], absent: &mut Vec<String>) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        match from.0.iter().find(|m| m.name == name) {
            Some(m) => out.note(name, m.value, unit, m.note.clone()),
            None => {
                absent.push(name.to_string());
                out.put(name, 0.0, unit);
            }
        }
    }
    out
}

fn print_block(title: &str, m: &Metrics) {
    println!("{title}");
    for x in &m.0 {
        let note = if x.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", x.note)
        };
        println!("  {:<44} {:>16.6} {:<10}{note}", x.name, x.value, x.unit);
    }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work_dir = PathBuf::from(".perfbench_out");
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut attempted = 0;
    let mut failed = 0;
    let mut all: Vec<(String, f64, &str)> = Vec::new();
    for w in &workloads {
        let out = run_workload(w, args.seed, args.seconds, args.trace, &work_dir);
        println!(
            "# {w} seed={} seconds={} trace={} host_cores={cores}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        print_block("workload figures:", &out.detail);
        print_block(
            if args.trace {
                "per-layer metrics:"
            } else {
                "end-to-end metrics:"
            },
            &out.metrics,
        );
        let failed_here = out.failures.len() as u64;
        println!(
            "  {:<44} {:>16.6} {:<10}  ({failed_here} of {} ops)",
            "failed_share",
            failed_here as f64 / out.attempted.max(1) as f64,
            "fraction",
            out.attempted
        );
        for f in &out.failures {
            eprintln!("FAILED [{w}]: {f}");
        }
        attempted += out.attempted;
        failed += failed_here;
        for m in out.metrics.0 {
            let name = if workloads.len() > 1 {
                format!("{w}.{}", m.name)
            } else {
                m.name
            };
            if !(m.value.is_finite() && valid_name(&name)) {
                eprintln!(
                    "FAILED [{w}]: metric {name} = {} is not a measurement",
                    m.value
                );
                failed += 1;
                all.push((name, 0.0, m.unit));
            } else {
                all.push((name, m.value, m.unit));
            }
        }
    }
    // An op can fail several checks; it still counts once.
    let attempted = attempted.max(1);
    let failed = failed.min(attempted);
    println!("{}", json_line(failed == 0, attempted, failed, &all));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// BENCHMARK.json at the repository root lists exactly the metrics the
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(serde_json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(serde_json::Value::as_str).unwrap_or("");
                    (s("name").to_string(), s("unit").to_string())
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(serde_json::Value::as_array)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(serde_json::Value::as_str))
            .map(str::to_string)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn json_line_shape() {
        let line = json_line(true, 3, 0, &[("op_s.p50".into(), 1.25, "s")]);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(v.get("metrics").and_then(|m| m.get("op_s.p50")).is_some());
    }
}
