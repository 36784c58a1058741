//! End-to-end and per-layer benchmark of the ZiGong serving engine and
//! its select-and-tune pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload score_templated --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end figures, measured with tracing off; with `--trace 1`
//! they are the per-layer figures of a traced run, which also measures
//! tracing overhead against an untraced twin. See `NOTES.md` for why each
//! workload exists and which end-to-end figure each layer should move.

mod ledger;
mod load;
mod serve;
mod stats;
mod tune;

use std::collections::BTreeMap;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per untraced run; `setup_s` is the fastest of them.
pub const SETUP_REPEATS: usize = 5;

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The five end-to-end figures every workload reports untraced.
pub fn end_to_end(
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
    throughput_per_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    println!("latency samples: {samples}");
    vec![
        Metric {
            name: "p50_ms",
            value: p50_ms,
            unit: "ms",
        },
        Metric {
            name: "p99_ms",
            value: p99_ms,
            unit: "ms",
        },
        Metric {
            name: "throughput_per_s",
            value: throughput_per_s,
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MiB",
        },
    ]
}

/// Every per-layer figure a traced run prints, with its unit. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("tokenizer.encode_ms", "ms"),
    ("tokenizer.prompt_bytes", "bytes"),
    ("tokenizer.prompt_tokens", "tokens"),
    ("model.prefill_ms", "ms"),
    ("model.prefill_tokens", "tokens"),
    ("model.decode_ms", "ms"),
    ("model.decode_steps", "count"),
    ("model.score_ms", "ms"),
    ("model.kv_forks", "count"),
    ("prefix.hit_token_rate", "ratio"),
    ("prefix.hits_per_insert", "ratio"),
    ("prefix.evictions_per_req", "count"),
    ("prefix.resident_tokens", "tokens"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.sched_ms", "ms"),
    ("serve.admit_us", "us"),
    ("serve.execute_ms", "ms"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_gflop", "GFLOP"),
    ("tensor.pool_hit_rate", "ratio"),
    ("train.samples_per_s", "1/s"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("influence.grad_ms", "ms"),
    ("influence.grads", "count"),
    ("influence.score_ms", "ms"),
    ("select.ms", "ms"),
    ("eval.item_ms", "ms"),
    ("setup.tokenizer_s", "s"),
    ("setup.engine_start_s", "s"),
    ("setup.warmup_s", "s"),
    ("unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer figures by name, as a workload measured them.
pub type Layers = BTreeMap<&'static str, f64>;

pub fn layer_metrics(mut values: Layers) -> Vec<Metric> {
    let out = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.remove(name).unwrap_or(0.0),
            unit,
        })
        .collect();
    assert!(
        values.is_empty(),
        "unlisted per-layer metrics: {:?}",
        values.keys()
    );
    out
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload score_templated|select_tune --seed N --seconds N --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        zg_tensor::available_threads()
    );
    let outcome = match args.workload.as_str() {
        "score_templated" => serve::run(&args),
        "select_tune" => tune::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    for m in &outcome.metrics {
        println!("  {:<26} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "p50_ms",
                value: 1.0 / 3.0,
                unit: "ms",
            }],
        };
        assert_eq!(
            json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
    }

    /// The figures printed are the ones `BENCHMARK.json` declares, with
    /// the same units.
    #[test]
    fn metrics_match_benchmark_json() {
        use zg_trace::jsonl::{parse, Json};
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            let list = doc.get(key).and_then(Json::as_arr).expect(key);
            list.iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let printed = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(
            declared("end_to_end"),
            printed(end_to_end(1.0, 1.0, 1, 1.0, 1.0, 1.0))
        );
        assert_eq!(declared("per_layer"), printed(layer_metrics(Layers::new())));
    }

    #[test]
    fn every_layer_is_printed_once() {
        let mut v = Layers::new();
        v.insert("select.ms", 2.5);
        let m = layer_metrics(v);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m.iter().filter(|x| x.value != 0.0).count(), 1);
    }
}
