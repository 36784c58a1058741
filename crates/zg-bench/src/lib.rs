//! # zg-bench
//!
//! Experiment binaries regenerating every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index), plus Criterion
//! microbenchmarks of the substrates.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — instruction templates |
//! | `table2` | Table 2 — benchmark, measured + replay columns |
//! | `table3` | Table 3 — configuration dump |
//! | `figure2` | Figure 2 — pruning study (sample size × selector, Acc + KS) |
//! | `ablations` | Ablations A–D (γ, mix ratio, drift, LoRA rank) |
//!
//! All binaries accept `--quick` for a fast smoke-scale run and write
//! their output under `results/`.
//!
//! The gate binaries (`inference_fast`, `training_fast`, `serve_load`,
//! `trace_report`) share one harness: [`race`] times the sides of each
//! comparison against each other, and [`Gates`] reports every gate's
//! verdict once all have run.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use zg_tensor::{set_gemm_kernel, GemmKernel};
use zg_zigong::CellResult;

/// Where experiment outputs are written.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write `content` to `results/<name>` and echo the path. Quick-mode
/// runs write to `<stem>_quick.<ext>` so they never clobber full-run
/// artifacts.
pub fn write_result(name: &str, content: &str) -> PathBuf {
    let name = if quick_mode() {
        match name.rsplit_once('.') {
            Some((stem, ext)) => format!("{stem}_quick.{ext}"),
            None => format!("{name}_quick"),
        }
    } else {
        name.to_string()
    };
    let path = results_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create result file");
    f.write_all(content.as_bytes()).expect("write result");
    println!("\n[written] {}", path.display());
    path
}

/// `true` when `--quick` was passed (smoke-scale run).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Value of a `--key value` argument.
pub fn arg_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Format a float cell to 3 decimals (the paper's precision).
pub fn cell(v: f64) -> String {
    format!("{v:.3}")
}

/// The exact bits of a cell's Acc, F1, Miss, KS and AUC, for parity
/// gates that must not tolerate any difference.
pub fn cell_bits(c: &CellResult) -> [u64; 5] {
    [c.eval.acc, c.eval.f1, c.eval.miss, c.ks, c.auc].map(f64::to_bits)
}

/// Run `f` with this thread's GEMM kernel pinned to `kernel`, then
/// restore the previous selection.
pub fn with_kernel<T>(kernel: GemmKernel, f: impl FnOnce() -> T) -> T {
    let prev = set_gemm_kernel(kernel);
    let out = f();
    set_gemm_kernel(prev);
    out
}

/// The timed part of one run of a [`race`] side. It opens as the side
/// starts and closes as the side returns. A side that builds fresh state
/// for each run (a model, a server) calls [`Window::open`] once that is
/// done, and one that tears state down calls [`Window::close`] first, so
/// only the work in between is timed.
pub struct Window {
    opened: Instant,
    closed: Option<Instant>,
}

impl Window {
    /// Start the timed part here.
    pub fn open(&mut self) {
        self.opened = Instant::now();
        self.closed = None;
    }

    /// End the timed part here.
    pub fn close(&mut self) {
        self.closed = Some(Instant::now());
    }
}

/// One side's fastest run in a [`race`]: its timed seconds and that
/// run's output.
pub struct Fastest<T> {
    /// Wall seconds of the run's [`Window`].
    pub secs: f64,
    /// What the run returned.
    pub out: T,
}

/// Time the sides of a comparison against each other. Each of `reps`
/// rounds runs every side once, in order, so drift in the host (clock
/// frequency, cache warmth, other tenants) reaches every side alike, and
/// each side keeps its fastest run: scheduler noise only ever adds time.
/// `each_round` sees every round's outputs in side order, so a check
/// that must hold on every rep runs on every rep.
pub fn race<T, const N: usize>(
    reps: usize,
    mut sides: [&mut dyn FnMut(&mut Window) -> T; N],
    mut each_round: impl FnMut(&[T]),
) -> [Fastest<T>; N] {
    assert!(reps > 0, "a race runs at least one round");
    let mut best: [Option<Fastest<T>>; N] = std::array::from_fn(|_| None);
    for _ in 0..reps {
        let mut secs = [0.0f64; N];
        let outs: Vec<T> = sides
            .iter_mut()
            .zip(&mut secs)
            .map(|(side, secs)| {
                let mut window = Window {
                    opened: Instant::now(),
                    closed: None,
                };
                let out = side(&mut window);
                let closed = window.closed.unwrap_or_else(Instant::now);
                *secs = closed.duration_since(window.opened).as_secs_f64();
                out
            })
            .collect();
        each_round(&outs);
        for ((slot, out), secs) in best.iter_mut().zip(outs).zip(secs) {
            if slot.as_ref().is_none_or(|b| secs < b.secs) {
                *slot = Some(Fastest { secs, out });
            }
        }
    }
    best.map(|b| b.expect("every side ran in every round"))
}

/// The verdicts of a benchmark's gates, reported together once every
/// gate has run.
#[derive(Default)]
pub struct Gates {
    passed: Vec<String>,
    failed: Vec<String>,
}

impl Gates {
    /// Record gate `name`. `detail` states what was measured against
    /// what bound; it is printed if the gate failed.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if ok {
            self.passed.push(name.to_string());
        } else {
            self.failed.push(format!("FAIL: {name}: {detail}"));
        }
    }

    /// `Ok` with the passed gates' names when every gate passed, else
    /// `Err` with one line per failed gate.
    pub fn verdict(&self) -> Result<String, String> {
        if self.failed.is_empty() {
            Ok(self.passed.join(", "))
        } else {
            Err(self.failed.join("\n"))
        }
    }

    /// Print the verdict of `bench`'s gates, and exit 1 if any failed.
    pub fn finish(&self, bench: &str) {
        match self.verdict() {
            Ok(passed) => println!("{bench} gates passed: {passed}"),
            Err(failures) => {
                println!("{failures}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::time::Duration;

    #[test]
    fn race_runs_the_sides_alternately() {
        let log = RefCell::new(Vec::new());
        let mut rounds = Vec::new();
        let side = |i: usize| {
            let log = &log;
            move |_: &mut Window| {
                log.borrow_mut().push(i);
                i
            }
        };
        let (mut a, mut b, mut c) = (side(0), side(1), side(2));
        race(3, [&mut a, &mut b, &mut c], |outs| {
            rounds.push(outs.to_vec())
        });
        assert_eq!(log.into_inner(), [0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(rounds, vec![vec![0, 1, 2]; 3], "every round is checked");
    }

    #[test]
    fn race_keeps_each_sides_fastest_run_and_its_output() {
        let slow = Duration::from_millis(20);
        // Side a: set-up outside its window on every run; only run 1
        // does no work inside it.
        let mut a_runs = 0;
        let mut a = |w: &mut Window| {
            std::thread::sleep(slow);
            w.open();
            if a_runs != 1 {
                std::thread::sleep(slow);
            }
            a_runs += 1;
            a_runs - 1
        };
        // Side b: tear-down outside its window on every run; only run 2
        // does no work inside it.
        let mut b_runs = 0;
        let mut b = |w: &mut Window| {
            if b_runs != 2 {
                std::thread::sleep(slow);
            }
            w.close();
            std::thread::sleep(slow);
            b_runs += 1;
            b_runs - 1
        };
        let [fa, fb] = race(3, [&mut a, &mut b], |_| {});
        assert_eq!((fa.out, fb.out), (1, 2), "outputs of the fastest runs");
        assert!(fa.secs < slow.as_secs_f64(), "a: {}", fa.secs);
        assert!(fb.secs < slow.as_secs_f64(), "b: {}", fb.secs);
    }

    #[test]
    fn gates_fail_iff_some_gate_failed() {
        let mut gates = Gates::default();
        assert_eq!(gates.verdict(), Ok(String::new()));
        gates.check("parity", true, "unused".into());
        gates.check("ceiling", true, "unused".into());
        assert_eq!(gates.verdict(), Ok("parity, ceiling".to_string()));
        gates.check("leak", false, "2 buffers".into());
        assert!(gates.verdict().is_err());
    }

    #[test]
    fn gates_list_every_failed_gate() {
        let mut gates = Gates::default();
        gates.check("parity", false, "scores differ".into());
        gates.check("ceiling", true, "unused".into());
        gates.check("leak", false, "2 buffers".into());
        let failures = gates.verdict().expect_err("two gates failed");
        assert_eq!(
            failures, "FAIL: parity: scores differ\nFAIL: leak: 2 buffers",
            "each failed gate, in order, and no passed one"
        );
    }

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn write_result_roundtrip() {
        let p = write_result("_test_artifact.txt", "hello");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn cell_precision() {
        assert_eq!(cell(0.5), "0.500");
        assert_eq!(cell(0.1234), "0.123");
    }
}
