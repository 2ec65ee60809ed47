//! Perf-trajectory gate: diffs two `BENCH_sim.json` files (the committed
//! baseline vs a fresh `scalability --bench-json` run) and fails on
//! regressions beyond a noise band.
//!
//! ```sh
//! bench_diff BASELINE.json NEW.json [--max-regress-pct 25] [--noise-floor-ms 20] \
//!            [--noise-floor-ratio 0.10] [--relative-to seq_ms]
//! ```
//!
//! A *regression* is a `(bench, metric)` pair present in both files whose
//! new value exceeds the baseline by more than the **noise band**: the
//! larger of an absolute floor and the proportional band
//! `--max-regress-pct` grants (`new > base + max(floor, base * pct/100)`).
//! The absolute floor absorbs scheduler jitter on a shared CI box, which
//! swings small measurements far more than 25%; the proportional band
//! scales with the bench so large entries are still held to the
//! percentage. Crucially the floor is *additive slack*, not a dead zone:
//! a bench that lives below the floor can still regress once its delta
//! clears the floor (the old "both sides under the floor" rule silently
//! exempted every sub-floor bench from the gate, no matter how large the
//! blowup). Benches or metrics present on only one side (a renamed sweep,
//! a new or retired column, a schema bump) are informational, not errors —
//! the gate must never punish adding coverage, and a metric the new run no
//! longer emits is simply not compared (a `/5` baseline's `par_ms` against
//! a `/6` run, say).
//!
//! `--relative-to seq_ms` compares each metric as a **ratio to that run's
//! own reference metric** instead of absolute milliseconds: `sharded_ms /
//! seq_ms` new-vs-baseline. Host speed cancels out, so a baseline
//! committed from one machine gates runs on another — this is the mode CI
//! uses (an absolute cross-machine diff would only measure the hardware).
//! The reference metric itself is exempt; catastrophic *global* slowdowns
//! are the `scalability --budget-ms` guard's job. In this mode the
//! absolute floor is `--noise-floor-ratio` (in ratio points), since the
//! scored values are ratios; `--noise-floor-ms` still applies to pairs
//! that fall back to absolute times when a side lacks the reference
//! column.
//!
//! The parser handles exactly the shape `scalability` emits (hand-rolled
//! writer, one bench object per line) plus arbitrary whitespace; there is
//! no serde in the offline container. Schemas `fppn-bench-sim/2` through
//! `/7` all parse: `/3` added `rounds_per_sec`, `/4` adds the serve
//! control-plane records (`serve_runs_per_sec`, cache hit/miss counts and
//! the compile/lookup/run timings), `/5` adds `memo_ms` — the memoized
//! sequential run, gated like every other `_ms` column so a frame-memo
//! slowdown fails the diff — plus the informational `memo_hits`/
//! `memo_misses` frame-memo counters and the serve `run_cache_hits`
//! cross-run result-cache counter, `/6` drops `par_ms` and
//! `pipeline_ms` (the modes they timed are gone), and `/7` drops the
//! `serve` array (never gated; perfbench's `serve-mix` times whole
//! requests through the server instead). Only `*_ms` metrics are
//! **gated**; everything else numeric on a bench line is reported as
//! **informational** — throughput is the inverse of the exempt `seq_ms`
//! reference and just as host-dependent, and the cache counters describe
//! cache behavior, not wall time.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Per-bench metrics: metric name (`seq_ms`, `sharded_ms`, …) → milliseconds.
type Metrics = BTreeMap<String, f64>;

/// One parsed bench line: the gated `*_ms` metrics plus every other
/// numeric (informational) metric — `rounds_per_sec` on schema-3 lines,
/// the serve cache/timing counters on schema-4 lines.
struct Bench {
    metrics: Metrics,
    info: Metrics,
}

/// Numeric fields that describe the bench's shape, not a measurement.
const STRUCTURAL_FIELDS: [&str; 3] = ["rounds", "workers", "runs"];

/// The additive slack below which a delta counts as measurement noise,
/// in the same unit as the scored values: the larger of the absolute
/// `floor` and the proportional band `max_regress_pct` grants on `base`.
fn noise_band(base: f64, floor: f64, max_regress_pct: f64) -> f64 {
    floor.max(base * max_regress_pct / 100.0)
}

/// Regression verdict for one `(bench, metric)` pair: the new value
/// regresses iff it exceeds the baseline by more than the noise band.
/// `base`/`new_v` are scored values — milliseconds, or ratios in
/// `--relative-to` mode with `floor` in ratio points.
fn is_regression(base: f64, new_v: f64, floor: f64, max_regress_pct: f64) -> bool {
    new_v > base + noise_band(base, floor, max_regress_pct)
}

/// Extracts the next `"key": value` string field from a JSON-ish line.
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_owned())
}

/// Extracts every informational `"key": <number>` field from a JSON-ish
/// line: numeric fields that are neither gated `*_ms` metrics nor
/// structural shape counters.
fn info_fields(line: &str) -> Metrics {
    let mut out = Metrics::new();
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        let key = &tail[..close];
        rest = &tail[close + 1..];
        let after = rest.trim_start();
        let Some(after) = after.strip_prefix(':') else {
            continue;
        };
        let after = after.trim_start();
        let end = after
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(after.len());
        let Ok(v) = after[..end].parse::<f64>() else {
            continue;
        };
        rest = &after[end..];
        if !key.ends_with("_ms") && !STRUCTURAL_FIELDS.contains(&key) {
            out.insert(key.to_owned(), v);
        }
    }
    out
}

/// Extracts every `"<name>_ms": <number>` field from a JSON-ish line
/// (`null` metrics are skipped — that backend was not measured).
fn ms_fields(line: &str) -> Metrics {
    let mut out = Metrics::new();
    let mut rest = line;
    while let Some(start) = rest.find("_ms\"") {
        // Walk back to the opening quote of the key.
        let head = &rest[..start];
        let Some(open) = head.rfind('"') else { break };
        let key = format!("{}_ms", &head[open + 1..]);
        let tail = rest[start + 4..].trim_start();
        rest = tail;
        let Some(tail) = tail.strip_prefix(':') else { continue };
        let tail = tail.trim_start();
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(tail.len());
        if let Ok(v) = tail[..end].parse::<f64>() {
            out.insert(key, v);
        }
        rest = &tail[end..];
    }
    out
}

/// Parses a `BENCH_sim.json` into bench-name → metrics.
fn parse(path: &str) -> Result<BTreeMap<String, Bench>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_text(&text, path)
}

/// Parses the text of a `BENCH_sim.json`; `path` only labels errors.
fn parse_text(text: &str, path: &str) -> Result<BTreeMap<String, Bench>, String> {
    let mut benches = BTreeMap::new();
    for line in text.lines() {
        let Some(name) = string_field(line, "name") else {
            continue;
        };
        let metrics = ms_fields(line);
        let info = info_fields(line);
        // Schema-4 serve records carry only informational metrics; a line
        // with *nothing* numeric is still schema drift.
        if metrics.is_empty() && info.is_empty() {
            return Err(format!("{path}: bench {name:?} has no metrics"));
        }
        let bench = Bench { metrics, info };
        if benches.insert(name.clone(), bench).is_some() {
            return Err(format!("{path}: duplicate bench {name:?}"));
        }
    }
    if benches.is_empty() {
        return Err(format!("{path}: no benches found (schema drift?)"));
    }
    Ok(benches)
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut max_regress_pct = 25.0f64;
    let mut noise_floor_ms = 20.0f64;
    let mut noise_floor_ratio = 0.10f64;
    let mut relative_to: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--relative-to" {
            relative_to = Some(args.next().expect("--relative-to needs a metric name"));
            continue;
        }
        let mut grab = |name: &str| -> f64 {
            args.next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric argument"))
        };
        match arg.as_str() {
            "--max-regress-pct" => max_regress_pct = grab("--max-regress-pct"),
            "--noise-floor-ms" => noise_floor_ms = grab("--noise-floor-ms"),
            "--noise-floor-ratio" => noise_floor_ratio = grab("--noise-floor-ratio"),
            other if other.starts_with("--") => panic!(
                "unknown flag {other}; known: --max-regress-pct PCT, --noise-floor-ms MS, \
                 --noise-floor-ratio R, --relative-to METRIC"
            ),
            path => paths.push(path.to_owned()),
        }
    }
    let [base_path, new_path] = &paths[..] else {
        eprintln!(
            "usage: bench_diff BASELINE.json NEW.json [--max-regress-pct 25] \
             [--noise-floor-ms 20] [--noise-floor-ratio 0.10] [--relative-to seq_ms]"
        );
        return ExitCode::FAILURE;
    };

    let (base, new) = match (parse(base_path), parse(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (b, n) => {
            for e in [b.err(), n.err()].into_iter().flatten() {
                eprintln!("bench_diff: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = 0usize;
    let mut compared = 0usize;
    match &relative_to {
        Some(r) => println!(
            "bench_diff: {base_path} vs {new_path} (fail on metric/{r} ratios beyond \
             max(+{max_regress_pct}%, +{noise_floor_ratio} ratio points))"
        ),
        None => println!(
            "bench_diff: {base_path} vs {new_path} \
             (fail beyond max(+{max_regress_pct}%, +{noise_floor_ms} ms))"
        ),
    }
    for (name, new_bench) in &new {
        let Some(base_bench) = base.get(name) else {
            println!("  NEW      {name} (no baseline — informational)");
            continue;
        };
        let (new_metrics, base_metrics) = (&new_bench.metrics, &base_bench.metrics);
        // Informational metrics (throughput, serve cache counters and
        // timings) are reported, never gated: they are host-dependent or
        // describe cache behavior rather than a wall-time budget.
        for (metric, &n) in &new_bench.info {
            match base_bench.info.get(metric) {
                Some(&b) => println!(
                    "  info     {name}/{metric}: {b:.1} -> {n:.1} ({:.2}x — informational, not gated)",
                    n / b.max(1e-9)
                ),
                None => println!("  NEW      {name}/{metric} (no baseline column — informational)"),
            }
        }
        for (metric, &new_ms) in new_metrics {
            let Some(&base_ms) = base_metrics.get(metric) else {
                println!("  NEW      {name}/{metric} (no baseline column)");
                continue;
            };
            // In relative mode, score the metric/reference ratio with the
            // floor in ratio points; the reference metric itself is
            // exempt (host speed is not a regression). Fall back to
            // absolute ms (and the ms floor) when a side lacks the
            // reference column.
            let (base_v, new_v, unit, floor) = match &relative_to {
                Some(r) if metric == r => {
                    println!("  ref      {name}/{metric}: {base_ms:.2} ms -> {new_ms:.2} ms");
                    continue;
                }
                Some(r) => match (base_metrics.get(r), new_metrics.get(r)) {
                    (Some(&br), Some(&nr)) if br > 0.0 && nr > 0.0 => {
                        (base_ms / br, new_ms / nr, format!("x {r}"), noise_floor_ratio)
                    }
                    _ => (base_ms, new_ms, "ms".to_owned(), noise_floor_ms),
                },
                None => (base_ms, new_ms, "ms".to_owned(), noise_floor_ms),
            };
            compared += 1;
            let delta_pct = (new_v - base_v) / base_v.max(1e-9) * 100.0;
            if is_regression(base_v, new_v, floor, max_regress_pct) {
                regressions += 1;
                println!(
                    "  REGRESS  {name}/{metric}: {base_v:.2} {unit} -> {new_v:.2} {unit} ({delta_pct:+.1}%)"
                );
            } else if delta_pct.abs() > max_regress_pct {
                println!(
                    "  noise    {name}/{metric}: {base_v:.2} {unit} -> {new_v:.2} {unit} ({delta_pct:+.1}%)"
                );
            } else {
                println!(
                    "  ok       {name}/{metric}: {base_v:.2} {unit} -> {new_v:.2} {unit} ({delta_pct:+.1}%)"
                );
            }
        }
    }
    for name in base.keys().filter(|n| !new.contains_key(*n)) {
        println!("  GONE     {name} (present only in baseline — informational)");
    }
    println!("bench_diff: {compared} metrics compared, {regressions} regressions");
    if regressions > 0 {
        eprintln!(
            "bench_diff: perf regression beyond the noise band — if intentional, \
             refresh the committed baseline with `scalability --bench-json BENCH_sim.json`"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_and_ms_fields_parse_the_emitted_shape() {
        let line = r#"    {"name": "behavior-heavy/x_y", "rounds": 480, "workers": 4, "seq_ms": 63.100000, "par_ms": 68.000000, "sharded_ms": 64.200000, "pipeline_ms": null},"#;
        assert_eq!(string_field(line, "name").unwrap(), "behavior-heavy/x_y");
        let ms = ms_fields(line);
        assert_eq!(ms.get("seq_ms"), Some(&63.1));
        assert_eq!(ms.get("par_ms"), Some(&68.0));
        assert_eq!(ms.get("sharded_ms"), Some(&64.2));
        assert!(!ms.contains_key("pipeline_ms"), "null metrics are skipped");
        // Schema-2 line: no informational columns at all.
        assert!(info_fields(line).is_empty());
    }

    #[test]
    fn schema_3_lines_carry_the_throughput_column() {
        let line = r#"    {"name": "fms/frames32/procs4", "rounds": 89536, "workers": 4, "seq_ms": 80.500000, "par_ms": 120.100000, "sharded_ms": null, "pipeline_ms": null, "rounds_per_sec": 1112248.4},"#;
        let info = info_fields(line);
        assert_eq!(info.get("rounds_per_sec"), Some(&1_112_248.4));
        assert_eq!(info.len(), 1, "rounds/workers are structural, not metrics");
        // The throughput column must NOT leak into the gated ms metrics.
        let ms = ms_fields(line);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms.get("seq_ms"), Some(&80.5));
    }

    #[test]
    fn schema_4_serve_lines_parse_as_informational_only() {
        let line = r#"    {"name": "serve/fms", "runs": 48, "workers": 4, "serve_runs_per_sec": 910.4, "cache_hits": 47, "cache_misses": 1, "compile_us": 5321.0, "hit_lookup_us": 2.4, "cold_run_us": 6100.2, "hit_run_us": 820.9},"#;
        // Nothing on a serve line is gated...
        assert!(ms_fields(line).is_empty());
        // ...but every measurement is reported.
        let info = info_fields(line);
        assert_eq!(info.get("serve_runs_per_sec"), Some(&910.4));
        assert_eq!(info.get("cache_hits"), Some(&47.0));
        assert_eq!(info.get("cache_misses"), Some(&1.0));
        assert_eq!(info.get("compile_us"), Some(&5321.0));
        assert_eq!(info.get("hit_lookup_us"), Some(&2.4));
        assert_eq!(info.get("cold_run_us"), Some(&6100.2));
        assert_eq!(info.get("hit_run_us"), Some(&820.9));
        assert!(!info.contains_key("runs"), "shape counters are structural");
        assert!(!info.contains_key("workers"));
    }

    #[test]
    fn schema_5_memo_columns_split_into_gated_and_informational() {
        let line = r#"    {"name": "fms/frames32/procs4", "rounds": 89536, "workers": 4, "seq_ms": 33.400000, "par_ms": 40.100000, "sharded_ms": null, "pipeline_ms": null, "memo_ms": 22.100000, "memo_hits": 30, "memo_misses": 2, "rounds_per_sec": 2680598.8},"#;
        // `memo_ms` is a wall-time column: gated like seq/par.
        let ms = ms_fields(line);
        assert_eq!(ms.get("memo_ms"), Some(&22.1));
        assert_eq!(ms.get("seq_ms"), Some(&33.4));
        // The hit/miss counters describe memo behavior, not wall time.
        let info = info_fields(line);
        assert_eq!(info.get("memo_hits"), Some(&30.0));
        assert_eq!(info.get("memo_misses"), Some(&2.0));
        // Behavior-sweep lines emit `"memo_ms": null` — skipped, like any
        // unmeasured backend column.
        let null_line = r#"    {"name": "behavior-heavy/x", "rounds": 480, "workers": 4, "seq_ms": 63.1, "par_ms": 68.0, "sharded_ms": 64.2, "pipeline_ms": 61.0, "memo_ms": null, "memo_hits": 0, "memo_misses": 0, "rounds_per_sec": 7607.0},"#;
        assert!(!ms_fields(null_line).contains_key("memo_ms"));
    }

    #[test]
    fn schema_5_serve_lines_carry_the_run_cache_counter() {
        let line = r#"    {"name": "serve/fms", "runs": 48, "workers": 4, "serve_runs_per_sec": 910.4, "cache_hits": 47, "cache_misses": 1, "run_cache_hits": 47, "compile_us": 5321.0, "hit_lookup_us": 2.4, "cold_run_us": 6100.2, "hit_run_us": 820.9},"#;
        assert!(ms_fields(line).is_empty(), "serve lines stay ungated");
        assert_eq!(info_fields(line).get("run_cache_hits"), Some(&47.0));
    }

    #[test]
    fn schema_6_lines_drop_the_retired_columns() {
        let line = r#"    {"name": "behavior-heavy/x", "rounds": 480, "workers": 4, "seq_ms": 63.1, "sharded_ms": 57.2, "memo_ms": null, "memo_hits": 0, "memo_misses": 0, "rounds_per_sec": 7607.0},"#;
        let ms = ms_fields(line);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms.get("sharded_ms"), Some(&57.2));
        assert!(!ms.contains_key("par_ms") && !ms.contains_key("pipeline_ms"));
    }

    #[test]
    fn schema_7_baseline_has_no_serve_array_and_keeps_every_gated_row() {
        let text = include_str!("../../../../BENCH_sim.json");
        assert!(text.contains("\"schema\": \"fppn-bench-sim/7\""));
        assert!(!text.contains("\"serve\""), "schema 7 has no serve array");
        let benches = parse_text(text, "BENCH_sim.json").unwrap();
        assert_eq!(benches.len(), 12);
        for (name, bench) in &benches {
            let gated: Vec<&str> = bench.metrics.keys().map(String::as_str).collect();
            if name.starts_with("fms") {
                assert_eq!(gated, ["memo_ms", "seq_ms"], "{name}");
            } else {
                assert!(name.starts_with("behavior-heavy/"), "{name}");
                assert_eq!(gated, ["seq_ms", "sharded_ms"], "{name}");
            }
        }
    }

    #[test]
    fn noise_band_is_max_of_floor_and_proportional() {
        // Small base: the absolute floor dominates.
        assert_eq!(noise_band(1.5, 20.0, 25.0), 20.0);
        // Large base: the proportional band dominates (25% of 200 ms).
        assert_eq!(noise_band(200.0, 20.0, 25.0), 50.0);
        // Ratio mode: floor in ratio points.
        assert_eq!(noise_band(0.12, 0.10, 25.0), 0.10);
    }

    #[test]
    fn sub_floor_benches_still_regress_once_the_delta_clears_the_floor() {
        // The old rule ("both sides < floor ⇒ noise") exempted this pair
        // entirely; the additive band flags it: 1.5 -> 30 ms clears the
        // 20 ms slack.
        assert!(is_regression(1.5, 30.0, 20.0, 25.0));
        // ...while genuine sub-floor jitter stays in the band.
        assert!(!is_regression(1.5, 15.0, 20.0, 25.0));
    }

    #[test]
    fn large_benches_are_held_to_the_percentage() {
        assert!(is_regression(100.0, 126.0, 20.0, 25.0));
        assert!(!is_regression(100.0, 124.0, 20.0, 25.0));
        // Exactly on the band edge is not a regression.
        assert!(!is_regression(100.0, 125.0, 20.0, 25.0));
    }

    #[test]
    fn ratio_mode_floor_absorbs_small_ratio_wobble_but_not_blowups() {
        // +67% but only +0.08 ratio points: within the 0.10 floor.
        assert!(!is_regression(0.12, 0.20, 0.10, 25.0));
        // A sharded-data-plane blowup on a tiny bench: 1.24x -> 10x seq.
        assert!(is_regression(1.24, 10.0, 0.10, 25.0));
        // Improvements never regress.
        assert!(!is_regression(1.24, 0.9, 0.10, 25.0));
    }
}
