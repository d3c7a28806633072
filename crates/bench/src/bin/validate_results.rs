//! Validates a `BENCH_results.json` document against the one schema
//! `bench_results` writes (schema 8, see `rum_bench::report::results_json`),
//! so CI catches a broken harness before a stale or malformed results file
//! lands.  Any other `"schema"` value is rejected.
//!
//! Usage: `validate_results [path] [min_speedup] [max_overhead]
//! [min_soak_sessions] [min_wire_speedup] [min_matrix_switches]`
//! (defaults: `BENCH_results.json`, no speedup floor, 3% overhead cap,
//! ≥ 1 soak session, no wire-speedup floor, no switch-count floor).  An
//! argument that is present but does not parse is an error, never a
//! disabled gate.
//!
//! The gates:
//!
//! * **finite, in-range rates** — matrix `false_ack_rate`/`missed_ack_rate`
//!   are finite and inside `[0, 1]` (`null` reads as NaN and fails);
//!   throughput rows carry finite, positive rates.
//! * **count consistency** — matrix and soak rows satisfy
//!   `confirmed + missed == planned` and no count exceeds the plan; a false
//!   ack is a confirmation, so `false_acks <= confirmed`.
//! * **not-applicable placeholders** — a matrix cell with
//!   `"applicable": false` was never run and must be all zeros with a `null`
//!   completion time.
//! * **restart rows on both drivers** — an applicable `restart` matrix row
//!   exists for `simnet` and for `tcp`.
//! * **resync verdicts** — every applicable `restart_resync` row carries a
//!   converged reconciliation (`rounds > 0`, `final_diff == 0`, ground-truth
//!   `table_matches`), on both drivers; `resync_*` fields appear nowhere
//!   else.
//! * **soak** — every `session_soak` row has zero false and stray acks, a
//!   complete tenant population (`completed == sessions`, zero missed
//!   acks), finite monotone tails (p50 ≤ p99 ≤ p99.9), at least
//!   `min_soak_sessions` sessions, and both drivers are present.
//! * **overhead cap** — at least one `telemetry_overhead/*` row, each with a
//!   finite `overhead_pct` below `max_overhead`; no other row carries one.
//! * **install speedup floor** — at least one `flow_mod_install/indexed_*`
//!   row, each with a finite positive `speedup` of at least `min_speedup`.
//! * **wire speedup floor** — at least one `wire_e2e/*` row, each with a
//!   finite positive `speedup` of at least `min_wire_speedup`.
//! * **matrix switch floor** — with `min_matrix_switches` set, both drivers
//!   carry an applicable probing (`rum-*`) matrix row with zero false acks
//!   and `switches >= min_matrix_switches`.
//! * **soak switch floor** — with `min_matrix_switches` set, a `tcp` soak
//!   row ran at `switches >= min_matrix_switches`.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use telemetry::json::{self, Value};

/// The one schema this validator accepts.
const SCHEMA: f64 = 8.0;
const DRIVERS: [&str; 2] = ["simnet", "tcp"];

/// The gate thresholds: one per positional argument after the path.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Floors {
    min_speedup: Option<f64>,
    max_overhead: f64,
    min_soak_sessions: u64,
    min_wire_speedup: Option<f64>,
    min_matrix_switches: u64,
}

impl Default for Floors {
    fn default() -> Self {
        Floors {
            min_speedup: None,
            max_overhead: 3.0,
            min_soak_sessions: 1,
            min_wire_speedup: None,
            min_matrix_switches: 0,
        }
    }
}

/// Parses `args[n]` when present; an unparsable argument is an error that
/// names it.
fn arg<T: FromStr>(args: &[String], n: usize, name: &str) -> Result<Option<T>, String> {
    args.get(n)
        .map(|s| {
            s.parse()
                .map_err(|_| format!("argument {n} ({name}) is not a number: \"{s}\""))
        })
        .transpose()
}

/// The floors named by the command line (`args[0]` is the program).
fn floors(args: &[String]) -> Result<Floors, String> {
    let d = Floors::default();
    Ok(Floors {
        min_speedup: arg(args, 2, "min_speedup")?,
        max_overhead: arg(args, 3, "max_overhead")?.unwrap_or(d.max_overhead),
        min_soak_sessions: arg(args, 4, "min_soak_sessions")?.unwrap_or(d.min_soak_sessions),
        min_wire_speedup: arg(args, 5, "min_wire_speedup")?,
        min_matrix_switches: arg(args, 6, "min_matrix_switches")?.unwrap_or(d.min_matrix_switches),
    })
}

/// One object row of a section, with its position for error messages.
struct Row<'a> {
    obj: &'a BTreeMap<String, Value>,
    at: String,
}

impl<'a> Row<'a> {
    fn err(&self, what: impl Display) -> String {
        format!("{}: {what}", self.at)
    }

    fn get(&self, key: &str) -> Result<&'a Value, String> {
        self.obj
            .get(key)
            .ok_or_else(|| self.err(format!("missing key \"{key}\"")))
    }

    /// A number; `null` (how the writer spells NaN) reads as NaN.
    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Value::Null => Ok(f64::NAN),
            v => v
                .as_f64()
                .ok_or_else(|| self.err(format!("\"{key}\" is not a number: {v:?}"))),
        }
    }

    fn string(&self, key: &str) -> Result<&'a str, String> {
        let v = self.get(key)?;
        v.as_str()
            .ok_or_else(|| self.err(format!("\"{key}\" is not a string: {v:?}")))
    }

    fn boolean(&self, key: &str) -> Result<bool, String> {
        let v = self.get(key)?;
        v.as_bool()
            .ok_or_else(|| self.err(format!("\"{key}\" is not a boolean: {v:?}")))
    }

    /// A finite, non-negative, integer-valued number.
    fn count(&self, key: &str) -> Result<u64, String> {
        let v = self.num(key)?;
        if !v.is_finite() || v < 0.0 || v.fract() != 0.0 {
            return Err(self.err(format!("\"{key}\" is not a non-negative count: {v}")));
        }
        Ok(v as u64)
    }

    /// A finite rate inside `[0, 1]`.
    fn rate(&self, key: &str) -> Result<f64, String> {
        let v = self.num(key)?;
        if !v.is_finite() || !(0.0..=1.0).contains(&v) {
            return Err(self.err(format!("\"{key}\" is not a rate in [0, 1]: {v}")));
        }
        Ok(v)
    }

    fn driver(&self) -> Result<&'a str, String> {
        let driver = self.string("driver")?;
        if !DRIVERS.contains(&driver) {
            return Err(self.err(format!("unknown driver \"{driver}\"")));
        }
        Ok(driver)
    }

    /// The fleet size the row ran against.
    fn switches(&self) -> Result<u64, String> {
        let v = self.count("switches")?;
        if v == 0 {
            return Err(self.err("\"switches\" must be at least 1"));
        }
        Ok(v)
    }

    /// The `speedup` field, finite and positive, held to `floor`.
    fn speedup(&self, name: &str, what: &str, floor: Option<f64>) -> Result<(), String> {
        let speedup = self.num("speedup")?;
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(format!("{name}: bad speedup {speedup}"));
        }
        match floor {
            Some(floor) if speedup < floor => Err(format!(
                "{name}: {what} {speedup:.1}x below the required {floor}x"
            )),
            _ => Ok(()),
        }
    }
}

/// The object rows of the array `section` of the root object.
fn rows<'a>(root: &'a BTreeMap<String, Value>, section: &str) -> Result<Vec<Row<'a>>, String> {
    let rows = root
        .get(section)
        .ok_or_else(|| format!("missing key \"{section}\""))?
        .as_arr()
        .ok_or_else(|| format!("\"{section}\" is not an array"))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let at = format!("{section}[{i}]");
            match row.as_obj() {
                Some(obj) => Ok(Row { obj, at }),
                None => Err(format!("{at} is not an object")),
            }
        })
        .collect()
}

/// Fails unless every driver is in `seen`.
fn require_both_drivers(seen: &[&str], what: &str) -> Result<(), String> {
    match DRIVERS.iter().find(|d| !seen.contains(d)) {
        Some(missing) => Err(format!(
            "{what} required on both drivers; \"{missing}\" is missing"
        )),
        None => Ok(()),
    }
}

fn note<'a>(seen: &mut Vec<&'a str>, driver: &'a str) {
    if !seen.contains(&driver) {
        seen.push(driver);
    }
}

fn validate_latency(root: &BTreeMap<String, Value>) -> Result<usize, String> {
    let rows = rows(root, "results")?;
    for row in &rows {
        row.string("experiment")?;
        for key in [
            "median_completion_ms",
            "p95_completion_ms",
            "confirms",
            "runs",
        ] {
            row.num(key)?;
        }
    }
    Ok(rows.len())
}

fn validate_throughput(root: &BTreeMap<String, Value>, floors: &Floors) -> Result<usize, String> {
    let rows = rows(root, "throughput")?;
    if rows.is_empty() {
        return Err("no throughput rows".into());
    }
    let (mut install_rows, mut overhead_rows, mut wire_rows) = (0, 0, 0);
    for row in &rows {
        let name = row.string("experiment")?;
        row.num("ops")?;
        row.num("runs")?;
        let elapsed = row.num("median_elapsed_ms")?;
        let ops_per_sec = row.num("ops_per_sec")?;
        if !elapsed.is_finite() || !ops_per_sec.is_finite() || ops_per_sec <= 0.0 {
            return Err(row.err("non-finite measurements"));
        }
        if name.starts_with("flow_mod_install/indexed") {
            install_rows += 1;
            row.speedup(name, "speedup", floors.min_speedup)?;
        }
        if name.starts_with("telemetry_overhead/") {
            overhead_rows += 1;
            let overhead = row.num("overhead_pct")?;
            if !overhead.is_finite() {
                return Err(format!("{name}: bad overhead_pct {overhead}"));
            }
            if overhead >= floors.max_overhead {
                return Err(format!(
                    "{name}: telemetry overhead {overhead:.2}% is at or above the allowed {}%",
                    floors.max_overhead
                ));
            }
        } else if row.obj.contains_key("overhead_pct") {
            return Err(format!("{name}: unexpected overhead_pct field"));
        }
        if name.starts_with("wire_e2e/") {
            wire_rows += 1;
            row.speedup(name, "sharding speedup", floors.min_wire_speedup)?;
        }
    }
    if install_rows == 0 {
        return Err("no flow_mod_install/indexed_* throughput row".into());
    }
    if overhead_rows == 0 {
        return Err("no telemetry_overhead/* throughput row".into());
    }
    if wire_rows == 0 {
        return Err("no wire_e2e/* throughput row".into());
    }
    Ok(rows.len())
}

fn validate_matrix(root: &BTreeMap<String, Value>, min_switches: u64) -> Result<usize, String> {
    let rows = rows(root, "scenario_matrix")?;
    let (mut restart, mut resync, mut scale) = (Vec::new(), Vec::new(), Vec::new());
    for row in &rows {
        let driver = row.driver()?;
        let fault = row.string("fault")?;
        let technique = row.string("technique")?;
        row.string("experiment")?;
        let switches = row.switches()?;
        let planned = row.count("planned")?;
        let confirmed = row.count("confirmed")?;
        let false_acks = row.count("false_acks")?;
        let missed_acks = row.count("missed_acks")?;
        let false_rate = row.rate("false_ack_rate")?;
        let missed_rate = row.rate("missed_ack_rate")?;
        if confirmed > planned || false_acks > planned || missed_acks > planned {
            return Err(row.err(format!("counts exceed the plan size {planned}")));
        }
        if confirmed + missed_acks != planned {
            return Err(row.err(format!(
                "confirmed ({confirmed}) + missed ({missed_acks}) != planned ({planned})"
            )));
        }
        if false_acks > confirmed {
            return Err(row.err(format!(
                "false_acks ({false_acks}) exceed confirmed ({confirmed})"
            )));
        }
        let completion_is_null = match row.get("completion_ms")? {
            Value::Null => true,
            v if v.as_f64().is_some_and(|v| v.is_finite() && v >= 0.0) => false,
            other => return Err(row.err(format!("bad completion_ms {other:?}"))),
        };
        let applicable = row.boolean("applicable")?;
        if !applicable
            && (planned != 0 || false_rate != 0.0 || missed_rate != 0.0 || !completion_is_null)
        {
            return Err(row.err(format!(
                "not-applicable cell carries measurements (planned {planned}, rates \
                 {false_rate}/{missed_rate}, completion null: {completion_is_null})"
            )));
        }
        if applicable && fault == "restart" {
            note(&mut restart, driver);
        }
        if row.obj.keys().any(|k| k.starts_with("resync_")) {
            if fault != "restart_resync" {
                return Err(row.err("resync fields are only valid on restart_resync rows"));
            }
            if !applicable {
                return Err(row.err("not-applicable cell carries resync fields"));
            }
            let converged = row.boolean("resync_converged")?;
            let rounds = row.count("resync_rounds")?;
            let final_diff = row.count("resync_final_diff")?;
            row.count("resync_delta_mods")?;
            let table_matches = row.boolean("resync_table_matches")?;
            if !converged || rounds == 0 || final_diff != 0 || !table_matches {
                return Err(row.err(format!(
                    "resync failed to restore the table (converged {converged}, rounds \
                     {rounds}, final_diff {final_diff}, table_matches {table_matches})"
                )));
            }
            note(&mut resync, driver);
        } else if fault == "restart_resync" && applicable {
            return Err(row.err("applicable restart_resync row is missing its resync verdict"));
        }
        if applicable
            && technique.starts_with("rum-")
            && false_acks == 0
            && switches >= min_switches
        {
            note(&mut scale, driver);
        }
    }
    require_both_drivers(&restart, "applicable restart rows are")?;
    require_both_drivers(&resync, "converged restart_resync rows are")?;
    if min_switches > 0 {
        require_both_drivers(
            &scale,
            &format!("an applicable zero-false-ack probing row with switches >= {min_switches} is"),
        )?;
    }
    Ok(rows.len())
}

fn validate_soak(
    root: &BTreeMap<String, Value>,
    min_sessions: u64,
    min_switches: u64,
) -> Result<usize, String> {
    let rows = rows(root, "session_soak")?;
    let mut drivers = Vec::new();
    // The largest fleet a tcp soak ran against.
    let mut tcp_scale = 0;
    for row in &rows {
        let driver = row.driver()?;
        row.string("fault")?;
        row.string("experiment")?;
        let switches = row.switches()?;
        let sessions = row.count("sessions")?;
        let completed = row.count("completed")?;
        let aborted = row.count("aborted")?;
        let planned = row.count("planned_mods")?;
        let confirmed = row.count("confirmed_mods")?;
        let false_acks = row.count("false_acks")?;
        let missed_acks = row.count("missed_acks")?;
        let stray_acks = row.count("stray_acks")?;
        if sessions < min_sessions {
            return Err(row.err(format!(
                "only {sessions} concurrent sessions, required >= {min_sessions}"
            )));
        }
        if completed + aborted > sessions || confirmed > planned {
            return Err(row.err("counts exceed the population"));
        }
        if confirmed + missed_acks != planned {
            return Err(row.err(format!(
                "confirmed ({confirmed}) + missed ({missed_acks}) != planned ({planned})"
            )));
        }
        if false_acks > 0 {
            return Err(row.err(format!("{false_acks} false acks (must be 0)")));
        }
        if completed != sessions || missed_acks > 0 {
            return Err(row.err(format!(
                "incomplete soak ({completed}/{sessions} sessions, {missed_acks} missed acks)"
            )));
        }
        if stray_acks > 0 {
            return Err(row.err(format!("{stray_acks} stray acks (must be 0)")));
        }
        let p50 = row.num("p50_confirm_ms")?;
        let p99 = row.num("p99_confirm_ms")?;
        let p999 = row.num("p999_confirm_ms")?;
        let wall = row.num("wall_ms")?;
        for (key, v) in [("p50", p50), ("p99", p99), ("p99.9", p999), ("wall", wall)] {
            if !v.is_finite() || v < 0.0 {
                return Err(row.err(format!("non-finite {key} {v}")));
            }
        }
        if !(p50 <= p99 && p99 <= p999) {
            return Err(row.err(format!(
                "percentiles not monotone (p50 {p50}, p99 {p99}, p99.9 {p999})"
            )));
        }
        note(&mut drivers, driver);
        if driver == "tcp" {
            tcp_scale = tcp_scale.max(switches);
        }
    }
    require_both_drivers(&drivers, "session_soak rows are")?;
    if min_switches > 0 && tcp_scale < min_switches {
        return Err(format!(
            "no tcp session_soak row with switches >= {min_switches} (largest: {tcp_scale})"
        ));
    }
    Ok(rows.len())
}

/// Row counts per section: latency, throughput, scenario matrix, soak.
type Counts = (usize, usize, usize, usize);

fn validate(doc: &Value, floors: &Floors) -> Result<Counts, String> {
    let root = doc.as_obj().ok_or("document root is not an object")?;
    match root.get("schema") {
        Some(v) if v.as_f64() == Some(SCHEMA) => {}
        other => return Err(format!("schema must be {SCHEMA}, got {other:?}")),
    }
    Ok((
        validate_latency(root)?,
        validate_throughput(root, floors)?,
        validate_matrix(root, floors.min_matrix_switches)?,
        validate_soak(root, floors.min_soak_sessions, floors.min_matrix_switches)?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("BENCH_results.json");
    let floors = match floors(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("validate_results: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate_results: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("validate_results: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(&doc, &floors) {
        Ok((latency, throughput, matrix, soak)) => {
            println!(
                "validate_results: {path} OK ({latency} latency rows, {throughput} throughput rows, {matrix} scenario-matrix rows, {soak} session-soak rows)"
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_results: {path} failed validation: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_bench::report::{results_json, MatrixRecord};
    use rum_bench::scenario_matrix::ResyncVerdict;
    use rum_bench::{ExperimentRecord, SessionSoakRecord, ThroughputRecord};

    // Row positions in the fixture's sections.
    const INSTALL: usize = 0;
    const OVERHEAD: usize = 2;
    const WIRE: usize = 3;
    const EARLY_SIMNET: usize = 0;
    const RESTART_SIMNET: usize = 1;
    const RESTART_TCP: usize = 2;
    const NOT_APPLICABLE: usize = 3;
    const RESYNC_SIMNET: usize = 4;
    const RESYNC_TCP: usize = 5;
    const SCALE_SIMNET: usize = 6;
    const SCALE_TCP: usize = 7;
    const SOAK_SIMNET: usize = 0;
    const SOAK_SCALE_TCP: usize = 2;

    fn cell(driver: &str, fault: &str, technique: &str, switches: u64) -> MatrixRecord {
        MatrixRecord {
            driver: driver.into(),
            fault: fault.into(),
            technique: technique.into(),
            switches,
            planned: 8,
            confirmed: 8,
            false_acks: 0,
            missed_acks: 0,
            false_ack_rate: 0.0,
            missed_ack_rate: 0.0,
            completion_ms: Some(812.5),
            applicable: true,
            resync: None,
        }
    }

    fn soak(driver: &str, switches: u64) -> SessionSoakRecord {
        SessionSoakRecord {
            driver: driver.into(),
            fault: "early_reply".into(),
            switches,
            sessions: 200,
            completed: 200,
            aborted: 0,
            planned_mods: 600,
            confirmed_mods: 600,
            false_acks: 0,
            missed_acks: 0,
            stray_acks: 0,
            p50_confirm_ms: 40.0,
            p99_confirm_ms: 180.0,
            p999_confirm_ms: 523.0,
            wall_ms: 2500.0,
        }
    }

    /// The one schema-8 fixture, rendered by the harness's own writer and
    /// parsed back: it passes every gate, including all floors of
    /// [`strict`].
    fn fixture() -> Value {
        let latency = [ExperimentRecord::from_runs(
            "end_to_end/general",
            &[1.0, 2.0],
            3,
        )];
        let throughput = [
            ThroughputRecord::from_runs("flow_mod_install/indexed_10", 10, &[1.0])
                .with_baseline(100.0),
            ThroughputRecord::from_runs("flow_mod_install/linear_10", 10, &[100.0]),
            ThroughputRecord::from_runs("telemetry_overhead/indexed_10", 10, &[1.02])
                .with_overhead(1.2),
            ThroughputRecord::from_runs("wire_e2e/flow_mods_1000sw", 128_000, &[120.0])
                .with_baseline(150_000.0),
        ];
        let resync = ResyncVerdict {
            converged: true,
            rounds: 2,
            final_diff: 0,
            delta_mods: 4,
            table_matches: true,
        };
        let matrix = [
            MatrixRecord {
                false_acks: 8,
                false_ack_rate: 1.0,
                ..cell("simnet", "early_reply", "barrier-only", 3)
            },
            cell("simnet", "restart", "rum-general", 3),
            cell("tcp", "restart", "rum-general", 3),
            MatrixRecord {
                planned: 0,
                confirmed: 0,
                completion_ms: None,
                applicable: false,
                ..cell("simnet", "early_reply_reordering", "rum-sequential", 3)
            },
            MatrixRecord {
                resync: Some(resync),
                ..cell("simnet", "restart_resync", "rum-general", 3)
            },
            MatrixRecord {
                resync: Some(resync),
                ..cell("tcp", "restart_resync", "rum-general", 3)
            },
            cell("simnet", "early_reply", "rum-general", 1000),
            cell("tcp", "early_reply", "rum-general", 1000),
        ];
        let soak = [soak("simnet", 3), soak("tcp", 3), soak("tcp", 1000)];
        json::parse(&results_json(&latency, &throughput, &matrix, &soak)).expect("valid JSON")
    }

    /// Every floor armed at a level the fixture meets.
    fn strict() -> Floors {
        Floors {
            min_speedup: Some(50.0),
            max_overhead: 3.0,
            min_soak_sessions: 200,
            min_wire_speedup: Some(5.0),
            min_matrix_switches: 1000,
        }
    }

    fn section<'a>(doc: &'a mut Value, name: &str) -> &'a mut Vec<Value> {
        let Value::Obj(root) = doc else {
            panic!("root")
        };
        let Some(Value::Arr(rows)) = root.get_mut(name) else {
            panic!("{name}")
        };
        rows
    }

    fn row<'a>(doc: &'a mut Value, name: &str, i: usize) -> &'a mut BTreeMap<String, Value> {
        match &mut section(doc, name)[i] {
            Value::Obj(row) => row,
            _ => panic!("{name}[{i}]"),
        }
    }

    /// The fixture with `key` of row `i` of `name` set to `value`.
    fn with(name: &str, i: usize, key: &str, value: Value) -> Value {
        let mut doc = fixture();
        row(&mut doc, name, i).insert(key.into(), value);
        doc
    }

    /// The fixture without row `i` of `name`.
    fn without(name: &str, i: usize) -> Value {
        let mut doc = fixture();
        section(&mut doc, name).remove(i);
        doc
    }

    /// Asserts that `doc` fails under `floors` with an error containing
    /// `needle`.
    fn rejects(doc: &Value, floors: &Floors, needle: &str) {
        match validate(doc, floors) {
            Ok(counts) => panic!("accepted {counts:?}, expected \"{needle}\""),
            Err(e) => assert!(e.contains(needle), "\"{e}\" lacks \"{needle}\""),
        }
    }

    const M: &str = "scenario_matrix";
    const S: &str = "session_soak";
    const T: &str = "throughput";

    #[test]
    fn the_fixture_passes_every_gate() {
        assert_eq!(validate(&fixture(), &Floors::default()), Ok((1, 4, 8, 3)));
        assert_eq!(validate(&fixture(), &strict()), Ok((1, 4, 8, 3)));
    }

    #[test]
    fn only_schema_8_is_accepted() {
        for schema in [7, 9, 2] {
            let mut doc = fixture();
            let Value::Obj(root) = &mut doc else { panic!() };
            root.insert("schema".into(), Value::Int(schema));
            rejects(&doc, &Floors::default(), "schema must be 8");
        }
    }

    #[test]
    fn malformed_gate_arguments_fail_instead_of_disabling_the_gate() {
        let args = |tail: &[&str]| -> Vec<String> {
            ["validate_results", "BENCH_results.json"]
                .iter()
                .chain(tail)
                .map(|s| s.to_string())
                .collect()
        };
        assert_eq!(floors(&args(&[])), Ok(Floors::default()));
        assert_eq!(
            floors(&args(&["50", "3", "200", "5", "1000"])),
            Ok(strict())
        );
        let err = floors(&args(&["10", "3", "200", "5x", "1000"])).unwrap_err();
        assert!(err.contains("argument 5 (min_wire_speedup)"), "{err}");
        for (i, name) in ["min_speedup", "max_overhead", "min_soak_sessions"]
            .iter()
            .enumerate()
        {
            let mut tail = vec!["10", "3", "200"];
            tail[i] = "ten";
            let err = floors(&args(&tail)).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
        // A count floor rejects a fraction rather than truncating it.
        let err = floors(&args(&["10", "3", "200", "5", "1e3"])).unwrap_err();
        assert!(err.contains("min_matrix_switches"), "{err}");
    }

    #[test]
    fn rates_must_be_finite_and_in_range() {
        let f = Floors::default();
        rejects(
            &with(M, EARLY_SIMNET, "false_ack_rate", Value::Null),
            &f,
            "false_ack_rate",
        );
        rejects(
            &with(M, EARLY_SIMNET, "false_ack_rate", Value::Float(-0.2)),
            &f,
            "false_ack_rate",
        );
        rejects(
            &with(M, EARLY_SIMNET, "missed_ack_rate", Value::Float(1.5)),
            &f,
            "missed_ack_rate",
        );
        rejects(
            &with(T, WIRE, "ops_per_sec", Value::Null),
            &f,
            "non-finite measurements",
        );
        rejects(
            &with(T, INSTALL, "median_elapsed_ms", Value::Null),
            &f,
            "non-finite measurements",
        );
    }

    #[test]
    fn counts_must_be_consistent() {
        let f = Floors::default();
        rejects(
            &with(M, EARLY_SIMNET, "false_acks", Value::Int(9)),
            &f,
            "exceed the plan size",
        );
        rejects(
            &with(M, EARLY_SIMNET, "confirmed", Value::Int(7)),
            &f,
            "!= planned",
        );
        rejects(
            &with(M, EARLY_SIMNET, "planned", Value::Float(7.5)),
            &f,
            "non-negative count",
        );
        // A false ack is a confirmation: more of them than confirmations is
        // nonsensical.
        let mut phantom = with(M, EARLY_SIMNET, "confirmed", Value::Int(5));
        row(&mut phantom, M, EARLY_SIMNET).insert("missed_acks".into(), Value::Int(3));
        rejects(&phantom, &f, "exceed confirmed");
        rejects(
            &with(S, SOAK_SIMNET, "confirmed_mods", Value::Int(599)),
            &f,
            "!= planned",
        );
        rejects(
            &with(S, SOAK_SIMNET, "aborted", Value::Int(1)),
            &f,
            "exceed the population",
        );
    }

    #[test]
    fn not_applicable_cells_must_be_zero_placeholders() {
        let f = Floors::default();
        rejects(
            &with(M, EARLY_SIMNET, "applicable", Value::Bool(false)),
            &f,
            "not-applicable",
        );
        for (key, value) in [
            ("false_ack_rate", Value::Float(0.9)),
            ("missed_ack_rate", Value::Float(0.5)),
            ("completion_ms", Value::Float(50.0)),
        ] {
            rejects(&with(M, NOT_APPLICABLE, key, value), &f, "not-applicable");
        }
        let mut unflagged = fixture();
        row(&mut unflagged, M, NOT_APPLICABLE).remove("applicable");
        rejects(&unflagged, &f, "applicable");
    }

    #[test]
    fn restart_rows_are_required_on_both_drivers() {
        let f = Floors::default();
        rejects(
            &without(M, RESTART_TCP),
            &f,
            "restart rows are required on both drivers; \"tcp\"",
        );
        rejects(&without(M, RESTART_SIMNET), &f, "\"simnet\" is missing");
        // A not-applicable restart row does not count as coverage.
        let mut na = fixture();
        let r = row(&mut na, M, RESTART_TCP);
        r.insert("applicable".into(), Value::Bool(false));
        for key in ["planned", "confirmed"] {
            r.insert(key.into(), Value::Int(0));
        }
        r.insert("completion_ms".into(), Value::Null);
        rejects(&na, &f, "restart rows");
    }

    #[test]
    fn resync_verdicts_must_show_a_restored_table_on_both_drivers() {
        let f = Floors::default();
        for (key, value) in [
            ("resync_converged", Value::Bool(false)),
            ("resync_final_diff", Value::Int(2)),
            ("resync_table_matches", Value::Bool(false)),
            ("resync_rounds", Value::Int(0)),
        ] {
            rejects(&with(M, RESYNC_SIMNET, key, value), &f, "failed to restore");
        }
        rejects(
            &without(M, RESYNC_TCP),
            &f,
            "restart_resync rows are required on both drivers",
        );
        let mut bare = fixture();
        row(&mut bare, M, RESYNC_SIMNET).retain(|k, _| !k.starts_with("resync_"));
        rejects(&bare, &f, "missing its resync verdict");
        rejects(
            &with(M, RESTART_SIMNET, "resync_converged", Value::Bool(true)),
            &f,
            "only valid on restart_resync",
        );
    }

    #[test]
    fn soak_rows_must_be_clean_complete_and_monotone() {
        let f = Floors::default();
        rejects(
            &with(S, SOAK_SIMNET, "false_acks", Value::Int(2)),
            &f,
            "false acks",
        );
        rejects(
            &with(S, SOAK_SIMNET, "stray_acks", Value::Int(1)),
            &f,
            "stray acks",
        );
        let mut stalled = with(S, SOAK_SIMNET, "completed", Value::Int(199));
        let r = row(&mut stalled, S, SOAK_SIMNET);
        r.insert("confirmed_mods".into(), Value::Int(597));
        r.insert("missed_acks".into(), Value::Int(3));
        rejects(&stalled, &f, "incomplete soak");
        rejects(
            &with(S, SOAK_SIMNET, "p999_confirm_ms", Value::Null),
            &f,
            "p99.9",
        );
        rejects(
            &with(S, SOAK_SIMNET, "p999_confirm_ms", Value::Float(90.0)),
            &f,
            "not monotone",
        );
        rejects(&with(S, SOAK_SIMNET, "wall_ms", Value::Null), &f, "wall");
        rejects(
            &without(S, SOAK_SIMNET),
            &f,
            "session_soak rows are required on both drivers",
        );
        let floor = Floors {
            min_soak_sessions: 500,
            ..Floors::default()
        };
        rejects(&fixture(), &floor, "required >= 500");
    }

    #[test]
    fn overhead_is_capped() {
        let f = Floors::default();
        let slow = with(T, OVERHEAD, "overhead_pct", Value::Float(3.0));
        rejects(&slow, &f, "at or above");
        let loose = Floors {
            max_overhead: 10.0,
            ..Floors::default()
        };
        assert!(validate(&slow, &loose).is_ok());
        // Slightly negative overhead is measurement noise, not an error.
        assert!(validate(&with(T, OVERHEAD, "overhead_pct", Value::Float(-0.3)), &f).is_ok());
        rejects(
            &with(T, OVERHEAD, "overhead_pct", Value::Null),
            &loose,
            "overhead_pct",
        );
        rejects(&without(T, OVERHEAD), &f, "no telemetry_overhead");
        rejects(
            &with(T, INSTALL, "overhead_pct", Value::Float(0.5)),
            &f,
            "unexpected overhead_pct",
        );
    }

    #[test]
    fn install_speedup_has_a_floor() {
        let floor = Floors {
            min_speedup: Some(200.0),
            ..Floors::default()
        };
        rejects(
            &fixture(),
            &floor,
            "indexed_10: speedup 100.0x below the required 200x",
        );
        rejects(
            &with(T, INSTALL, "speedup", Value::Null),
            &Floors::default(),
            "bad speedup",
        );
        rejects(
            &without(T, INSTALL),
            &Floors::default(),
            "no flow_mod_install",
        );
    }

    #[test]
    fn wire_speedup_has_a_floor() {
        let floor = Floors {
            min_wire_speedup: Some(10.0),
            ..Floors::default()
        };
        rejects(
            &fixture(),
            &floor,
            "sharding speedup 7.1x below the required 10x",
        );
        rejects(&without(T, WIRE), &Floors::default(), "no wire_e2e");
    }

    #[test]
    fn matrix_switch_floor_demands_both_drivers_at_scale() {
        rejects(
            &without(M, SCALE_TCP),
            &strict(),
            "switches >= 1000 is required on both drivers; \"tcp\"",
        );
        // A scale row with a false ack does not count as coverage.
        let mut lying = with(M, SCALE_SIMNET, "false_acks", Value::Int(1));
        row(&mut lying, M, SCALE_SIMNET).insert("false_ack_rate".into(), Value::Float(0.125));
        rejects(&lying, &strict(), "\"simnet\" is missing");
        // Every row states its fleet size.
        rejects(
            &with(M, EARLY_SIMNET, "switches", Value::Int(0)),
            &Floors::default(),
            "at least 1",
        );
        let mut unsized_row = fixture();
        row(&mut unsized_row, M, EARLY_SIMNET).remove("switches");
        rejects(&unsized_row, &Floors::default(), "\"switches\"");
    }

    #[test]
    fn soak_switch_floor_demands_a_tcp_fleet_run() {
        rejects(
            &without(S, SOAK_SCALE_TCP),
            &strict(),
            "no tcp session_soak row with switches >= 1000",
        );
        let mut unsized_row = fixture();
        row(&mut unsized_row, S, SOAK_SIMNET).remove("switches");
        rejects(&unsized_row, &Floors::default(), "\"switches\"");
    }
}
