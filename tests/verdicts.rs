//! The reproduction's verdicts, re-derived from the committed CSVs.
//!
//! `results/verdicts.json` holds, per experiment, the paper's ordering
//! claim as a list of checks on CSV cells, each with the outcome it had
//! when recorded. This test recomputes every check from the CSVs (never
//! from EXPERIMENTS.md's prose), fails when one comes out differently,
//! derives each experiment's verdict from how many hold, and fails when
//! the "Verdict summary" table in EXPERIMENTS.md does not start that
//! row with the derived verdict. Rerunning an experiment therefore
//! either keeps every ordering or shows which one flipped.

use std::collections::HashMap;
use std::path::Path;
use stwa_observe::{parse_json, Json};

/// One CSV, or several merged by key: a later file's row replaces an
/// earlier row with the same key cells.
struct Table {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn strs(j: &Json) -> Vec<String> {
    j.as_arr()
        .expect("a list of strings")
        .iter()
        .map(|s| s.as_str().expect("a string").to_string())
        .collect()
}

/// `(column, value)` pairs of a row selector object.
fn selector(j: &Json) -> Vec<(String, String)> {
    j.as_obj()
        .expect("a row selector object")
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.as_str().expect("selector values are strings").to_string(),
            )
        })
        .collect()
}

impl Table {
    fn load(name: &str, spec: &Json) -> Table {
        let key = strs(spec.get("key").expect("table key"));
        let mut header: Option<Vec<String>> = None;
        let mut rows: Vec<Vec<String>> = Vec::new();
        for file in strs(spec.get("files").expect("table files")) {
            let text = std::fs::read_to_string(root().join(&file))
                .unwrap_or_else(|e| panic!("{name}: cannot read {file}: {e}"));
            let mut lines = text.lines();
            let head: Vec<String> = lines
                .next()
                .unwrap_or_else(|| panic!("{file} is empty"))
                .split(',')
                .map(str::to_string)
                .collect();
            match &header {
                Some(h) => assert_eq!(h, &head, "{name}: {file} has another header"),
                None => header = Some(head.clone()),
            }
            let key_at: Vec<usize> = key
                .iter()
                .map(|k| {
                    head.iter()
                        .position(|h| h == k)
                        .unwrap_or_else(|| panic!("{file}: no key {k}"))
                })
                .collect();
            for line in lines.filter(|l| !l.trim().is_empty()) {
                let row: Vec<String> = line.split(',').map(str::to_string).collect();
                assert_eq!(
                    row.len(),
                    head.len(),
                    "{file}: row '{line}' does not fit the header"
                );
                let same_key = |r: &Vec<String>| key_at.iter().all(|&i| r[i] == row[i]);
                match rows.iter_mut().find(|r| same_key(r)) {
                    Some(old) => *old = row,
                    None => rows.push(row),
                }
            }
        }
        Table {
            name: name.to_string(),
            header: header.expect("at least one file"),
            rows,
        }
    }

    fn col(&self, column: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == column)
            .unwrap_or_else(|| panic!("{}: no column '{column}'", self.name))
    }

    fn matches(&self, row: &[String], sel: &[(String, String)]) -> bool {
        sel.iter().all(|(c, v)| row[self.col(c)] == *v)
    }

    fn one(&self, sel: &Json) -> &[String] {
        let sel = selector(sel);
        let hits: Vec<&Vec<String>> = self.rows.iter().filter(|r| self.matches(r, &sel)).collect();
        assert_eq!(
            hits.len(),
            1,
            "{}: {sel:?} must pick exactly one row",
            self.name
        );
        hits[0]
    }

    fn value(&self, sel: &Json, column: &str) -> f64 {
        number(&self.one(sel)[self.col(column)])
    }
}

/// The number a cell starts with ("318.63 MiB" reads 318.63).
fn number(cell: &str) -> f64 {
    let end = cell
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(cell.len());
    cell[..end]
        .parse()
        .unwrap_or_else(|_| panic!("'{cell}' does not start with a number"))
}

fn text<'a>(check: &'a Json, key: &str) -> &'a str {
    check
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("check needs a string '{key}'"))
}

fn num_field(check: &Json, key: &str) -> f64 {
    check
        .get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("check needs a number '{key}'"))
}

/// Whether one check holds on the CSVs.
fn holds(tables: &HashMap<String, Table>, check: &Json) -> bool {
    let t = &tables[text(check, "table")];
    let column = check.get("column").and_then(Json::as_str).unwrap_or("");
    if let Some(row) = check.get("grows_less") {
        let (from, to) = (text(check, "from"), text(check, "to"));
        let growth = |sel: &Json| t.value(sel, to) / t.value(sel, from);
        growth(row) < growth(check.get("than").expect("grows_less needs 'than'"))
    } else if let Some(row) = check.get("less") {
        let times = check.get("times").and_then(Json::as_num).unwrap_or(1.0);
        t.value(row, column) * times
            < t.value(check.get("than").expect("less needs 'than'"), column)
    } else if let Some(row) = check.get("rank") {
        let mine = t.value(row, column);
        let among = selector(check.get("among").expect("rank needs 'among'"));
        let c = t.col(column);
        let below = t
            .rows
            .iter()
            .filter(|r| t.matches(r, &among) && number(&r[c]) < mine)
            .count();
        (below + 1) as f64 <= num_field(check, "at_most")
    } else if let Some(row) = check.get("row") {
        t.one(row)[t.col(column)] == text(check, "equals")
    } else if let Some(among) = check.get("spread") {
        let (among, except) = (
            selector(among),
            selector(check.get("except").unwrap_or(&Json::Obj(Vec::new()))),
        );
        let c = t.col(column);
        let values: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| t.matches(r, &among) && (except.is_empty() || !t.matches(r, &except)))
            .map(|r| number(&r[c]))
            .collect();
        let spread = values.iter().cloned().fold(f64::MIN, f64::max)
            - values.iter().cloned().fold(f64::MAX, f64::min);
        spread <= num_field(check, "at_most")
    } else if let Some(series) = check.get("peak") {
        let c = t.col(series.as_str().expect("peak names a column"));
        let peak = (0..t.rows.len())
            .max_by(|&a, &b| number(&t.rows[a][c]).total_cmp(&number(&t.rows[b][c])))
            .expect("a non-empty series");
        let at = (peak % num_field(check, "period") as usize) as f64;
        let within = check
            .get("within")
            .and_then(Json::as_arr)
            .expect("peak needs 'within'");
        let (lo, hi) = (within[0].as_num().unwrap(), within[1].as_num().unwrap());
        lo <= at && at <= hi
    } else if let Some(rows) = check.get("even_steps") {
        let v: Vec<f64> = rows
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| t.value(s, column))
            .collect();
        v.windows(3).all(|w| w[1] - w[0] == w[2] - w[1])
    } else {
        panic!("unknown check kind: {}", check.pretty())
    }
}

/// EXPERIMENTS.md's "Verdict summary" table: experiment → verdict cell.
fn summary_table() -> Vec<(String, String)> {
    let doc = std::fs::read_to_string(root().join("EXPERIMENTS.md")).unwrap();
    let section = doc
        .split("## Verdict summary")
        .nth(1)
        .expect("EXPERIMENTS.md has a Verdict summary");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 3, "summary row '{l}'");
            (cells[0].to_string(), cells[2].to_string())
        })
        .collect()
}

#[test]
fn every_verdict_follows_from_the_committed_csvs() {
    let spec = parse_json(&std::fs::read_to_string(root().join("results/verdicts.json")).unwrap())
        .expect("verdicts.json parses");
    let tables: HashMap<String, Table> = spec
        .get("tables")
        .and_then(Json::as_obj)
        .expect("tables")
        .iter()
        .map(|(name, t)| (name.clone(), Table::load(name, t)))
        .collect();
    let summary = summary_table();

    let mut failures = Vec::new();
    let experiments = spec
        .get("experiments")
        .and_then(Json::as_arr)
        .expect("experiments");
    for e in experiments {
        let name = text(e, "experiment");
        let checks = e.get("checks").and_then(Json::as_arr).expect("checks");
        let mut held = 0;
        for (i, check) in checks.iter().enumerate() {
            let now = holds(&tables, check);
            let recorded = check.get("holds").and_then(|h| match h {
                Json::Bool(b) => Some(*b),
                _ => None,
            });
            if recorded != Some(now) {
                failures.push(format!(
                    "{name}: check {i} now {}: {}",
                    if now { "holds" } else { "fails" },
                    check.pretty()
                ));
            }
            held += now as usize;
        }
        let held_at = e
            .get("held_at")
            .and_then(Json::as_num)
            .map_or(checks.len(), |n| n as usize);
        let bucket = match held {
            h if h >= held_at => "all",
            0 => "none",
            _ => "some",
        };
        let verdict = e
            .get("verdicts")
            .and_then(|v| v.get(bucket))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name}: no '{bucket}' verdict"));
        match summary.iter().find(|(exp, _)| exp == name) {
            Some((_, cell)) => {
                let cell = cell.replace('*', "").to_lowercase();
                if !cell.starts_with(verdict) {
                    failures.push(format!(
                        "{name}: {held}/{} checks hold, so the verdict is '{verdict}', \
                         but EXPERIMENTS.md says '{cell}'",
                        checks.len()
                    ));
                }
            }
            None => failures.push(format!(
                "{name}: no row in EXPERIMENTS.md's Verdict summary"
            )),
        }
    }
    for (exp, _) in &summary {
        if !experiments.iter().any(|e| text(e, "experiment") == exp) {
            failures.push(format!(
                "EXPERIMENTS.md's '{exp}' verdict has no entry in results/verdicts.json"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
