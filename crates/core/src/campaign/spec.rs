//! Declarative campaign specs and their expansion into a mix matrix.
//!
//! A spec names the axes of a screening campaign — workloads, graph
//! scales, engines, partitionings, seeds, fault plans — and the scheduler
//! runs their full cross product. Specs are data, not code: a TOML or
//! JSON file checked into the experiment repo, so a campaign is
//! reproducible from the file alone. The TOML dialect accepted here is
//! the flat subset a spec actually needs (scalar and array values, `#`
//! comments, multi-line arrays); tables and dotted keys are rejected with
//! an explicit error rather than silently misread.

use serde::{Deserialize, DeError, Serialize, Value};

use crate::config::CODE_VERSION;
use crate::error::Grade10Error;
use crate::hash::fnv1a;

/// One point in the campaign matrix: a workload × dataset × engine ×
/// partitioning × seed × fault-plan combination.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MixSpec {
    /// Algorithm name (`bfs`, `pr`, `wcc`, `cdlp`, `sssp`, `lcc`, `prc`).
    pub algorithm: String,
    /// Dataset spec (`rmat:12`, `social:2000`).
    pub dataset: String,
    /// Engine name (`giraph`, `powergraph`).
    pub engine: String,
    /// Cluster size the workload is partitioned over.
    pub machines: u32,
    /// Workload seed (drives graph generation and simulated timing).
    pub seed: u64,
    /// Fault plan applied to the collected telemetry (`none`, `all`,
    /// `hostile`, or a comma-separated class list).
    pub fault: String,
}

impl MixSpec {
    /// Stable human-readable identifier, unique within a campaign.
    pub fn id(&self) -> String {
        format!(
            "{}-{}-{}-m{}-s{}-{}",
            self.algorithm, self.dataset, self.engine, self.machines, self.seed, self.fault
        )
    }

    /// Canonical content string hashed into [`content_hash`](Self::content_hash)
    /// and stored in full as the key of the mix's stage-cache record. Every
    /// field is keyed so axis values cannot collide across field boundaries.
    pub fn content_string(&self, code_version: &str) -> String {
        format!(
            "v={code_version};alg={};ds={};eng={};m={};seed={};fault={}",
            self.algorithm, self.dataset, self.engine, self.machines, self.seed, self.fault
        )
    }

    /// Content hash keying this mix in the result store. Covers every
    /// spec field *and* the code version: edit one axis value and exactly
    /// the affected mixes re-run; bump the code version and everything
    /// does.
    pub fn content_hash(&self, code_version: &str) -> u64 {
        fnv1a(self.content_string(code_version).as_bytes())
    }
}

/// A declarative campaign: axis values whose cross product is the mix
/// matrix. Load from a file with [`CampaignSpec::load`] or build in code.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct CampaignSpec {
    /// Campaign name, used in the journal header and reports.
    pub name: String,
    /// Version tag mixed into every content hash (defaults to
    /// [`CODE_VERSION`]).
    pub code_version: String,
    /// Algorithms to run.
    pub algorithms: Vec<String>,
    /// Datasets to run each algorithm on.
    pub datasets: Vec<String>,
    /// Engines to run each workload under (default `["giraph"]`).
    pub engines: Vec<String>,
    /// Cluster sizes (default `[2]`).
    pub machines: Vec<u32>,
    /// Workload seeds (default `[46]`).
    pub seeds: Vec<u64>,
    /// Fault plans (default `["none"]`).
    pub faults: Vec<String>,
}

impl CampaignSpec {
    /// Expands the cross product into the ordered mix matrix. The order
    /// (algorithm, dataset, engine, machines, seed, fault — outermost
    /// first) is part of the format: journals and reports list mixes in
    /// it, and it must not change between a run and its resume.
    pub fn expand(&self) -> Vec<MixSpec> {
        let mut mixes = Vec::new();
        for alg in &self.algorithms {
            for ds in &self.datasets {
                for eng in &self.engines {
                    for &m in &self.machines {
                        for &seed in &self.seeds {
                            for fault in &self.faults {
                                mixes.push(MixSpec {
                                    algorithm: alg.clone(),
                                    dataset: ds.clone(),
                                    engine: eng.clone(),
                                    machines: m,
                                    seed,
                                    fault: fault.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        mixes
    }

    /// Parses a spec from file contents, dispatching on the extension:
    /// `.json` is parsed as JSON, anything else as the flat TOML subset.
    pub fn parse(path_hint: &str, contents: &str) -> Result<CampaignSpec, Grade10Error> {
        let value = if path_hint.ends_with(".json") {
            serde_json::from_str::<Value>(contents)
                .map_err(|e| Grade10Error::Serialization(format!("campaign spec: {e}")))?
        } else {
            parse_toml_subset(contents)?
        };
        Self::from_spec_value(&value)
            .map_err(|e| Grade10Error::Serialization(format!("campaign spec: {}", e.0)))
    }

    /// Loads and parses a spec file.
    pub fn load(path: &std::path::Path) -> Result<CampaignSpec, Grade10Error> {
        let contents = std::fs::read_to_string(path)
            .map_err(|e| Grade10Error::Io(format!("reading {}: {e}", path.display())))?;
        Self::parse(&path.to_string_lossy(), &contents)
    }

    /// Builds the spec from an already-parsed [`Value`] tree — the path a
    /// joining worker takes when it reads the campaign manifest a leader
    /// serialized, rather than the original spec file.
    pub fn from_value(v: &Value) -> Result<CampaignSpec, Grade10Error> {
        Self::from_spec_value(v)
            .map_err(|e| Grade10Error::Serialization(format!("campaign spec: {}", e.0)))
    }

    /// Builds the spec from a parsed key/value tree, applying defaults
    /// for optional axes and rejecting unknown keys (a typo'd axis name
    /// must not silently shrink the matrix).
    fn from_spec_value(v: &Value) -> Result<CampaignSpec, DeError> {
        let Value::Object(entries) = v else {
            return Err(DeError::expected("object", v));
        };
        let mut spec = CampaignSpec {
            name: String::new(),
            code_version: CODE_VERSION.to_string(),
            algorithms: Vec::new(),
            datasets: Vec::new(),
            engines: vec!["giraph".to_string()],
            machines: vec![2],
            seeds: vec![46],
            faults: vec!["none".to_string()],
        };
        let mut saw_name = false;
        for (key, val) in entries {
            match key.as_str() {
                "name" => {
                    spec.name = String::from_value(val)?;
                    saw_name = true;
                }
                "code_version" => spec.code_version = String::from_value(val)?,
                "algorithms" => spec.algorithms = Vec::<String>::from_value(val)?,
                "datasets" => spec.datasets = Vec::<String>::from_value(val)?,
                "engines" => spec.engines = Vec::<String>::from_value(val)?,
                "machines" => spec.machines = Vec::<u32>::from_value(val)?,
                "seeds" => spec.seeds = Vec::<u64>::from_value(val)?,
                "faults" => spec.faults = Vec::<String>::from_value(val)?,
                other => return Err(DeError::msg(format!("unknown key `{other}`"))),
            }
        }
        if !saw_name || spec.name.is_empty() {
            return Err(DeError::msg("missing required key `name`"));
        }
        if spec.algorithms.is_empty() {
            return Err(DeError::msg("`algorithms` must list at least one workload"));
        }
        if spec.datasets.is_empty() {
            return Err(DeError::msg("`datasets` must list at least one dataset"));
        }
        Ok(spec)
    }
}

/// Parses the flat TOML subset campaign specs use: `key = value` lines,
/// `#` comments, string/integer/boolean scalars, and (possibly
/// multi-line) arrays of scalars. Tables (`[section]`) and dotted keys
/// are rejected explicitly.
fn parse_toml_subset(contents: &str) -> Result<Value, Grade10Error> {
    let err = |line: usize, msg: String| {
        Grade10Error::Serialization(format!("campaign spec line {line}: {msg}"))
    };
    let mut entries: Vec<(String, Value)> = Vec::new();
    let mut lines = contents.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            return Err(err(
                line_no,
                "TOML tables are not supported; use flat `key = value` lines".to_string(),
            ));
        }
        let Some(eq) = line.find('=') else {
            return Err(err(line_no, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err(line_no, format!("invalid key `{key}`")));
        }
        let mut value_text = line[eq + 1..].trim().to_string();
        // Join continuation lines until array brackets balance.
        while bracket_depth(&value_text) > 0 {
            let Some((_, next)) = lines.next() else {
                return Err(err(line_no, "unclosed array".to_string()));
            };
            value_text.push(' ');
            value_text.push_str(strip_comment(next).trim());
        }
        let value = parse_toml_value(value_text.trim())
            .map_err(|msg| err(line_no, format!("value for `{key}`: {msg}")))?;
        entries.push((key.to_string(), value));
    }
    Ok(Value::Object(entries))
}

/// Strips a `#` comment, ignoring `#` inside double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Net `[`/`]` depth outside strings; positive means an array continues
/// on the next line.
fn bracket_depth(text: &str) -> i32 {
    let mut depth = 0;
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Parses one TOML scalar or single-depth array of scalars.
fn parse_toml_value(text: &str) -> Result<Value, String> {
    let text = text.trim();
    if text.is_empty() {
        return Err("empty value".to_string());
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unclosed array".to_string())?;
        let mut items = Vec::new();
        for part in split_toml_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            items.push(parse_toml_scalar(part)?);
        }
        return Ok(Value::Array(items));
    }
    parse_toml_scalar(text)
}

/// Splits an array body on commas outside strings.
fn split_toml_items(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    items.push(current);
    items
}

/// Parses one TOML scalar: string, boolean, or integer.
fn parse_toml_scalar(text: &str) -> Result<Value, String> {
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{text}`"))?;
        if inner.contains('"') {
            return Err(format!("stray quote inside `{text}`"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(u) = text.parse::<u64>() {
        return Ok(Value::UInt(u));
    }
    if let Ok(i) = text.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    Err(format!("unsupported scalar `{text}` (expected string, integer, or boolean)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "t".into(),
            code_version: CODE_VERSION.into(),
            algorithms: vec!["pr".into(), "bfs".into()],
            datasets: vec!["rmat:8".into()],
            engines: vec!["giraph".into(), "powergraph".into()],
            machines: vec![2],
            seeds: vec![46],
            faults: vec!["none".into()],
        }
    }

    #[test]
    fn expansion_is_cross_product_in_axis_order() {
        let mixes = tiny_spec().expand();
        assert_eq!(mixes.len(), 4);
        assert_eq!(mixes[0].id(), "pr-rmat:8-giraph-m2-s46-none");
        assert_eq!(mixes[1].id(), "pr-rmat:8-powergraph-m2-s46-none");
        assert_eq!(mixes[2].id(), "bfs-rmat:8-giraph-m2-s46-none");
    }

    #[test]
    fn content_hash_is_per_field_and_version_sensitive() {
        let mixes = tiny_spec().expand();
        let h = mixes[0].content_hash(CODE_VERSION);
        assert_eq!(h, mixes[0].content_hash(CODE_VERSION), "deterministic");
        assert_ne!(h, mixes[1].content_hash(CODE_VERSION), "axis-sensitive");
        assert_ne!(h, mixes[0].content_hash("g10c-3"), "version-sensitive");
    }

    #[test]
    fn parses_toml_subset() {
        let text = r#"
            # screening campaign
            name = "smoke"
            algorithms = ["pr", "bfs"]
            datasets = [
                "rmat:8",  # tiny
            ]
            machines = [2, 4]
            seeds = [46]
        "#;
        let spec = CampaignSpec::parse("spec.toml", text).expect("parse");
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.algorithms, vec!["pr", "bfs"]);
        assert_eq!(spec.machines, vec![2, 4]);
        assert_eq!(spec.engines, vec!["giraph"], "default engine");
        assert_eq!(spec.faults, vec!["none"], "default fault plan");
        assert_eq!(spec.expand().len(), 4);
    }

    #[test]
    fn parses_json() {
        let text = r#"{"name": "j", "algorithms": ["wcc"], "datasets": ["rmat:6"]}"#;
        let spec = CampaignSpec::parse("spec.json", text).expect("parse");
        assert_eq!(spec.name, "j");
        assert_eq!(spec.expand().len(), 1);
    }

    #[test]
    fn rejects_unknown_keys_tables_and_missing_axes() {
        let unknown = "name = \"x\"\nalgorithm = [\"pr\"]\ndatasets = [\"rmat:8\"]";
        let e = CampaignSpec::parse("s.toml", unknown).unwrap_err();
        assert!(e.to_string().contains("unknown key"), "{e}");
        let table = "[campaign]\nname = \"x\"";
        let e = CampaignSpec::parse("s.toml", table).unwrap_err();
        assert!(e.to_string().contains("tables are not supported"), "{e}");
        let missing = "name = \"x\"\ndatasets = [\"rmat:8\"]";
        let e = CampaignSpec::parse("s.toml", missing).unwrap_err();
        assert!(e.to_string().contains("algorithms"), "{e}");
    }
}
