//! Collects every JSON sidecar under `results/` into one Markdown digest
//! (`results/RESULTS.md`) — the machine-written companion of the hand-
//! written `EXPERIMENTS.md`.
//!
//! Run the individual experiment binaries first (or `scripts/run_all.sh`);
//! this binary only aggregates what exists.

use std::fs;
use std::path::Path;

fn main() {
    let dir = Path::new("results");
    let mut entries: Vec<(String, serde_json::Value)> = Vec::new();
    match fs::read_dir(dir) {
        Ok(read) => {
            for entry in read.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some("json") {
                    continue;
                }
                let name = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("unknown")
                    .to_string();
                match fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
                {
                    Some(v) => entries.push((name, v)),
                    None => eprintln!("warning: could not parse {}", path.display()),
                }
            }
        }
        Err(err) => {
            eprintln!("no results/ directory ({err}); run the experiment binaries first");
            std::process::exit(1);
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));

    let mut md = String::from(
        "# zfgan results digest\n\n\
         Auto-generated from the JSON sidecars in `results/`. Regenerate any\n\
         entry with `cargo run --release -p zfgan-bench --bin <name>`, the\n\
         `faults` and `crashtest` campaigns with `zfgan <name> --out`.\n\n",
    );
    for (name, value) in &entries {
        md.push_str(&format!("## `{name}`\n\n"));
        match value {
            serde_json::Value::Array(rows) if !rows.is_empty() => {
                // Render an array of flat objects as a Markdown table.
                if let Some(serde_json::Value::Object(first)) = rows.first() {
                    let cols: Vec<&String> = first.keys().collect();
                    md.push_str(&format!(
                        "| {} |\n|{}|\n",
                        cols.iter()
                            .map(|c| c.as_str())
                            .collect::<Vec<_>>()
                            .join(" | "),
                        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
                    ));
                    for row in rows {
                        if let serde_json::Value::Object(obj) = row {
                            let cells: Vec<String> = cols
                                .iter()
                                .map(|c| match obj.get(c) {
                                    Some(serde_json::Value::Number(n)) => {
                                        // Trim float noise for readability.
                                        n.as_f64()
                                            .map(|f| {
                                                if f.fract() == 0.0 && f.abs() < 1e15 {
                                                    format!("{}", f as i64)
                                                } else {
                                                    format!("{f:.3}")
                                                }
                                            })
                                            .unwrap_or_else(|| n.to_string())
                                    }
                                    Some(serde_json::Value::String(s)) => s.clone(),
                                    Some(other) => other.to_string(),
                                    None => String::new(),
                                })
                                .collect();
                            md.push_str(&format!("| {} |\n", cells.join(" | ")));
                        }
                    }
                    md.push('\n');
                    md.push_str(&format!("({} rows)\n\n", rows.len()));
                } else {
                    md.push_str("```json\n");
                    md.push_str(&serde_json::to_string_pretty(value).unwrap_or_default());
                    md.push_str("\n```\n\n");
                }
            }
            other => {
                md.push_str("```json\n");
                md.push_str(&serde_json::to_string_pretty(other).unwrap_or_default());
                md.push_str("\n```\n\n");
            }
        }
    }
    md.push_str(&format!(
        "\n_{} experiment files collected._\n",
        entries.len()
    ));

    let out = dir.join("RESULTS.md");
    match fs::write(&out, &md) {
        Ok(()) => println!(
            "wrote {} ({} experiments, {} bytes)",
            out.display(),
            entries.len(),
            md.len()
        ),
        Err(err) => {
            eprintln!("could not write {}: {err}", out.display());
            std::process::exit(1);
        }
    }
}
