//! Compare two serialized `SimResult` files field by field.
//!
//! Prints one Markdown row per field path (array indices collapsed): how
//! many values differ out of how many, the largest absolute and relative
//! difference, and whether they stay within the path's tolerance
//! ([`charllm_sim::diff`]). The second file is the reference. Exits 1 when
//! a value is beyond tolerance or the two differ in structure.
//!
//! ```sh
//! cargo run --release --example result_diff -- change.json parent.json
//! ```

use std::process::ExitCode;

use charllm_sim::diff;

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = paths.as_slice() else {
        return Err("usage: result_diff <result.json> <reference.json>".into());
    };
    let d = diff::texts(&std::fs::read_to_string(a)?, &std::fs::read_to_string(b)?)?;
    println!("{d}");
    Ok(if d.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
