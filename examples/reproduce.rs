//! Reproduce every table and figure of the paper, with the numeric
//! outcomes of the design ablations, in paper order.
//!
//! ```sh
//! cargo run --release --bin reproduce            # reduced scale
//! cargo run --release --bin reproduce -- --full  # paper scale
//! ```
//!
//! At reduced scale the output equals `tests/fixtures/paper_quick_v1.txt`
//! byte for byte.

use consent_core::{experiments, Study, StudyConfig};

fn main() {
    let study = if std::env::args().any(|a| a == "--full") {
        eprintln!("Running at paper scale (1M sites, full window) — this takes a while.");
        Study::new(StudyConfig::default())
    } else {
        Study::quick()
    };
    print!("{}", experiments::reproduce(&study));
}
