//! Vantage-point sensitivity: Table 1 (May 2020) vs Table A.3
//! (January 2020), showing how the same toplist measured from six crawl
//! configurations yields systematically different CMP counts — and how
//! US-vantage coverage grows as CCPA adoption ramps.
//!
//! ```sh
//! cargo run --release --bin vantage_compare
//! ```

use consent_core::{experiments, Study};

fn main() {
    print!("{}", experiments::vantage_compare(&Study::quick()));
}
