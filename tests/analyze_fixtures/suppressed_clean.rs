//! Clean fixture: every would-be violation carries a justified
//! suppression, so the scanner must report nothing. Guards the
//! suppression syntax itself against regressions.

use std::collections::HashMap;
use std::time::Instant;

pub fn trace_stamp() -> Instant {
    // Trace timestamps are wall time by design and never reach the
    // virtual clock.
    // sdm-analyze: allow(no-wall-clock)
    Instant::now()
}

pub struct ByUserName {
    // Keyed by names that arrive with the request.
    names: HashMap<String, u32>, // sdm-analyze: allow(default-hasher-on-serving-path)
}

pub fn stamped_names() -> (Instant, ByUserName) {
    // Both at once: a comma-separated list names each rule it suppresses.
    // sdm-analyze: allow(no-wall-clock, default-hasher-on-serving-path)
    (Instant::now(), ByUserName { names: HashMap::new() })
}
