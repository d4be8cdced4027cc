//! The fixture library's only user. It mentions [`demo::doc_only`] in
//! this comment and nowhere else.

pub use demo::reexported_only;
use demo::{make_report, used_by_test};

#[test]
fn live_items_are_used() {
    let report = make_report();
    assert_eq!(report.total, used_by_test());
    assert_eq!(report.to_string(), "4");
}
