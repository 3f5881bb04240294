//! Exceptions are `#[expect(lint, reason = "...")]`: an `allow` is
//! denied, a reason is required, an expectation that suppresses nothing
//! fails, and so does a lint name that does not exist.

#[allow(clippy::disallowed_methods, reason = "unused ones go unseen")] //~ clippy::allow_attributes
pub fn allow_with_reason(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}

#[allow(clippy::disallowed_methods)] //~ clippy::allow_attributes clippy::allow_attributes_without_reason
pub fn allow_without_reason(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}

#[expect(clippy::disallowed_methods)] //~ clippy::allow_attributes_without_reason
pub fn expect_without_reason(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}

#[expect(clippy::disallowed_methods, reason = "the one call this item makes")]
pub fn expect_with_reason(a: f64, b: f64) -> Option<std::cmp::Ordering> {
    a.partial_cmp(&b)
}

#[expect(clippy::disallowed_methods, reason = "nothing here")] //~ unfulfilled_lint_expectations
pub fn expect_that_suppresses_nothing() {}

#[expect(clippy::no_such_lint, reason = "a typo")] //~ unknown_lints
pub fn expect_of_an_unknown_lint() {}
