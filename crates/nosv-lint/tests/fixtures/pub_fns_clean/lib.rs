//! Clean fixture for the unreferenced-pub-fn rule: every public function
//! is named on a line besides its declaration.

pub fn fixture_leaf() -> u64 {
    1
}

pub const fn fixture_root() -> u64 {
    fixture_leaf() + 1
}

#[test]
fn root_adds_one() {
    assert_eq!(fixture_root(), 2);
}
