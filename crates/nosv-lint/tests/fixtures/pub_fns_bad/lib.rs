//! Seeded fixture for the unreferenced-pub-fn rule: of the two public
//! functions below, only the first has a caller (the other is left
//! unnamed in prose too — the match is textual).

pub fn fixture_called() -> u64 {
    1
}

pub const fn fixture_orphan() -> u64 {
    2
}

fn caller() -> u64 {
    fixture_called()
}
