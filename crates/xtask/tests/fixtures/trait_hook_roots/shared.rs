//@ rel: crates/core/src/shared.rs
pub fn shared_update(set: usize) {
    let v: Option<usize> = checked(set);
    v.unwrap();
}

pub fn generic_update(set: usize) {
    let v: Option<usize> = checked(set);
    v.unwrap();
}

fn checked(set: usize) -> Option<usize> {
    Some(set)
}
